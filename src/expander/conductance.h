// Cuts and conductance (§2 of the paper): exact enumeration for tiny
// graphs, one deflated lazy power iteration behind both the Cheeger bounds
// and the spectral embedding, and the sweep that turns an embedding into
// the best prefix cut.
//
// Every function takes `weighted`. Off, each edge counts once: vol(S) is
// the degree sum and Φ(S) = |∂S| / min(vol(S), vol(V\S)). On, each edge
// counts g.weight(e): vol_w(S) is the weight incident to S and
// Φ_w(S) = w(∂S) / min(vol_w(S), vol_w(V\S)). Volumes and cuts are int64
// sums of per-edge weights, so on unit weights both notions run the same
// floating-point operations and return the same bits.
#pragma once

#include <cstdint>
#include <vector>

#include "src/graph/graph.h"

namespace ecd::expander {

struct SweepResult {
  std::vector<bool> in_s;
  double conductance = 0.0;
  bool valid = false;  // false when no nontrivial cut exists
};

// Φ(S); 0 for trivial cuts.
double cut_conductance(const graph::Graph& g, const std::vector<bool>& in_s,
                       bool weighted = false);

// Minimum-conductance nontrivial cut over all 2^(n-1) cuts that keep vertex
// 0 out of S; requires n <= 16. Invalid for graphs with < 2 vertices or no
// edges; cuts of conductance 0 are skipped.
SweepResult exact_min_cut(const graph::Graph& g, bool weighted = false);

// Exact Φ(G) = min over all nontrivial cuts; requires n <= 16. Returns 0 for
// graphs with < 2 vertices and for disconnected graphs.
double exact_conductance(const graph::Graph& g, bool weighted = false);

// Second-smallest eigenvalue of the normalized Laplacian, estimated by
// deflated power iteration on the normalized adjacency. Accurate to roughly
// the iteration count; deterministic given the seed.
double lambda2_normalized(const graph::Graph& g, int iterations = 400,
                          std::uint64_t seed = 1, bool weighted = false);

// Cheeger: λ2/2 <= Φ(G) <= sqrt(2 λ2).
struct CheegerBounds {
  double lower = 0.0;
  double upper = 0.0;
};
CheegerBounds conductance_bounds(const graph::Graph& g, int iterations = 400,
                                 std::uint64_t seed = 1,
                                 bool weighted = false);

// Conductance lower bound certificate for one cluster: exact value when the
// cluster is tiny, λ2/2 otherwise.
double certified_conductance_lower_bound(const graph::Graph& g,
                                         int exact_threshold = 14,
                                         int iterations = 400,
                                         std::uint64_t seed = 1,
                                         bool weighted = false);

// Sorts vertices by `score` ascending and returns the prefix cut minimizing
// conductance. O(m + n log n).
SweepResult sweep_cut(const graph::Graph& g, const std::vector<double>& score,
                      bool weighted = false);

// Approximate Fiedler embedding: D^{-1/2} times the power-iteration vector
// lambda2_normalized runs on.
std::vector<double> fiedler_embedding(const graph::Graph& g,
                                      int iterations = 400,
                                      std::uint64_t seed = 1,
                                      bool weighted = false);

// Convenience: fiedler_embedding + sweep_cut, best over `restarts` seeds.
SweepResult spectral_cut(const graph::Graph& g, int iterations = 400,
                         std::uint64_t seed = 1, int restarts = 2,
                         bool weighted = false);

}  // namespace ecd::expander
