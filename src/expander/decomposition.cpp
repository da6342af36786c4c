#include "src/expander/decomposition.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>

#include "src/expander/conductance.h"
#include "src/graph/splitmix.h"
#include "src/graph/subgraph.h"

namespace ecd::expander {

using graph::Graph;
using graph::VertexId;

namespace {

// Splits `vertices` (a subset of g) into connected components of G[vertices].
std::vector<std::vector<VertexId>> split_components(
    const Graph& g, const std::vector<VertexId>& vertices) {
  std::vector<char> in_set(g.num_vertices(), 0);
  for (VertexId v : vertices) in_set[v] = 1;
  std::vector<char> seen(g.num_vertices(), 0);
  std::vector<std::vector<VertexId>> components;
  for (VertexId s : vertices) {
    if (seen[s]) continue;
    components.emplace_back();
    auto& comp = components.back();
    std::queue<VertexId> q;
    seen[s] = 1;
    q.push(s);
    while (!q.empty()) {
      const VertexId v = q.front();
      q.pop();
      comp.push_back(v);
      for (VertexId u : g.neighbors(v)) {
        if (in_set[u] && !seen[u]) {
          seen[u] = 1;
          q.push(u);
        }
      }
    }
  }
  return components;
}

struct Attempt {
  std::vector<int> cluster_of;
  int num_clusters = 0;
  std::vector<double> cluster_phi;
};

Attempt decompose_with_phi(const Graph& g, double phi,
                           const DecompositionOptions& options) {
  const int n = g.num_vertices();
  const bool weighted = options.weighted_volumes && g.is_weighted();
  Attempt attempt;
  attempt.cluster_of.assign(n, -1);

  std::vector<VertexId> all(n);
  for (VertexId v = 0; v < n; ++v) all[v] = v;
  std::vector<std::vector<VertexId>> work = split_components(g, all);
  std::uint64_t cut_seed = options.seed;

  while (!work.empty()) {
    std::vector<VertexId> piece = std::move(work.back());
    work.pop_back();
    auto finalize = [&](const std::vector<VertexId>& members, double phi_cert) {
      const int label = attempt.num_clusters++;
      for (VertexId v : members) attempt.cluster_of[v] = label;
      attempt.cluster_phi.push_back(phi_cert);
    };
    if (piece.size() <= 2) {
      finalize(piece, 1.0);
      continue;
    }
    const auto sub = graph::induced_subgraph(g, piece);
    SweepResult cut;
    if (sub.graph.num_vertices() <=
        std::min(options.exact_cut_threshold, 16)) {
      cut = exact_min_cut(sub.graph, weighted);
    } else {
      cut = spectral_cut(sub.graph, options.spectral_iterations, cut_seed,
                         options.deterministic ? 1 : options.spectral_restarts,
                         weighted);
      // Chain per-piece sub-seeds through splitmix64 (the canonical
      // splitmix stream) instead of += 104729, which reused streams across
      // nearby user seeds and pieces.
      if (!options.deterministic) cut_seed = graph::splitmix64(cut_seed);
    }
    if (cut.valid && cut.conductance < phi) {
      std::vector<VertexId> left, right;
      for (int i = 0; i < sub.graph.num_vertices(); ++i) {
        (cut.in_s[i] ? left : right).push_back(sub.to_parent[i]);
      }
      for (auto& comp : split_components(g, left)) work.push_back(std::move(comp));
      for (auto& comp : split_components(g, right)) work.push_back(std::move(comp));
    } else {
      finalize(piece, certified_conductance_lower_bound(
                          sub.graph, options.exact_cut_threshold,
                          options.spectral_iterations, options.seed,
                          weighted));
    }
  }
  return attempt;
}

}  // namespace

ExpanderDecomposition expander_decompose(const Graph& g, double eps,
                                         const DecompositionOptions& options) {
  if (eps <= 0.0 || eps >= 1.0) throw std::invalid_argument("eps out of (0,1)");
  const int m = g.num_edges();
  double phi = options.phi;
  if (phi <= 0.0) {
    const double logm = std::max(1.0, std::log2(static_cast<double>(std::max(2, m))));
    phi = eps / (8.0 * logm);
  }

  for (int attempt_idx = 0; attempt_idx <= options.max_retries; ++attempt_idx) {
    Attempt attempt = decompose_with_phi(g, phi, options);
    ExpanderDecomposition result;
    result.cluster_of = std::move(attempt.cluster_of);
    result.num_clusters = attempt.num_clusters;
    result.cluster_phi_certified = std::move(attempt.cluster_phi);
    result.phi = phi;
    tally_inter_cluster(g, result);
    const bool within_budget =
        options.weighted_volumes
            ? result.inter_cluster_weight <= eps * g.total_weight()
            : result.inter_cluster_edges <= eps * m;
    if (within_budget) return result;
    phi /= 2.0;  // too many cut edges: aim for stronger clusters next round
  }
  throw std::runtime_error(
      "expander_decompose: inter-cluster budget unsatisfied after retries");
}

void tally_inter_cluster(const Graph& g, ExpanderDecomposition& d) {
  d.is_inter_cluster.assign(g.num_edges(), false);
  d.inter_cluster_edges = 0;
  d.inter_cluster_weight = 0;
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const graph::Edge ed = g.edge(e);
    if (d.cluster_of[ed.u] != d.cluster_of[ed.v]) {
      d.is_inter_cluster[e] = true;
      ++d.inter_cluster_edges;
      d.inter_cluster_weight += g.weight(e);
    }
  }
}

std::vector<std::vector<VertexId>> cluster_members(
    const ExpanderDecomposition& d) {
  std::vector<std::vector<VertexId>> members(d.num_clusters);
  for (VertexId v = 0; v < static_cast<VertexId>(d.cluster_of.size()); ++v) {
    members[d.cluster_of[v]].push_back(v);
  }
  return members;
}

}  // namespace ecd::expander
