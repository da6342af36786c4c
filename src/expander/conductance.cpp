#include "src/expander/conductance.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <random>
#include <stdexcept>

#include "src/graph/metrics.h"
#include "src/graph/splitmix.h"

namespace ecd::expander {

using graph::Graph;
using graph::VertexId;

namespace {

// Weight of edge e in volumes and cuts.
std::int64_t cut_weight(const Graph& g, graph::EdgeId e, bool weighted) {
  return weighted ? g.weight(e) : 1;
}

// vol({v}) for every v.
std::vector<std::int64_t> vertex_volumes(const Graph& g, bool weighted) {
  std::vector<std::int64_t> vol(g.num_vertices(), 0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (graph::EdgeId e : g.incident_edges(v)) {
      vol[v] += cut_weight(g, e, weighted);
    }
  }
  return vol;
}

// Deflated lazy power iteration on M = (I + N)/2, N = D^{-1/2} A D^{-1/2}
// (A and D weighted when `weighted`), so all eigenvalues are nonnegative.
// The top eigenvector phi_1(v) = sqrt(vol v) is deflated at every step.
struct PowerIteration {
  std::vector<double> sqrt_deg;
  std::vector<double> x;  // last unit iterate
  double mu = 0.0;        // Rayleigh quotient x·Mx of the last step
  bool collapsed = false;  // an iterate vanished; x is the one before
};

PowerIteration lazy_power_iteration(const Graph& g, int iterations,
                                    std::uint64_t seed, bool weighted) {
  const int n = g.num_vertices();
  PowerIteration p;
  auto& sqrt_deg = p.sqrt_deg;
  auto& x = p.x;
  sqrt_deg.resize(n);
  x.resize(n);
  double phi1_norm_sq = 0.0;
  const auto vol = vertex_volumes(g, weighted);
  for (VertexId v = 0; v < n; ++v) {
    sqrt_deg[v] = std::sqrt(static_cast<double>(vol[v]));
    phi1_norm_sq += vol[v];
  }
  std::mt19937_64 rng(seed);
  std::uniform_real_distribution<double> unit(-1.0, 1.0);
  for (auto& xi : x) xi = unit(rng);

  auto deflate = [&](std::vector<double>& v) {
    if (phi1_norm_sq <= 0) return;
    double dot = 0.0;
    for (int i = 0; i < n; ++i) dot += v[i] * sqrt_deg[i];
    dot /= phi1_norm_sq;
    for (int i = 0; i < n; ++i) v[i] -= dot * sqrt_deg[i];
  };
  auto normalize = [&](std::vector<double>& v) {
    double norm = 0.0;
    for (double vi : v) norm += vi * vi;
    norm = std::sqrt(norm);
    if (norm < 1e-300) return false;
    for (double& vi : v) vi /= norm;
    return true;
  };

  deflate(x);
  if (!normalize(x)) {
    p.collapsed = true;
    return p;
  }
  std::vector<double> y(n);
  for (int it = 0; it < iterations; ++it) {
    // y = M x = (x + N x) / 2.
    for (VertexId v = 0; v < n; ++v) {
      const auto nbrs = g.neighbors(v);
      const auto eids = g.incident_edges(v);
      double acc = 0.0;
      for (std::size_t i = 0; i < nbrs.size(); ++i) {
        const VertexId u = nbrs[i];
        if (sqrt_deg[u] <= 0) continue;
        const double xu = x[u] / sqrt_deg[u];
        acc += weighted ? static_cast<double>(g.weight(eids[i])) * xu : xu;
      }
      y[v] = 0.5 * (x[v] + (sqrt_deg[v] > 0 ? acc / sqrt_deg[v] : 0.0));
    }
    deflate(y);
    p.mu = 0.0;
    for (int v = 0; v < n; ++v) p.mu += x[v] * y[v];
    if (!normalize(y)) {
      p.collapsed = true;
      break;
    }
    x.swap(y);
  }
  return p;
}

}  // namespace

double cut_conductance(const Graph& g, const std::vector<bool>& in_s,
                       bool weighted) {
  std::int64_t vol_s = 0;
  std::int64_t vol_total = 0;
  const auto vol = vertex_volumes(g, weighted);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    vol_total += vol[v];
    if (in_s[v]) vol_s += vol[v];
  }
  const std::int64_t vol_rest = vol_total - vol_s;
  if (vol_s == 0 || vol_rest == 0) return 0.0;
  std::int64_t cut = 0;
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const graph::Edge ed = g.edge(e);
    if (in_s[ed.u] != in_s[ed.v]) cut += cut_weight(g, e, weighted);
  }
  return static_cast<double>(cut) /
         static_cast<double>(std::min(vol_s, vol_rest));
}

SweepResult exact_min_cut(const Graph& g, bool weighted) {
  const int n = g.num_vertices();
  if (n > 16) throw std::invalid_argument("exact cuts limited to n <= 16");
  SweepResult best;
  if (n < 2 || g.num_edges() == 0) return best;
  std::vector<bool> in_s(n);
  for (std::uint32_t mask = 1; mask < (1u << (n - 1)); ++mask) {
    for (int v = 1; v < n; ++v) in_s[v] = (mask >> (v - 1)) & 1u;
    in_s[0] = false;
    const double phi = cut_conductance(g, in_s, weighted);
    if (phi > 0.0 && (!best.valid || phi < best.conductance)) {
      best.in_s = in_s;
      best.conductance = phi;
      best.valid = true;
    }
  }
  return best;
}

double exact_conductance(const Graph& g, bool weighted) {
  const SweepResult cut = exact_min_cut(g, weighted);
  return cut.valid && graph::is_connected(g) ? cut.conductance : 0.0;
}

double lambda2_normalized(const Graph& g, int iterations, std::uint64_t seed,
                          bool weighted) {
  if (g.num_vertices() < 2 || g.num_edges() == 0) return 0.0;
  const PowerIteration p = lazy_power_iteration(g, iterations, seed, weighted);
  if (p.collapsed) return 1.0;  // deflated space collapsed: well expanding
  // mu is the Rayleigh quotient of M = (I+N)/2, so lambda2 = 2(1 - mu).
  return std::clamp(2.0 * (1.0 - p.mu), 0.0, 2.0);
}

CheegerBounds conductance_bounds(const Graph& g, int iterations,
                                 std::uint64_t seed, bool weighted) {
  const double l2 = lambda2_normalized(g, iterations, seed, weighted);
  return {l2 / 2.0, std::sqrt(2.0 * l2)};
}

double certified_conductance_lower_bound(const Graph& g, int exact_threshold,
                                         int iterations, std::uint64_t seed,
                                         bool weighted) {
  if (g.num_vertices() <= 1) return 1.0;  // no nontrivial cut exists
  if (g.num_vertices() <= std::min(exact_threshold, 16)) {
    return exact_conductance(g, weighted);
  }
  // Power iteration overestimates mu (converges from below in Rayleigh
  // quotient terms is not guaranteed); apply a small safety discount.
  return 0.9 * conductance_bounds(g, iterations, seed, weighted).lower;
}

SweepResult sweep_cut(const Graph& g, const std::vector<double>& score,
                      bool weighted) {
  const int n = g.num_vertices();
  SweepResult result;
  if (n < 2 || g.num_edges() == 0) return result;

  std::vector<VertexId> order(n);
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&score](VertexId a, VertexId b) { return score[a] < score[b]; });

  const auto vol = vertex_volumes(g, weighted);
  const std::int64_t vol_total =
      std::accumulate(vol.begin(), vol.end(), std::int64_t{0});
  std::vector<bool> inside(n, false);
  std::int64_t vol_s = 0;
  std::int64_t cut = 0;
  double best = 1e18;
  int best_k = -1;
  for (int k = 0; k + 1 < n; ++k) {
    const VertexId v = order[k];
    const auto nbrs = g.neighbors(v);
    const auto eids = g.incident_edges(v);
    std::int64_t inside_w = 0;
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (inside[nbrs[i]]) inside_w += cut_weight(g, eids[i], weighted);
    }
    cut += vol[v] - 2 * inside_w;
    inside[v] = true;
    vol_s += vol[v];
    const std::int64_t small_vol = std::min(vol_s, vol_total - vol_s);
    if (small_vol == 0) continue;
    const double phi = static_cast<double>(cut) / static_cast<double>(small_vol);
    if (phi < best) {
      best = phi;
      best_k = k + 1;
    }
  }
  if (best_k < 0) return result;
  result.in_s.assign(n, false);
  for (int i = 0; i < best_k; ++i) result.in_s[order[i]] = true;
  result.conductance = best;
  result.valid = true;
  return result;
}

std::vector<double> fiedler_embedding(const Graph& g, int iterations,
                                      std::uint64_t seed, bool weighted) {
  const PowerIteration p = lazy_power_iteration(g, iterations, seed, weighted);
  // Embed back: Fiedler coordinate of v is x[v] / sqrt(vol v).
  std::vector<double> out(g.num_vertices(), 0.0);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    out[v] = p.sqrt_deg[v] > 0 ? p.x[v] / p.sqrt_deg[v] : 0.0;
  }
  return out;
}

SweepResult spectral_cut(const Graph& g, int iterations, std::uint64_t seed,
                         int restarts, bool weighted) {
  SweepResult best;
  for (int r = 0; r < restarts; ++r) {
    // Per-restart sub-seeds are splitmix-derived, not small additive
    // offsets: seed + 7919·r made nearby user seeds share restart streams
    // (seed 1 restart 1 == seed 7920 restart 0) and fed mt19937_64 with
    // correlated state.
    const auto emb = fiedler_embedding(
        g, iterations,
        graph::splitmix64(seed + 0x9e3779b97f4a7c15ULL *
                                     static_cast<std::uint64_t>(r)),
        weighted);
    const auto cut = sweep_cut(g, emb, weighted);
    if (cut.valid && (!best.valid || cut.conductance < best.conductance)) {
      best = cut;
    }
  }
  return best;
}

}  // namespace ecd::expander
