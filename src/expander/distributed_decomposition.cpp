#include "src/expander/distributed_decomposition.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <queue>
#include <random>
#include <stdexcept>

#include "src/congest/network.h"
#include "src/congest/primitives.h"

namespace ecd::expander {

using congest::Context;
using congest::Message;
using graph::Graph;
using graph::VertexId;

namespace {

constexpr std::int64_t kFixedPoint = 1LL << 32;  // Q32 encoding of [-1, 1]
constexpr std::int64_t kPackShift = 31;          // (2*cut) << 31 | volume
// Broadcast payloads must be nonnegative (the flood primitive uses -1 as
// its "unset" sentinel); scores are biased before flooding.
constexpr std::int64_t kBias = 1LL << 34;

// Distributed lazy power iteration restricted to intra-piece edges, then a
// final exchange of scores. |x| <= 1 throughout (convex updates), so the
// fixed-point word never overflows.
class PowerIterAlgo final : public congest::VertexAlgorithm {
 public:
  PowerIterAlgo(const std::vector<int>* intra, int iterations,
                std::uint64_t seed)
      : intra_(intra), iterations_(iterations) {
    std::mt19937_64 rng(seed);
    x_ = std::uniform_real_distribution<double>(-1.0, 1.0)(rng);
  }

  void round(Context& ctx) override {
    const std::int64_t r = ctx.round();
    if (r < iterations_) {
      if (r > 0) absorb_and_update(ctx);
      for (int p : *intra_) {
        ctx.send(p, {{static_cast<std::int64_t>(x_ * kFixedPoint)}});
      }
      return;
    }
    if (r == iterations_) {
      absorb_and_update(ctx);
      // The averaging operator acts on functions, whose second
      // eigenfunction is already the D^{-1/2}-scaled Fiedler direction:
      // sweep by x directly (the surviving constant offset cannot change
      // the ordering).
      score_ = x_;
      for (int p : *intra_) {
        ctx.send(p, {{static_cast<std::int64_t>(score_ * kFixedPoint)}});
      }
      return;
    }
    if (done_) return;
    neighbor_score_.assign(intra_->size(), 0.0);
    for (std::size_t i = 0; i < intra_->size(); ++i) {
      const auto& box = ctx.inbox((*intra_)[i]);
      if (!box.empty()) {
        neighbor_score_[i] =
            static_cast<double>(box[0].words[0]) / kFixedPoint;
      }
    }
    done_ = true;
  }

  bool finished() const override { return done_ || intra_->empty(); }

  double score() const { return score_; }
  const std::vector<double>& neighbor_scores() const { return neighbor_score_; }

 private:
  void absorb_and_update(Context& ctx) {
    if (intra_->empty()) return;
    double acc = 0.0;
    int count = 0;
    for (int p : *intra_) {
      for (const Message& m : ctx.inbox(p)) {
        acc += static_cast<double>(m.words[0]) / kFixedPoint;
        ++count;
      }
    }
    if (count > 0) x_ = 0.5 * x_ + 0.5 * acc / count;
  }

  const std::vector<int>* intra_;
  int iterations_;
  double x_ = 0.0;
  double score_ = 0.0;
  std::vector<double> neighbor_score_;
  bool done_ = false;
};

std::vector<std::vector<int>> intra_ports(const Graph& g,
                                          const std::vector<int>& piece_of) {
  std::vector<std::vector<int>> ports(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    for (int p = 0; p < static_cast<int>(nbrs.size()); ++p) {
      if (piece_of[nbrs[p]] == piece_of[v]) ports[v].push_back(p);
    }
  }
  return ports;
}

// Relabels pieces as connected components (splitting may disconnect).
int relabel_components(const Graph& g, std::vector<int>& piece_of) {
  const int n = g.num_vertices();
  std::vector<int> fresh(n, -1);
  int next = 0;
  for (VertexId s = 0; s < n; ++s) {
    if (fresh[s] != -1) continue;
    const int label = next++;
    std::queue<VertexId> q;
    fresh[s] = label;
    q.push(s);
    while (!q.empty()) {
      const VertexId v = q.front();
      q.pop();
      for (VertexId u : g.neighbors(v)) {
        if (fresh[u] == -1 && piece_of[u] == piece_of[v]) {
          fresh[u] = label;
          q.push(u);
        }
      }
    }
  }
  piece_of = std::move(fresh);
  return next;
}

int auto_iterations(int n, double phi, int requested) {
  if (requested > 0) return requested;
  const double t = 2.0 / std::max(phi, 1e-6) * std::log2(std::max(2, n));
  return std::min(2000, std::max(60, static_cast<int>(std::ceil(t))));
}

struct LevelOutcome {
  bool any_split = false;
  congest::RunStats stats;  // every Network run of the level, summed
};

// One level: all pieces in parallel run the cut-search protocol; pieces
// with a sweep cut below `phi` adopt it.
LevelOutcome run_level(const Graph& g, std::vector<int>& piece_of,
                       int num_pieces, double phi,
                       const DistributedDecompositionOptions& options,
                       std::vector<bool>& finalized, int level,
                       std::vector<double>& best_cut_seen) {
  LevelOutcome outcome;
  const int n = g.num_vertices();
  const auto intra = intra_ports(g, piece_of);
  const congest::NetworkOptions& net = options.net;

  // Phase 1+2: power iteration and score exchange (one Network run).
  const int iterations = auto_iterations(n, phi, options.power_iterations);
  std::vector<std::unique_ptr<congest::VertexAlgorithm>> algos;
  std::vector<PowerIterAlgo*> power(n);
  for (VertexId v = 0; v < n; ++v) {
    auto a = std::make_unique<PowerIterAlgo>(
        &intra[v], iterations,
        options.seed ^ (0xda942042e4dd58b5ULL * (v + 1)) ^
            (0x9e6c63d0876a9a69ULL * (level + 1)));
    power[v] = a.get();
    algos.push_back(std::move(a));
  }
  {
    congest::Network network(g, net);
    outcome.stats += network.run(algos);
  }

  // Phase 3+4: per-piece leader and BFS tree.
  const auto election = congest::elect_cluster_leaders(g, piece_of, net);
  outcome.stats += election.stats;
  const auto tree =
      congest::build_cluster_bfs_trees(g, piece_of, election.leader_of, net);
  outcome.stats += tree.stats;

  // Phase 5: per-piece score range (the power iteration concentrates
  // scores near their piece mean, so the histogram must be normalized per
  // piece): min and max convergecasts, then two leader broadcasts so every
  // vertex knows its piece's range.
  const int buckets = options.histogram_buckets;
  std::vector<std::int64_t> score_fixed(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    score_fixed[v] = static_cast<std::int64_t>(power[v]->score() * kFixedPoint);
  }
  const auto cc_min = congest::convergecast_fold(
      g, piece_of, election.leader_of, tree.parent, tree.depth, score_fixed,
      congest::Fold::kMin, net);
  outcome.stats += cc_min.stats;
  const auto cc_max = congest::convergecast_fold(
      g, piece_of, election.leader_of, tree.parent, tree.depth, score_fixed,
      congest::Fold::kMax, net);
  outcome.stats += cc_max.stats;
  std::vector<std::int64_t> leader_min(n, 0), leader_max(n, 0);
  for (VertexId v = 0; v < n; ++v) {
    if (election.leader_of[v] == v) {
      leader_min[v] = cc_min.sum[piece_of[v]] + kBias;
      leader_max[v] = cc_max.sum[piece_of[v]] + kBias;
    }
  }
  const auto bc_min = congest::broadcast_from_leaders(
      g, piece_of, election.leader_of, leader_min, net);
  outcome.stats += bc_min.stats;
  const auto bc_max = congest::broadcast_from_leaders(
      g, piece_of, election.leader_of, leader_max, net);
  outcome.stats += bc_max.stats;
  // Per-vertex bucket function over its piece's range.
  auto bucket_of = [&](VertexId v, double score) {
    const double lo = static_cast<double>(bc_min.value[v] - kBias) / kFixedPoint;
    const double hi = static_cast<double>(bc_max.value[v] - kBias) / kFixedPoint;
    if (hi - lo < 1e-12) return buckets - 1;  // degenerate: everything in S
    const double t = std::clamp((score - lo) / (hi - lo), 0.0, 1.0);
    return std::min(buckets - 1, static_cast<int>(t * buckets));
  };

  // Phase 6: one convergecast per bucket, summing packed
  // (#opposite-side-neighbor endpoints << 31 | own volume if in S).
  // S_b = vertices with bucket(score) <= b.
  std::vector<std::vector<std::int64_t>> packed_by_bucket(buckets);
  for (int b = 0; b < buckets; ++b) {
    std::vector<std::int64_t> value(n, 0);
    for (VertexId v = 0; v < n; ++v) {
      if (intra[v].empty()) continue;
      const bool in_s = bucket_of(v, power[v]->score()) <= b;
      std::int64_t crossing = 0;
      const auto& nscores = power[v]->neighbor_scores();
      for (std::size_t i = 0; i < intra[v].size(); ++i) {
        const bool nbr_in_s = bucket_of(v, nscores[i]) <= b;
        crossing += (in_s != nbr_in_s);
      }
      value[v] = (crossing << kPackShift) |
                 (in_s ? static_cast<std::int64_t>(intra[v].size()) : 0);
    }
    const auto cc = congest::convergecast_sum(
        g, piece_of, election.leader_of, tree.parent, tree.depth, value,
        net);
    outcome.stats += cc.stats;
    packed_by_bucket[b] = cc.sum;
  }

  // Leaders decide; the winning bucket index (or -1) is broadcast.
  std::vector<std::int64_t> verdict(n, 0);
  std::vector<double> piece_best(num_pieces, 2.0);
  std::vector<int> piece_choice(num_pieces, -1);
  std::vector<std::int64_t> piece_vol(num_pieces, 0);
  for (VertexId v = 0; v < n; ++v) {
    piece_vol[piece_of[v]] += static_cast<std::int64_t>(intra[v].size());
  }
  for (int p = 0; p < num_pieces; ++p) {
    if (finalized[p] || piece_vol[p] == 0) continue;
    for (int b = 0; b < buckets; ++b) {
      const std::int64_t packed = packed_by_bucket[b][p];
      const std::int64_t crossing = packed >> kPackShift;  // = 2*cut
      const std::int64_t vol_s = packed & ((1LL << kPackShift) - 1);
      const std::int64_t vol_rest = piece_vol[p] - vol_s;
      if (vol_s == 0 || vol_rest == 0 || crossing == 0) continue;
      const double conductance =
          (crossing / 2.0) / static_cast<double>(std::min(vol_s, vol_rest));
      if (conductance < piece_best[p]) {
        piece_best[p] = conductance;
        piece_choice[p] = b;
      }
    }
    best_cut_seen[p] = piece_best[p];
    if (piece_best[p] < phi) {
      outcome.any_split = true;
    } else {
      piece_choice[p] = -1;  // piece certified: no cut below phi was found
      finalized[p] = true;
    }
  }
  for (VertexId v = 0; v < n; ++v) {
    if (election.leader_of[v] == v) {
      // Encode bucket+1 so 0 means "no split".
      verdict[v] = piece_choice[piece_of[v]] + 1;
    }
  }
  const auto bc = congest::broadcast_from_leaders(
      g, piece_of, election.leader_of, verdict, net);
  outcome.stats += bc.stats;

  // Apply splits: vertices move to the high side by flipping a local bit;
  // the host relabels components afterwards (bookkeeping only).
  for (VertexId v = 0; v < n; ++v) {
    const std::int64_t decision = bc.value[v];
    if (decision > 0 && bucket_of(v, power[v]->score()) > decision - 1) {
      piece_of[v] = num_pieces + piece_of[v];  // provisional high-side label
    }
  }
  return outcome;
}

}  // namespace

DistributedDecompositionResult distributed_expander_decompose(
    const Graph& g, double eps,
    const DistributedDecompositionOptions& options) {
  if (eps <= 0.0 || eps >= 1.0) throw std::invalid_argument("eps out of (0,1)");
  const int n = g.num_vertices();
  const int m = g.num_edges();
  double phi = options.phi;
  if (phi <= 0.0) {
    const double logm = std::max(1.0, std::log2(static_cast<double>(std::max(2, m))));
    phi = eps / (8.0 * logm);
  }

  DistributedDecompositionResult result;
  for (int attempt = 0; attempt <= options.max_retries; ++attempt, phi /= 2.0) {
    std::vector<int> piece_of(n, 0);
    int num_pieces = relabel_components(g, piece_of);
    std::vector<bool> finalized(num_pieces, false);
    std::vector<double> best_cut(num_pieces, 2.0);
    congest::RunStats stats;
    int level = 0;
    for (; level < options.max_levels; ++level) {
      const auto outcome = run_level(g, piece_of, num_pieces, phi, options,
                                     finalized, level, best_cut);
      stats += outcome.stats;
      if (!outcome.any_split) break;
      num_pieces = relabel_components(g, piece_of);
      finalized.assign(num_pieces, false);
      best_cut.assign(num_pieces, 2.0);
    }

    ExpanderDecomposition d;
    d.cluster_of = piece_of;
    d.num_clusters = num_pieces;
    d.phi = phi;
    tally_inter_cluster(g, d);
    d.cluster_phi_certified.assign(num_pieces, phi);
    if (d.inter_cluster_edges <= eps * m) {
      result.decomposition = std::move(d);
      result.stats = stats;
      result.measured_rounds = stats.rounds;
      result.levels = level;
      return result;
    }
  }
  throw std::runtime_error(
      "distributed_expander_decompose: budget unsatisfied after retries");
}

}  // namespace ecd::expander
