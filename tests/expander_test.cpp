#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <functional>
#include <optional>

#include "src/expander/conductance.h"
#include "src/expander/decomposition.h"
#include "src/expander/random_walk.h"
#include "src/graph/generators.h"
#include "src/graph/metrics.h"
#include "src/graph/subgraph.h"

namespace ecd::expander {
namespace {

using graph::Graph;
using graph::Rng;
using graph::VertexId;

TEST(Conductance, CutConductanceByHand) {
  // Path 0-1-2-3: cut {0,1} has 1 crossing edge, vol 3 each side.
  Graph g = graph::path(4);
  std::vector<bool> in_s{true, true, false, false};
  EXPECT_DOUBLE_EQ(cut_conductance(g, in_s), 1.0 / 3.0);
}

TEST(Conductance, TrivialCutsAreZero) {
  Graph g = graph::path(3);
  EXPECT_DOUBLE_EQ(cut_conductance(g, {false, false, false}), 0.0);
  EXPECT_DOUBLE_EQ(cut_conductance(g, {true, true, true}), 0.0);
}

TEST(Conductance, ExactOnCompleteGraph) {
  // K4: the worst cut takes 1 vertex: 3 crossing / vol 3 = 1... the balanced
  // cut 2|2 has 4 crossing / vol 6 = 2/3, which is smaller.
  EXPECT_NEAR(exact_conductance(graph::complete(4)), 2.0 / 3.0, 1e-12);
}

TEST(Conductance, ExactOnCycle) {
  // C8: best cut is an arc of 4: 2 crossing / vol 8 = 1/4.
  EXPECT_NEAR(exact_conductance(graph::cycle(8)), 0.25, 1e-12);
}

TEST(Conductance, ExactOnBarbellIsSmall) {
  Graph g = graph::barbell(5, 0);  // two K5s joined by one edge
  // Cutting between the cliques: 1 edge / vol(K5 side)=21.
  EXPECT_NEAR(exact_conductance(g), 1.0 / 21.0, 1e-12);
}

TEST(Conductance, DisconnectedIsZero) {
  EXPECT_DOUBLE_EQ(
      exact_conductance(graph::disjoint_union({graph::path(2), graph::path(2)})),
      0.0);
}

TEST(Conductance, Lambda2OfCompleteGraph) {
  // Normalized Laplacian of K_n has lambda2 = n/(n-1).
  EXPECT_NEAR(lambda2_normalized(graph::complete(8)), 8.0 / 7.0, 1e-3);
}

TEST(Conductance, Lambda2OfCycleMatchesFormula) {
  // lambda2(C_n) = 1 - cos(2 pi / n).
  const int n = 16;
  EXPECT_NEAR(lambda2_normalized(graph::cycle(n), 2000),
              1.0 - std::cos(2.0 * M_PI / n), 1e-3);
}

TEST(Conductance, CheegerBoundsBracketExactValue) {
  Rng rng(1);
  for (const Graph& g :
       {graph::cycle(10), graph::complete(6), graph::grid(3, 4),
        graph::barbell(4, 1), graph::random_maximal_planar(12, rng)}) {
    const double phi = exact_conductance(g);
    const auto bounds = conductance_bounds(g, 2000);
    EXPECT_LE(bounds.lower, phi + 1e-6);
    EXPECT_GE(bounds.upper, phi - 1e-6);
  }
}

TEST(SweepCut, FindsTheBarbellBottleneck) {
  Graph g = graph::barbell(8, 2);
  const auto cut = spectral_cut(g, 500);
  ASSERT_TRUE(cut.valid);
  // The bottleneck conductance is about 1/vol(K8) = 1/(8*7+2) tiny; the
  // sweep must find something of that order.
  EXPECT_LT(cut.conductance, 0.05);
}

TEST(SweepCut, GridCutIsBalancedish) {
  Graph g = graph::grid(12, 12);
  const auto cut = spectral_cut(g, 500);
  ASSERT_TRUE(cut.valid);
  // Φ(grid k x k) = Θ(1/k).
  EXPECT_LT(cut.conductance, 2.0 / 12.0 + 0.05);
  EXPECT_GT(cut.conductance, 0.01);
}

TEST(RandomWalk, DistributionSumsToOne) {
  Graph g = graph::grid(4, 4);
  const auto p = lazy_walk_distribution(g, 0, 10);
  double sum = 0.0;
  for (double x : p) sum += x;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(RandomWalk, ConvergesToStationary) {
  Graph g = graph::complete(6);
  const auto p = lazy_walk_distribution(g, 0, 60);
  const auto pi = stationary_distribution(g);
  for (int v = 0; v < 6; ++v) EXPECT_NEAR(p[v], pi[v], 1e-9);
}

TEST(RandomWalk, MixingTimeOrdersFamiliesCorrectly) {
  // Expanders mix much faster than cycles of equal size.
  Rng rng(5);
  Graph expander = graph::random_regular(64, 4, rng);
  Graph ring = graph::cycle(64);
  const std::optional<int> t_exp = mixing_time_estimate(expander, 5000);
  const std::optional<int> t_ring = mixing_time_estimate(ring, 50000);
  ASSERT_TRUE(t_exp.has_value());
  ASSERT_TRUE(t_ring.has_value());
  EXPECT_LT(*t_exp * 5, *t_ring);
}

// Regression: an unmixed walk used to report the sentinel max_steps + 1,
// which callers could consume as a real (absurdly small) mixing time.
TEST(RandomWalk, UnmixedWalkReportsNullopt) {
  Graph ring = graph::cycle(64);
  EXPECT_FALSE(mixing_time_from(ring, 0, 5).has_value());
  EXPECT_FALSE(mixing_time_estimate(ring, 5).has_value());
}

TEST(RandomWalk, MixingTimeVsConductanceBound) {
  // tau_mix <= Theta(log n / Phi^2) (§2). Check on a grid.
  Graph g = graph::grid(8, 8);
  const double phi = cut_conductance(
      g, [&] {
        std::vector<bool> in_s(64, false);
        for (int i = 0; i < 32; ++i) in_s[i] = true;  // half the rows
        return in_s;
      }());
  const std::optional<int> t = mixing_time_estimate(g, 100000);
  ASSERT_TRUE(t.has_value());
  EXPECT_LE(*t, 40.0 * std::log(64.0) / (phi * phi));
}

// --- Decomposition contract (the heart of the reproduction) ---------------

void check_contract(const Graph& g, double eps,
                    const ExpanderDecomposition& d) {
  // Every vertex clustered.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_GE(d.cluster_of[v], 0);
    ASSERT_LT(d.cluster_of[v], d.num_clusters);
  }
  // Inter-cluster edge budget.
  EXPECT_LE(d.inter_cluster_edges, eps * g.num_edges() + 1e-9);
  // is_inter_cluster matches cluster_of.
  int recount = 0;
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const graph::Edge ed = g.edge(e);
    const bool inter = d.cluster_of[ed.u] != d.cluster_of[ed.v];
    EXPECT_EQ(inter, static_cast<bool>(d.is_inter_cluster[e]));
    recount += inter;
  }
  EXPECT_EQ(recount, d.inter_cluster_edges);
  // Clusters connected, and each certified bound honest (verified exactly
  // on small clusters).
  const auto members = cluster_members(d);
  ASSERT_EQ(static_cast<int>(members.size()), d.num_clusters);
  for (int c = 0; c < d.num_clusters; ++c) {
    ASSERT_FALSE(members[c].empty());
    const auto sub = graph::induced_subgraph(g, members[c]);
    EXPECT_TRUE(graph::is_connected(sub.graph)) << "cluster " << c;
    if (sub.graph.num_vertices() <= 14 && sub.graph.num_vertices() >= 2 &&
        sub.graph.num_edges() > 0) {
      EXPECT_GE(exact_conductance(sub.graph) + 1e-9,
                d.cluster_phi_certified[c])
          << "cluster " << c;
    }
  }
}

TEST(Decomposition, ContractOnGrid) {
  Graph g = graph::grid(16, 16);
  for (double eps : {0.1, 0.3}) {
    const auto d = expander_decompose(g, eps);
    check_contract(g, eps, d);
  }
}

TEST(Decomposition, ContractOnRandomPlanar) {
  Rng rng(7);
  Graph g = graph::random_maximal_planar(300, rng);
  const auto d = expander_decompose(g, 0.2);
  check_contract(g, 0.2, d);
}

TEST(Decomposition, ContractOnSparsePlanar) {
  Rng rng(8);
  Graph g = graph::random_planar(400, 700, rng);
  const auto d = expander_decompose(g, 0.15);
  check_contract(g, 0.15, d);
}

TEST(Decomposition, ContractOnTree) {
  Rng rng(9);
  Graph g = graph::random_tree(200, rng);
  const auto d = expander_decompose(g, 0.25);
  check_contract(g, 0.25, d);
}

TEST(Decomposition, ContractOnDisconnectedInput) {
  Rng rng(10);
  Graph g = graph::disjoint_union(
      {graph::grid(6, 6), graph::random_tree(40, rng), graph::cycle(30)});
  const auto d = expander_decompose(g, 0.2);
  check_contract(g, 0.2, d);
}

TEST(Decomposition, ExpanderStaysWhole) {
  // A good expander should not be split at moderate eps: its conductance
  // already exceeds the phi target.
  Rng rng(11);
  Graph g = graph::random_regular(128, 6, rng);
  const auto d = expander_decompose(g, 0.3);
  EXPECT_EQ(d.num_clusters, 1);
  EXPECT_EQ(d.inter_cluster_edges, 0);
}

TEST(Decomposition, BarbellIsSplitAtTheBridge) {
  Graph g = graph::barbell(12, 4);
  // At the auto-derived φ the barbell already qualifies as a φ-expander
  // (its bottleneck conductance ≈ 1/vol(K12) beats ε/(8 log m)); pin φ
  // above the bottleneck to force the split.
  DecompositionOptions opt;
  opt.phi = 0.05;
  const auto d = expander_decompose(g, 0.2, opt);
  // The two cliques must land in different clusters.
  EXPECT_NE(d.cluster_of[0], d.cluster_of[g.num_vertices() - 1]);
  EXPECT_LE(d.inter_cluster_edges, 6);
}

TEST(Decomposition, DeterministicModeIsReproducible) {
  Graph g = graph::grid(10, 10);
  DecompositionOptions opt;
  opt.deterministic = true;
  const auto d1 = expander_decompose(g, 0.2, opt);
  const auto d2 = expander_decompose(g, 0.2, opt);
  EXPECT_EQ(d1.cluster_of, d2.cluster_of);
}

TEST(Decomposition, RejectsBadEps) {
  Graph g = graph::path(4);
  EXPECT_THROW(expander_decompose(g, 0.0), std::invalid_argument);
  EXPECT_THROW(expander_decompose(g, 1.0), std::invalid_argument);
}

TEST(Decomposition, HypercubeTightness) {
  // §2 / [4]: after removing a constant fraction of hypercube edges some
  // component has conductance O(1/log n) — so at constant eps the
  // decomposition must either keep big low-ish-conductance clusters or cut
  // a lot. Sanity-check our construction handles it within budget.
  Graph g = graph::hypercube(7);
  const auto d = expander_decompose(g, 0.3);
  check_contract(g, 0.3, d);
}

// Golden pin of the construction's output: FNV-1a over the bit patterns of
// cluster_of, phi and cluster_phi_certified. Refactors of the host-side
// decomposition must leave every hash unchanged; a deliberate change of the
// construction updates the constants and says so.
void fnv_mix(std::uint64_t& h, std::uint64_t word) {
  for (int i = 0; i < 8; ++i) {
    h ^= (word >> (8 * i)) & 0xffu;
    h *= 0x100000001b3ULL;
  }
}

void hash_decomposition(std::uint64_t& h, const ExpanderDecomposition& d) {
  const auto bits = [](double x) {
    std::uint64_t b;
    std::memcpy(&b, &x, sizeof b);
    return b;
  };
  fnv_mix(h, d.cluster_of.size());
  for (int c : d.cluster_of) fnv_mix(h, static_cast<std::uint32_t>(c));
  fnv_mix(h, bits(d.phi));
  fnv_mix(h, d.cluster_phi_certified.size());
  for (double p : d.cluster_phi_certified) fnv_mix(h, bits(p));
}

// ε' of the benchmark's MIS call on random_planar(512, 1024) (0.2 / 5) and
// of its MCM call (0.2 · 0.125), plus a looser ε that makes the sweep split.
constexpr double kPinEps[] = {0.04, 0.025, 0.3};

std::uint64_t pin_hash(const std::function<Graph(std::uint64_t)>& make) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (std::uint64_t seed : {1, 2, 3}) {
    const Graph g = make(seed);
    for (double eps : kPinEps) {
      for (bool deterministic : {false, true}) {
        DecompositionOptions opt;
        opt.seed = seed;
        opt.deterministic = deterministic;
        hash_decomposition(h, expander_decompose(g, eps, opt));
      }
    }
  }
  return h;
}

TEST(Decomposition, GoldenPinOnGrid) {
  EXPECT_EQ(pin_hash([](std::uint64_t) { return graph::grid(16, 16); }),
            0x0466c5b09e9435bdULL);
}

TEST(Decomposition, GoldenPinOnRandomPlanar) {
  EXPECT_EQ(pin_hash([](std::uint64_t seed) {
              Rng rng(seed);
              return graph::random_planar(512, 1024, rng);
            }),
            0xc25ef64b8d226d99ULL);
}

TEST(Decomposition, GoldenPinOnRandomTree) {
  EXPECT_EQ(pin_hash([](std::uint64_t seed) {
              Rng rng(seed);
              return graph::random_tree(300, rng);
            }),
            0xbb32115a42f32139ULL);
}

TEST(Decomposition, GoldenPinOnWeightedGraphInCountMode) {
  // Edge weights must not reach the count-mode construction.
  EXPECT_EQ(pin_hash([](std::uint64_t seed) {
              Rng rng(seed);
              const Graph base = graph::random_planar(256, 512, rng);
              return base.with_weights(graph::random_weights(base, 1000, rng));
            }),
            0x35dde60802263b41ULL);
}

TEST(ClusterMembers, PartitionsVertices) {
  Graph g = graph::grid(8, 8);
  const auto d = expander_decompose(g, 0.2);
  const auto members = cluster_members(d);
  int total = 0;
  for (const auto& m : members) total += static_cast<int>(m.size());
  EXPECT_EQ(total, g.num_vertices());
}

}  // namespace
}  // namespace ecd::expander
