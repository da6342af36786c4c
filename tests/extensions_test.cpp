// Tests for the extension features: weighted-volume expander decomposition
// and distributed triangle counting.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "src/core/mwm.h"
#include "src/core/property_testing.h"
#include "src/core/triangles.h"
#include "src/expander/conductance.h"
#include "src/expander/decomposition.h"
#include "src/graph/generators.h"
#include "src/graph/metrics.h"
#include "src/graph/subgraph.h"
#include "src/seq/mwm.h"

namespace ecd {
namespace {

using graph::Graph;
using graph::Rng;
using graph::VertexId;

// ---------------- Weighted decomposition ---------------------------------------

TEST(WeightedDecomposition, ReducesToUnweightedNotionOnUnitWeights) {
  Graph g = graph::path(4);
  EXPECT_DOUBLE_EQ(expander::cut_conductance(g, {true, true, false, false},
                                             /*weighted=*/true),
                   1.0 / 3.0);
}

TEST(WeightedDecomposition, WeightBudgetHolds) {
  Rng rng(1);
  for (int trial = 0; trial < 5; ++trial) {
    Graph base = graph::random_maximal_planar(150, rng);
    Graph g = base.with_weights(graph::random_weights(base, 1000, rng));
    const double eps = 0.2;
    expander::DecompositionOptions opt;
    opt.seed = trial + 1;
    opt.weighted_volumes = true;
    const auto d = expander::expander_decompose(g, eps, opt);
    EXPECT_LE(d.inter_cluster_weight, eps * g.total_weight() + 1e-9);
    // Partition validity.
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      ASSERT_GE(d.cluster_of[v], 0);
    }
    // Clusters connected.
    const auto members = expander::cluster_members(d);
    for (const auto& m : members) {
      if (m.size() < 2) continue;
      const auto sub = graph::induced_subgraph(g, m);
      EXPECT_TRUE(graph::is_connected(sub.graph));
    }
  }
}

TEST(WeightedDecomposition, HeavyBottleneckGetsCutOnlyIfCheap) {
  // Barbell with an extremely heavy bridge: the weighted decomposition must
  // not cut the bridge (its weight would blow the budget) — the unweighted
  // one would, when forced with the same phi.
  Graph base = graph::barbell(8, 0);
  std::vector<graph::Weight> w(base.num_edges(), 1);
  // bridge edge connects vertex 7 (left clique) with 8 (right clique).
  const graph::EdgeId bridge = base.find_edge(7, 8);
  ASSERT_NE(bridge, graph::kInvalidEdge);
  w[bridge] = 1'000'000;
  Graph g = base.with_weights(std::move(w));
  expander::DecompositionOptions opt;
  opt.phi = 0.05;
  opt.weighted_volumes = true;
  const auto d = expander::expander_decompose(g, 0.3, opt);
  EXPECT_FALSE(d.is_inter_cluster[bridge]);
}

TEST(WeightedDecomposition, CertificateIsALowerBoundOnSmallClusters) {
  // cluster_phi_certified promises a lower bound on each cluster's weighted
  // conductance; on clusters small enough to enumerate, check it exactly.
  Rng rng(3);
  int checked = 0;
  for (int trial = 0; trial < 4; ++trial) {
    Graph base = graph::random_maximal_planar(120, rng);
    Graph g = base.with_weights(graph::random_weights(base, 1000, rng));
    expander::DecompositionOptions opt;
    opt.seed = trial + 1;
    opt.phi = 0.2;  // high enough to split the graph into small clusters
    opt.weighted_volumes = true;
    const auto d = expander::expander_decompose(g, 0.9, opt);
    const auto members = expander::cluster_members(d);
    for (int c = 0; c < d.num_clusters; ++c) {
      if (members[c].size() < 2 || members[c].size() > 16) continue;
      const auto sub = graph::induced_subgraph(g, members[c]);
      EXPECT_LE(d.cluster_phi_certified[c],
                expander::exact_conductance(sub.graph, /*weighted=*/true) +
                    1e-12)
          << "trial " << trial << " cluster " << c;
      ++checked;
    }
  }
  EXPECT_GT(checked, 10);
}

TEST(WeightedDecomposition, MwmPrefersWeightedVolumes) {
  // Ablation hook: both modes must achieve the guarantee; weighted volumes
  // should never be (meaningfully) worse.
  Rng rng(2);
  Graph base = graph::grid(10, 10);
  Graph g = base.with_weights(graph::random_weights(base, 1000, rng));
  core::MwmApproxOptions weighted;
  weighted.framework.decomposition.phi = 0.08;
  core::MwmApproxOptions unweighted = weighted;
  unweighted.weighted_decomposition = false;
  const auto rw = core::mwm_approx(g, 0.3, weighted);
  const auto ru = core::mwm_approx(g, 0.3, unweighted);
  const auto exact =
      seq::matching_weight(g, seq::max_weight_matching(g));
  EXPECT_GE(rw.weight + 1e-9, 0.7 * exact);
  EXPECT_GE(ru.weight + 1e-9, 0.7 * exact);
}

// ---------------- Distributed triangle counting ------------------------------------

TEST(Triangles, SequentialOracleKnownValues) {
  EXPECT_EQ(core::count_triangles_sequential(graph::complete(4)), 4);
  EXPECT_EQ(core::count_triangles_sequential(graph::complete(5)), 10);
  EXPECT_EQ(core::count_triangles_sequential(graph::cycle(5)), 0);
  EXPECT_EQ(core::count_triangles_sequential(graph::grid(4, 4)), 0);
  EXPECT_EQ(core::count_triangles_sequential(graph::complete_bipartite(3, 3)),
            0);
}

TEST(Triangles, DistributedMatchesSequentialOnFamilies) {
  Rng rng(3);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph g = graph::random_maximal_planar(120, rng);
    const auto r = core::count_triangles_distributed(g);
    EXPECT_EQ(r.triangles, core::count_triangles_sequential(g))
        << "trial " << trial;
  }
}

TEST(Triangles, DistributedMatchesOnTwoTrees) {
  Rng rng(4);
  const Graph g = graph::random_two_tree(150, rng);
  const auto r = core::count_triangles_distributed(g);
  // A 2-tree on n vertices has exactly n - 2 triangles... at least the
  // n - 2 construction triangles; chords can add more. Trust the oracle.
  EXPECT_EQ(r.triangles, core::count_triangles_sequential(g));
  EXPECT_GE(r.triangles, g.num_vertices() - 2);
}

TEST(Triangles, TriangulationTriangleCountIsLinear) {
  Rng rng(5);
  const Graph g = graph::random_maximal_planar(200, rng);
  const auto r = core::count_triangles_distributed(g);
  // Every face of a triangulation is a triangle: >= 2n - 5 of them.
  EXPECT_GE(r.triangles, 2 * g.num_vertices() - 5);
}

TEST(Triangles, RoundsScaleWithDegeneracyNotN) {
  Rng rng(6);
  const Graph small = graph::random_maximal_planar(100, rng);
  const Graph large = graph::random_maximal_planar(1000, rng);
  const auto rs = core::count_triangles_distributed(small);
  const auto rl = core::count_triangles_distributed(large);
  // Phase B is max_out_degree + O(1) rounds regardless of n; the peeling in
  // phase A is O(log n). Total measured rounds stay tiny for both.
  EXPECT_LE(rl.ledger.measured_total(),
            rs.ledger.measured_total() + 30);
  EXPECT_LE(rl.out_degree_bound, 5);  // planar degeneracy
}

TEST(Triangles, EmptyAndTinyGraphs) {
  EXPECT_EQ(core::count_triangles_distributed(graph::path(2)).triangles, 0);
  EXPECT_EQ(core::count_triangles_distributed(graph::cycle(3)).triangles, 1);
}

// ---------------- Adversarial inputs / failure paths --------------------------------

TEST(FailureHandling, DenseNonMinorFreeInputStillTerminates) {
  // The framework makes no minor-freeness check; on a dense random input
  // it must still terminate with a valid partition (the paper's §2.3
  // discussion) — only the quality guarantees are off the table.
  Rng rng(31);
  const Graph g = graph::random_regular(80, 8, rng);
  const auto p = core::partition_and_gather(g, 0.3);
  EXPECT_TRUE(p.gather_complete);
  int covered = 0;
  for (const auto& c : p.clusters) covered += static_cast<int>(c.members.size());
  EXPECT_EQ(covered, g.num_vertices());
}

TEST(FailureHandling, PropertyTesterRejectsExpanders) {
  // An 8-regular expander is epsilon-far from planar; the tester must
  // reject (via the property check or the Lemma 2.3 degree condition).
  Rng rng(32);
  const Graph g = graph::random_regular(100, 8, rng);
  const auto r = core::property_test(g, seq::planar_property(), 0.2);
  EXPECT_FALSE(r.accept);
}

TEST(FailureHandling, DiameterSelfCheckPreservesOneSidedError) {
  Rng rng(33);
  for (int trial = 0; trial < 3; ++trial) {
    const Graph planar = graph::random_maximal_planar(100, rng);
    core::PropertyTestOptions opt;
    opt.framework.decomposition.phi = 0.05;  // keep the bound simulable
    opt.diameter_check_factor = 4.0;
    opt.framework.seed = trial;
    const auto r = core::property_test(planar, seq::planar_property(), 0.3, opt);
    EXPECT_TRUE(r.accept) << "trial " << trial;
    bool has_check_entry = false;
    for (const auto& e : r.ledger.entries()) {
      has_check_entry |= e.label.starts_with("diameter self-check");
    }
    EXPECT_TRUE(has_check_entry);
  }
}

TEST(FailureHandling, WeightedDecompositionOnUnitWeightsMatchesContract) {
  Rng rng(34);
  Graph base = graph::random_maximal_planar(120, rng);
  Graph g = base.with_weights(std::vector<graph::Weight>(base.num_edges(), 1));
  expander::DecompositionOptions weighted_opt;
  weighted_opt.weighted_volumes = true;
  const auto d = expander::expander_decompose(g, 0.2, weighted_opt);
  EXPECT_LE(d.inter_cluster_weight, 0.2 * g.num_edges() + 1e-9);
  EXPECT_EQ(d.inter_cluster_weight, d.inter_cluster_edges);
  // Unit weights: the weighted mode is the count mode, bit for bit — at the
  // derived φ (one cluster, Cheeger certificate) and at a forced φ that
  // splits the graph (sweep and exact cuts).
  const auto bits = [](const std::vector<double>& xs) {
    std::vector<std::uint64_t> out(xs.size());
    std::memcpy(out.data(), xs.data(), xs.size() * sizeof(double));
    return out;
  };
  for (double phi : {0.0, 0.3}) {
    expander::DecompositionOptions count_opt;
    count_opt.phi = phi;
    weighted_opt.phi = phi;
    const auto w = expander::expander_decompose(g, 0.5, weighted_opt);
    const auto c = expander::expander_decompose(g, 0.5, count_opt);
    EXPECT_EQ(w.cluster_of, c.cluster_of) << "phi " << phi;
    EXPECT_EQ(w.num_clusters, c.num_clusters) << "phi " << phi;
    EXPECT_EQ(w.is_inter_cluster, c.is_inter_cluster) << "phi " << phi;
    EXPECT_EQ(w.inter_cluster_edges, c.inter_cluster_edges) << "phi " << phi;
    EXPECT_EQ(w.inter_cluster_weight, c.inter_cluster_weight) << "phi " << phi;
    EXPECT_EQ(bits({w.phi}), bits({c.phi})) << "phi " << phi;
    EXPECT_EQ(bits(w.cluster_phi_certified), bits(c.cluster_phi_certified))
        << "phi " << phi;
  }
}

}  // namespace
}  // namespace ecd
