// Dedicated tests for the sequential solver substrates (src/seq) that the
// application suites exercise only indirectly: exact MIS, correlation
// clustering, separators, and LDD.
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>

#include "src/graph/generators.h"
#include "src/graph/metrics.h"
#include "src/graph/subgraph.h"
#include "src/seq/correlation.h"
#include "src/seq/ldd.h"
#include "src/seq/mis.h"
#include "src/seq/separator.h"

namespace ecd::seq {
namespace {

using graph::Graph;
using graph::Rng;
using graph::VertexId;

// ---------------- Exact MIS -----------------------------------------------------

TEST(ExactMis, KnownValues) {
  ASSERT_TRUE(max_independent_set_exact(graph::path(5)).has_value());
  EXPECT_EQ(max_independent_set_exact(graph::path(5))->size(), 3u);
  EXPECT_EQ(max_independent_set_exact(graph::cycle(7))->size(), 3u);
  EXPECT_EQ(max_independent_set_exact(graph::complete(6))->size(), 1u);
  EXPECT_EQ(max_independent_set_exact(graph::star(9))->size(), 9u);
  EXPECT_EQ(max_independent_set_exact(graph::complete_bipartite(3, 5))->size(),
            5u);
  EXPECT_EQ(max_independent_set_exact(graph::grid(4, 4))->size(), 8u);
}

TEST(ExactMis, MatchesBruteForceOnRandomGraphs) {
  Rng rng(1);
  for (int trial = 0; trial < 60; ++trial) {
    const int n = 5 + static_cast<int>(rng() % 10);  // 5..14
    const Graph g = graph::erdos_renyi(n, 0.3, rng);
    const auto fast = max_independent_set_exact(g);
    ASSERT_TRUE(fast.has_value());
    const auto slow = max_independent_set_bruteforce(g);
    EXPECT_TRUE(is_independent_set(g, *fast));
    EXPECT_EQ(fast->size(), slow.size()) << "trial " << trial;
  }
}

TEST(ExactMis, MatchesBruteForceOnPlanar) {
  Rng rng(2);
  for (int trial = 0; trial < 30; ++trial) {
    const Graph g = graph::random_planar(12, 20, rng);
    const auto fast = max_independent_set_exact(g);
    ASSERT_TRUE(fast.has_value());
    EXPECT_EQ(fast->size(), max_independent_set_bruteforce(g).size());
  }
}

TEST(ExactMis, BudgetExhaustionReturnsNullopt) {
  Rng rng(3);
  const Graph g = graph::random_regular(40, 8, rng);
  EXPECT_FALSE(max_independent_set_exact(g, 5).has_value());
}

// Pins the branch-and-bound search tree itself, not just the optimum's size:
// B* is the smallest budget that succeeds (one unit per search node, so B*
// is the tree's node count) and `hash` fingerprints the returned vertex
// list, which depends on the reduction order and the pivot rule.
TEST(ExactMis, SearchTreeIsUnchanged) {
  struct Pinned {
    enum Kind { kPlanar, kErdosRenyi } kind;
    int n;
    double m_or_p;
    std::uint64_t seed;
    std::int64_t min_budget;
    std::size_t size;
    std::uint64_t hash;
  };
  const std::vector<Pinned> cases = {
      {Pinned::kPlanar, 50, 100, 50001, 7, 25, 0x5ce62882d1c75b79ull},
      {Pinned::kPlanar, 100, 200, 100001, 575, 49, 0x895b8748b4b2fc8aull},
      {Pinned::kPlanar, 150, 300, 150001, 3491, 77, 0x355a3c27720bd19eull},
      {Pinned::kPlanar, 200, 400, 200001, 7847, 105, 0x9e439f415cc4aec2ull},
      {Pinned::kPlanar, 250, 500, 250001, 19599, 130, 0x7ab9e8084ac5c894ull},
      {Pinned::kPlanar, 300, 600, 300002, 166527, 162, 0x1471fc1fd606f03dull},
      {Pinned::kPlanar, 300, 600, 300005, 78695, 156, 0x7945efea93ba97bcull},
      {Pinned::kPlanar, 350, 700, 350002, 23809, 184, 0x8bfd3bb3671131e8ull},
      {Pinned::kPlanar, 350, 700, 350004, 40207, 191, 0xd28af155291efbe2ull},
      {Pinned::kPlanar, 400, 800, 400003, 78431, 215, 0xeec23fe62080849cull},
      {Pinned::kPlanar, 400, 800, 400004, 123919, 224, 0x787912e41e4581ecull},
      {Pinned::kPlanar, 400, 800, 400001, 190783, 215, 0xa59fe1fda2b45699ull},
      {Pinned::kPlanar, 120, 180, 7, 87, 67, 0x50261eb33fcfc8e9ull},
      {Pinned::kPlanar, 240, 360, 8, 29, 148, 0x2d83473191f41174ull},
      {Pinned::kPlanar, 400, 600, 9, 631, 231, 0x659d9ed8d959299cull},
      {Pinned::kPlanar, 200, 500, 10, 72231, 97, 0x326f70831ac8497full},
      {Pinned::kErdosRenyi, 30, 0.3, 11, 83, 9, 0xdad6af4be5b2aa35ull},
      {Pinned::kErdosRenyi, 45, 0.15, 12, 101, 18, 0xf1fe9f21522db084ull},
      {Pinned::kErdosRenyi, 60, 0.08, 13, 59, 28, 0xc7f479c42e0ea315ull},
      {Pinned::kErdosRenyi, 80, 0.05, 14, 387, 35, 0x58524414c945ca40ull},
      // Runs out of the 250 000-node budget the MIS application uses.
      {Pinned::kPlanar, 300, 600, 300001, 939931, 158, 0x5a6877490db8b991ull},
  };
  auto fnv1a = [](const std::vector<VertexId>& vertices) {
    std::uint64_t h = 1469598103934665603ull;
    for (VertexId v : vertices) {
      h ^= static_cast<std::uint64_t>(v);
      h *= 1099511628211ull;
    }
    return h;
  };
  auto check = [&](const Graph& g, std::int64_t min_budget, std::size_t size,
                   std::uint64_t hash) {
    const auto at = max_independent_set_exact(g, min_budget);
    ASSERT_TRUE(at.has_value());
    EXPECT_EQ(at->size(), size);
    EXPECT_EQ(fnv1a(*at), hash);
    EXPECT_FALSE(max_independent_set_exact(g, min_budget - 1).has_value());
    if (min_budget > 250'000) {
      EXPECT_FALSE(max_independent_set_exact(g, 250'000).has_value());
    }
  };
  for (const Pinned& c : cases) {
    SCOPED_TRACE(testing::Message() << "n=" << c.n << " seed=" << c.seed);
    Rng rng(c.seed);
    check(c.kind == Pinned::kPlanar
              ? graph::random_planar(c.n, static_cast<int>(c.m_or_p), rng)
              : graph::erdos_renyi(c.n, c.m_or_p, rng),
          c.min_budget, c.size, c.hash);
  }
  {
    // Degrees above the solver's per-degree bitset cap, which share one
    // bucket: hubs 1 and 2 (degree 1200) and hub 0 (degree 1100) over
    // leaves 3..1202, the other vertices isolated. The pivot must still
    // be hub 1: the highest degree, lowest id on ties.
    SCOPED_TRACE("hubs");
    std::vector<graph::Edge> edges;
    for (VertexId leaf = 3; leaf <= 1202; ++leaf) {
      if (leaf <= 1102) edges.push_back({0, leaf});
      edges.push_back({1, leaf});
      edges.push_back({2, leaf});
    }
    check(Graph::from_edges(5000, edges), 3, 4997, 0x3aa5520f8cd44ae0ull);
  }
}

TEST(GreedyMis, MeetsDensityLowerBound) {
  Rng rng(4);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = graph::random_maximal_planar(200, rng);  // density < 3
    const auto greedy = greedy_mis_min_degree(g);
    EXPECT_TRUE(is_independent_set(g, greedy));
    EXPECT_GE(greedy.size() * 7u, static_cast<std::size_t>(g.num_vertices()));
  }
}

TEST(MisLocalSearch, NeverShrinksAndStaysIndependent) {
  Rng rng(5);
  const Graph g = graph::random_planar(60, 100, rng);
  const auto start = greedy_mis_min_degree(g);
  const auto improved = mis_local_search(g, start);
  EXPECT_TRUE(is_independent_set(g, improved));
  EXPECT_GE(improved.size(), start.size());
}

TEST(BestEffortMis, FallsBackGracefully) {
  Rng rng(6);
  const Graph g = graph::random_regular(60, 8, rng);
  const auto r = best_effort_mis(g, 10);  // force the fallback
  EXPECT_FALSE(r.exact);
  EXPECT_TRUE(is_independent_set(g, r.vertices));
}

// ---------------- Correlation clustering ---------------------------------------

// Oracle: enumerate all partitions of <= 10 elements via restricted growth
// strings.
std::int64_t best_score_bruteforce(const Graph& g) {
  const int n = g.num_vertices();
  std::vector<int> labels(n, 0);
  std::int64_t best = -1;
  // Restricted growth: labels[i] <= max(labels[0..i-1]) + 1.
  std::function<void(int, int)> rec = [&](int i, int max_label) {
    if (i == n) {
      best = std::max(best, agreement_score(g, labels));
      return;
    }
    for (int l = 0; l <= max_label + 1; ++l) {
      labels[i] = l;
      rec(i + 1, std::max(max_label, l));
    }
  };
  rec(0, -1);
  return best;
}

TEST(CorrelationExact, MatchesPartitionEnumeration) {
  Rng rng(7);
  for (int trial = 0; trial < 25; ++trial) {
    const int n = 4 + static_cast<int>(rng() % 5);  // 4..8
    Graph base = graph::erdos_renyi(n, 0.5, rng);
    std::vector<graph::EdgeSign> signs(base.num_edges());
    for (auto& s : signs) {
      s = (rng() & 1) ? graph::EdgeSign::kPositive
                      : graph::EdgeSign::kNegative;
    }
    const Graph g = base.with_signs(std::move(signs));
    const auto exact = correlation_exact(g);
    EXPECT_EQ(agreement_score(g, exact), best_score_bruteforce(g))
        << "trial " << trial;
  }
}

TEST(CorrelationExact, AllPositiveMeansOneCluster) {
  const Graph g = graph::complete(6);  // unsigned = all positive
  const auto c = correlation_exact(g);
  for (int l : c) EXPECT_EQ(l, c[0]);
  EXPECT_EQ(agreement_score(g, c), g.num_edges());
}

TEST(CorrelationExact, AllNegativeMeansSingletons) {
  Graph base = graph::complete(6);
  const Graph g = base.with_signs(std::vector<graph::EdgeSign>(
      base.num_edges(), graph::EdgeSign::kNegative));
  const auto c = correlation_exact(g);
  std::vector<int> sorted(c);
  std::sort(sorted.begin(), sorted.end());
  EXPECT_EQ(std::unique(sorted.begin(), sorted.end()) - sorted.begin(), 6);
  EXPECT_EQ(agreement_score(g, c), g.num_edges());
}

TEST(CorrelationLocalSearch, AtLeastTrivialBaselines) {
  Rng rng(8);
  for (int trial = 0; trial < 10; ++trial) {
    Graph base = graph::random_maximal_planar(60, rng);
    const Graph g =
        base.with_signs(graph::planted_signs(base, 8, 0.2, rng));
    const auto c = correlation_local_search(g);
    Clustering singles(g.num_vertices());
    std::iota(singles.begin(), singles.end(), 0);
    const auto trivial =
        std::max(agreement_score(g, singles),
                 agreement_score(g, Clustering(g.num_vertices(), 0)));
    EXPECT_GE(agreement_score(g, c), trivial);
  }
}

TEST(CorrelationScore, CountsAgreements) {
  // Path + - : clustering {0,1},{2} agrees with both edges.
  Graph g = graph::path(3).with_signs(
      {graph::EdgeSign::kPositive, graph::EdgeSign::kNegative});
  EXPECT_EQ(agreement_score(g, {0, 0, 1}), 2);
  EXPECT_EQ(agreement_score(g, {0, 0, 0}), 1);
  EXPECT_EQ(agreement_score(g, {0, 1, 2}), 1);
}

// ---------------- Edge separators ------------------------------------------------

TEST(Separator, BalancedByConstruction) {
  Rng rng(9);
  for (int trial = 0; trial < 8; ++trial) {
    const Graph g = graph::random_maximal_planar(100, rng);
    const auto r = edge_separator(g, rng);
    EXPECT_GE(r.smaller_side, g.num_vertices() / 3);
    // Reported cut matches the indicator.
    int cut = 0;
    for (const graph::Edge& e : g.edges()) {
      cut += r.in_s[e.u] != r.in_s[e.v];
    }
    EXPECT_EQ(cut, r.cut_size);
  }
}

TEST(Separator, NearOptimalOnSmallGraphs) {
  Rng rng(10);
  for (int trial = 0; trial < 10; ++trial) {
    const Graph g = graph::random_planar(12, 20, rng);
    const auto heuristic = edge_separator(g, rng, 6);
    const auto exact = edge_separator_bruteforce(g);
    EXPECT_LE(heuristic.cut_size, 2 * exact.cut_size + 2) << "trial " << trial;
    EXPECT_GE(exact.smaller_side, g.num_vertices() / 3);
  }
}

TEST(Separator, GridScalesAsSqrtN) {
  Rng rng(11);
  const auto r16 = edge_separator(graph::grid(16, 16), rng);
  const auto r32 = edge_separator(graph::grid(32, 32), rng);
  // Quadrupling n should roughly double the cut, not quadruple it.
  EXPECT_LE(r32.cut_size, 3 * r16.cut_size);
}

// ---------------- Sequential LDD ----------------------------------------------------

TEST(SequentialLdd, BoundsOnFamilies) {
  Rng rng(12);
  for (double eps : {0.1, 0.2, 0.4}) {
    for (int fam = 0; fam < 3; ++fam) {
      const Graph g = fam == 0   ? graph::grid(18, 18)
                      : fam == 1 ? graph::random_maximal_planar(300, rng)
                                 : graph::cycle(300);
      const auto r = ldd_minor_free(g, eps, rng);
      EXPECT_LE(r.cut_edges, eps * g.num_edges() + 1e-9)
          << "fam=" << fam << " eps=" << eps;
      EXPECT_LE(ldd_max_diameter(g, r.cluster_of), 40.0 / eps)
          << "fam=" << fam << " eps=" << eps;
    }
  }
}

TEST(SequentialLdd, LabelsAreDenseAndCountMatches) {
  Rng rng(13);
  const Graph g = graph::random_planar(200, 350, rng);
  const auto r = ldd_minor_free(g, 0.25, rng);
  std::vector<bool> seen(r.num_clusters, false);
  for (int c : r.cluster_of) {
    ASSERT_GE(c, 0);
    ASSERT_LT(c, r.num_clusters);
    seen[c] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(SequentialLdd, RejectsBadEps) {
  Rng rng(14);
  const Graph g = graph::path(4);
  EXPECT_THROW(ldd_minor_free(g, 0.0, rng), std::invalid_argument);
  EXPECT_THROW(ldd_minor_free(g, 1.5, rng), std::invalid_argument);
}

}  // namespace
}  // namespace ecd::seq
