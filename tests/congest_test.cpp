#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <random>
#include <set>
#include <stdexcept>
#include <string>

#include "src/congest/network.h"
#include "src/congest/primitives.h"
#include "src/congest/round_ledger.h"
#include "src/expander/decomposition.h"
#include "src/graph/generators.h"
#include "src/graph/metrics.h"

namespace ecd::congest {
namespace {

using graph::Graph;
using graph::Rng;
using graph::VertexId;

// A toy algorithm that sends its id once and stops.
class PingAlgo final : public VertexAlgorithm {
 public:
  void round(Context& ctx) override {
    if (ctx.round() == 0) {
      for (int p = 0; p < ctx.num_ports(); ++p) ctx.send(p, {{ctx.id()}});
      return;
    }
    for (int p = 0; p < ctx.num_ports(); ++p) {
      for (const Message& m : ctx.inbox(p)) {
        received_.push_back(m.words[0]);
        EXPECT_EQ(m.words[0], ctx.neighbor(p));  // delivery on the right port
      }
    }
    done_ = true;
  }
  bool finished() const override { return done_; }
  const std::vector<std::int64_t>& received() const { return received_; }

 private:
  bool done_ = false;
  std::vector<std::int64_t> received_;
};

TEST(Network, DeliversMessagesOnCorrectPorts) {
  Graph g = graph::cycle(6);
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  std::vector<PingAlgo*> typed;
  for (int v = 0; v < 6; ++v) {
    auto a = std::make_unique<PingAlgo>();
    typed.push_back(a.get());
    algos.push_back(std::move(a));
  }
  Network net(g);
  const RunStats stats = net.run(algos);
  EXPECT_EQ(stats.rounds, 2);
  EXPECT_EQ(stats.messages_sent, 12);
  for (auto* a : typed) EXPECT_EQ(a->received().size(), 2u);
}

class SpammerAlgo final : public VertexAlgorithm {
 public:
  void round(Context& ctx) override {
    // Two messages on the same port in one round: must violate bandwidth.
    ctx.send(0, {{1}});
    ctx.send(0, {{2}});
    done_ = true;
  }
  bool finished() const override { return done_; }

 private:
  bool done_ = false;
};

TEST(Network, EnforcesPerEdgeBandwidth) {
  Graph g = graph::path(2);
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  algos.push_back(std::make_unique<SpammerAlgo>());
  algos.push_back(std::make_unique<SpammerAlgo>());
  Network net(g);
  EXPECT_THROW(net.run(algos), CongestionError);
}

TEST(Network, LocalModeAllowsSpam) {
  Graph g = graph::path(2);
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  algos.push_back(std::make_unique<SpammerAlgo>());
  algos.push_back(std::make_unique<SpammerAlgo>());
  NetworkOptions opt;
  opt.enforce_bandwidth = false;
  Network net(g, opt);
  EXPECT_NO_THROW(net.run(algos));
}

class FatMessageAlgo final : public VertexAlgorithm {
 public:
  void round(Context& ctx) override {
    Message m;
    m.words.assign(kMaxMessageWords + 1, 7);
    ctx.send(0, std::move(m));
    done_ = true;
  }
  bool finished() const override { return done_; }

 private:
  bool done_ = false;
};

TEST(Network, EnforcesMessageSize) {
  Graph g = graph::path(2);
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  algos.push_back(std::make_unique<FatMessageAlgo>());
  algos.push_back(std::make_unique<FatMessageAlgo>());
  Network net(g);
  EXPECT_THROW(net.run(algos), CongestionError);
}

std::vector<int> single_cluster(const Graph& g) {
  return std::vector<int>(g.num_vertices(), 0);
}

TEST(LeaderElection, PicksMaxDegreeMaxIdVertex) {
  Graph g = graph::star(5);  // center 0 has degree 5
  const auto r = elect_cluster_leaders(g, single_cluster(g));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(r.leader_of[v], 0);
  }
}

TEST(LeaderElection, TieBreaksById) {
  Graph g = graph::cycle(7);  // all degree 2: highest id wins
  const auto r = elect_cluster_leaders(g, single_cluster(g));
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(r.leader_of[v], 6);
  }
}

TEST(LeaderElection, RespectsClusterBoundaries) {
  Graph g = graph::path(6);
  std::vector<int> cluster{0, 0, 0, 1, 1, 1};
  const auto r = elect_cluster_leaders(g, cluster);
  // Cluster {0,1,2}: vertex 1 has intra-degree 2 -> leader 1.
  EXPECT_EQ(r.leader_of[0], 1);
  EXPECT_EQ(r.leader_of[1], 1);
  EXPECT_EQ(r.leader_of[2], 1);
  // Cluster {3,4,5}: vertex 4 has intra-degree 2 -> leader 4.
  EXPECT_EQ(r.leader_of[5], 4);
}

TEST(LeaderElection, RoundsTrackClusterDiameter) {
  Graph g = graph::path(40);
  const auto r = elect_cluster_leaders(g, single_cluster(g));
  // Information must traverse the path: rounds >= diameter.
  EXPECT_GE(r.stats.rounds, 39);
  EXPECT_LE(r.stats.rounds, 39 + 3);
}

TEST(BfsTree, DepthsMatchBfsDistances) {
  Rng rng(3);
  Graph g = graph::random_maximal_planar(60, rng);
  const auto leaders = elect_cluster_leaders(g, single_cluster(g));
  const auto tree =
      build_cluster_bfs_trees(g, single_cluster(g), leaders.leader_of);
  const auto dist = graph::bfs_distances(g, leaders.leader_of[0]);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(tree.depth[v], dist[v]) << "v=" << v;
    if (v != leaders.leader_of[0]) {
      ASSERT_NE(tree.parent[v], graph::kInvalidVertex);
      EXPECT_EQ(tree.depth[tree.parent[v]], tree.depth[v] - 1);
    }
  }
}

TEST(Orientation, OutDegreeBounded) {
  Rng rng(5);
  Graph g = graph::random_maximal_planar(150, rng);
  const int threshold = graph::degeneracy(g).degeneracy;  // <= 5 planar
  const auto r = orient_cluster_edges(g, single_cluster(g), threshold);
  EXPECT_LE(r.max_out_degree, threshold);
  // Every intra-cluster edge owned exactly once.
  std::vector<int> owners(g.num_edges(), 0);
  for (const auto& list : r.owned) {
    for (graph::EdgeId e : list) ++owners[e];
  }
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    EXPECT_EQ(owners[e], 1) << "edge " << e;
  }
}

TEST(Orientation, PhasesLogarithmic) {
  Rng rng(7);
  Graph g = graph::random_maximal_planar(500, rng);
  const auto r = orient_cluster_edges(g, single_cluster(g), 5);
  EXPECT_LE(r.peeling_phases, 40);  // O(log n) with a generous constant
}

TEST(Orientation, RespectsClusters) {
  Graph g = graph::path(6);
  std::vector<int> cluster{0, 0, 0, 1, 1, 1};
  const auto r = orient_cluster_edges(g, cluster, 2);
  std::vector<int> owners(g.num_edges(), 0);
  for (const auto& list : r.owned) {
    for (graph::EdgeId e : list) ++owners[e];
  }
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const graph::Edge ed = g.edge(e);
    EXPECT_EQ(owners[e], cluster[ed.u] == cluster[ed.v] ? 1 : 0);
  }
}

TEST(Gather, AllTokensReachLeader) {
  Rng rng(9);
  Graph g = graph::random_maximal_planar(40, rng);
  const auto cluster = single_cluster(g);
  const auto leaders = elect_cluster_leaders(g, cluster);
  std::vector<std::vector<GatherToken>> tokens(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    tokens[v].push_back({v, {v, 1000 + v}});
  }
  GatherOptions opt;
  opt.net.bandwidth_tokens = 4;
  const auto r = random_walk_gather(g, cluster, leaders.leader_of, tokens, opt);
  ASSERT_TRUE(r.complete);
  ASSERT_EQ(r.delivered.size(), 1u);
  EXPECT_EQ(r.delivered[0].size(), static_cast<std::size_t>(g.num_vertices()));
  // Payloads intact.
  std::vector<bool> seen(g.num_vertices(), false);
  for (const auto& payload : r.delivered[0]) {
    ASSERT_EQ(payload.size(), 2u);
    EXPECT_EQ(payload[1], 1000 + payload[0]);
    seen[payload[0]] = true;
  }
  for (bool s : seen) EXPECT_TRUE(s);
}

TEST(Gather, WorksPerClusterInParallel) {
  Graph g = graph::grid(4, 8);
  std::vector<int> cluster(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) cluster[v] = (v % 8) / 4;
  const auto leaders = elect_cluster_leaders(g, cluster);
  std::vector<std::vector<GatherToken>> tokens(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    tokens[v].push_back({v, {v}});
  }
  GatherOptions opt;
  opt.net.bandwidth_tokens = 4;
  const auto r = random_walk_gather(g, cluster, leaders.leader_of, tokens, opt);
  ASSERT_TRUE(r.complete);
  EXPECT_EQ(r.delivered[0].size() + r.delivered[1].size(),
            static_cast<std::size_t>(g.num_vertices()));
  for (const auto& payload : r.delivered[0]) {
    EXPECT_EQ(cluster[payload[0]], 0);
  }
}

TEST(Broadcast, EveryVertexLearnsLeaderValue) {
  Graph g = graph::grid(5, 5);
  const auto cluster = single_cluster(g);
  const auto leaders = elect_cluster_leaders(g, cluster);
  std::vector<std::int64_t> values(g.num_vertices(), 0);
  values[leaders.leader_of[0]] = 42;
  const auto r = broadcast_from_leaders(g, cluster, leaders.leader_of, values);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_EQ(r.value[v], 42);
  }
}

TEST(DiameterCheck, AcceptsTightClusters) {
  Graph g = graph::grid(4, 4);  // diameter 6
  const auto r = check_cluster_diameter(g, single_cluster(g), 6);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    EXPECT_TRUE(r.within_bound[v]);
  }
}

TEST(DiameterCheck, FlagsWideClusters) {
  Graph g = graph::path(30);  // diameter 29 >> 2*3+1
  const auto r = check_cluster_diameter(g, single_cluster(g), 3);
  int flagged = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    flagged += !r.within_bound[v];
  }
  EXPECT_GT(flagged, 0);
}

TEST(ReverseDelivery, RepliesFollowRecordedPathsBackwards) {
  Rng rng(19);
  Graph g = graph::random_maximal_planar(40, rng);
  const auto cluster = single_cluster(g);
  const auto leaders = elect_cluster_leaders(g, cluster);
  std::vector<std::vector<GatherToken>> tokens(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    tokens[v].push_back({v, {v}});
  }
  GatherOptions opt;
  opt.net.bandwidth_tokens = 3;
  const auto gather =
      random_walk_gather(g, cluster, leaders.leader_of, tokens, opt);
  ASSERT_TRUE(gather.complete);
  // Reply to every token with 1000 + origin.
  std::vector<std::vector<std::int64_t>> reply(gather.traces.size());
  for (std::size_t id = 0; id < gather.traces.size(); ++id) {
    reply[id] = {1000 + gather.traces[id].origin};
  }
  const auto r = reverse_delivery(g.num_vertices(), gather, reply, 3);
  EXPECT_TRUE(r.load_ok);
  EXPECT_LE(r.stats.rounds, gather.stats.rounds);
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    ASSERT_EQ(r.received[v].size(), 1u) << "vertex " << v;
    EXPECT_EQ(r.received[v][0][0], 1000 + v);
  }
  // One reverse message per recorded hop of the replied tokens, and every
  // recorded trace is loop-erased: no vertex repeats on it.
  std::int64_t hops = 0;
  for (const TokenTrace& t : gather.traces) {
    hops += static_cast<std::int64_t>(t.hop_round.size());
    const std::set<VertexId> distinct(t.visited.begin(), t.visited.end());
    EXPECT_EQ(distinct.size(), t.visited.size()) << "token from " << t.origin;
  }
  EXPECT_EQ(r.stats.messages_sent, hops);
  EXPECT_LT(r.stats.messages_sent, gather.stats.messages_sent);
}

TEST(ReverseDelivery, PartialRepliesSkipUnansweredTokens) {
  Rng rng(20);
  Graph g = graph::grid(5, 5);
  const auto cluster = single_cluster(g);
  const auto leaders = elect_cluster_leaders(g, cluster);
  std::vector<std::vector<GatherToken>> tokens(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    tokens[v].push_back({v, {v}});
  }
  GatherOptions opt;
  opt.net.bandwidth_tokens = 4;
  const auto gather =
      random_walk_gather(g, cluster, leaders.leader_of, tokens, opt);
  ASSERT_TRUE(gather.complete);
  std::vector<std::vector<std::int64_t>> reply(gather.traces.size());
  reply[0] = {7};  // only token 0 gets a reply
  const auto r = reverse_delivery(g.num_vertices(), gather, reply, 4);
  EXPECT_TRUE(r.load_ok);
  int delivered = 0;
  for (const auto& per_vertex : r.received) {
    delivered += static_cast<int>(per_vertex.size());
  }
  EXPECT_EQ(delivered, 1);
  EXPECT_EQ(r.received[gather.traces[0].origin][0][0], 7);
}

// Two reverse hops on different directed edges in the same round, with a
// vertex id of 2^20: a load counter keyed on `round << 40 ^ from << 20 ^ to`
// would fold (1 -> 0) and (0 -> 2^20) into one key and report load 2.
GatherResult two_hop_gather(VertexId a_from, VertexId a_to, VertexId b_from,
                            VertexId b_to) {
  GatherResult gather;
  gather.stats.rounds = 1;
  gather.bandwidth = 1;
  gather.traces.resize(2);
  gather.traces[0].origin = a_from;
  gather.traces[0].visited = {a_from, a_to};
  gather.traces[0].hop_round = {0};
  gather.traces[1].origin = b_from;
  gather.traces[1].visited = {b_from, b_to};
  gather.traces[1].hop_round = {0};
  return gather;
}

// The recorded trace is the chronological loop erasure of the walk: a hop
// onto a vertex already on the path cuts the path back to it. Checked
// against a naive erasure that scans the path on every hop, on walks that
// go back and forth on a line, circle back to the origin on a cycle, and
// wander a planar graph. The long line and the grid grow paths past 64
// vertices, so the index table is rebuilt at several sizes.
TEST(TracePathIndex, MatchesNaiveLoopErasureOfRandomWalks) {
  Rng rng(37);
  const Graph planar = graph::random_maximal_planar(30, rng);
  const std::vector<Graph> graphs = {graph::path(5), graph::cycle(6), planar,
                                     graph::path(200), graph::grid(12, 12)};
  std::mt19937_64 walk_rng(41);
  int returns_to_origin = 0;
  std::size_t longest = 0;
  for (const Graph& g : graphs) {
    for (int walk = 0; walk < 40; ++walk) {
      const auto origin = static_cast<VertexId>(
          walk_rng() % static_cast<std::uint64_t>(g.num_vertices()));
      TokenTrace trace;
      trace.origin = origin;
      trace.visited = {origin};
      TracePathIndex index;
      std::vector<VertexId> naive_path = {origin};
      std::vector<std::int64_t> naive_rounds;
      VertexId at = origin;
      for (std::int64_t round = 0; round < 3000; ++round) {
        const auto nbrs = g.neighbors(at);
        at = nbrs[walk_rng() % nbrs.size()];
        index.record_hop(trace, at, round);
        const auto k = std::find(naive_path.begin(), naive_path.end(), at);
        if (k == naive_path.end()) {
          naive_path.push_back(at);
          naive_rounds.push_back(round);
        } else {
          naive_path.erase(k + 1, naive_path.end());
          naive_rounds.resize(naive_path.size() - 1);
          returns_to_origin += naive_path.size() == 1;
        }
        ASSERT_EQ(trace.visited, naive_path) << "round " << round;
        ASSERT_EQ(trace.hop_round, naive_rounds) << "round " << round;
        longest = std::max(longest, naive_path.size());
      }
      // A reset trace restarts at its origin with a dropped index.
      trace.visited = {origin};
      trace.hop_round.clear();
      index.clear();
      const VertexId next = g.neighbors(origin)[0];
      index.record_hop(trace, next, 0);
      index.record_hop(trace, origin, 1);
      EXPECT_EQ(trace.visited, std::vector<VertexId>{origin});
      EXPECT_TRUE(trace.hop_round.empty());
    }
  }
  EXPECT_GT(returns_to_origin, 0);
  EXPECT_GT(longest, std::size_t{64});
}

// Guard on the loop erasure: on a 16×16 grid, Theorem 2.6's token mix walks
// hundreds of thousands of hops, and the recorded paths keep under a tenth
// of them.
TEST(ReverseDelivery, TraceHopsStayFarBelowWalkMessages) {
  const Graph g = graph::grid(16, 16);
  const auto cluster = single_cluster(g);
  const auto leaders = elect_cluster_leaders(g, cluster);
  std::vector<std::vector<GatherToken>> tokens(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    tokens[v].push_back({v, {v, -1, 0, 0}});
  }
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const graph::Edge ed = g.edge(e);
    tokens[ed.u].push_back({ed.u, {ed.u, ed.v, 1, 1}});
  }
  GatherOptions opt;
  opt.net.bandwidth_tokens = 8;
  const auto gather =
      random_walk_gather(g, cluster, leaders.leader_of, tokens, opt);
  ASSERT_TRUE(gather.complete);
  std::int64_t hops = 0;
  for (const TokenTrace& t : gather.traces) {
    hops += static_cast<std::int64_t>(t.hop_round.size());
  }
  EXPECT_LT(hops, gather.stats.messages_sent / 10)
      << hops << " trace hops, " << gather.stats.messages_sent << " messages";
}

TEST(ReverseDelivery, DistinctEdgesNeverShareALoadCounter) {
  constexpr VertexId kHigh = VertexId{1} << 20;
  const GatherResult gather = two_hop_gather(0, 1, kHigh, 0);
  const std::vector<std::vector<std::int64_t>> reply = {{5}, {6}};
  const auto r = reverse_delivery(kHigh + 1, gather, reply, gather.bandwidth);
  EXPECT_TRUE(r.load_ok);
  EXPECT_EQ(r.stats.max_edge_load, 1);
  EXPECT_EQ(r.stats.rounds, 1);
  EXPECT_EQ(r.stats.messages_sent, 2);
  ASSERT_EQ(r.received[0].size(), 1u);
  EXPECT_EQ(r.received[0][0][0], 5);
  ASSERT_EQ(r.received[kHigh].size(), 1u);
  EXPECT_EQ(r.received[kHigh][0][0], 6);
}

TEST(ReverseDelivery, SameEdgeSameRoundOverBudgetIsCaught) {
  const GatherResult gather = two_hop_gather(0, 1, 0, 1);
  const std::vector<std::vector<std::int64_t>> reply = {{5}, {6}};
  const auto r = reverse_delivery(2, gather, reply, gather.bandwidth);
  EXPECT_FALSE(r.load_ok);
  EXPECT_EQ(r.stats.max_edge_load, 2);
  // Opposite directions of one edge are separate budgets.
  const auto opposite =
      reverse_delivery(2, two_hop_gather(0, 1, 1, 0), reply, 1);
  EXPECT_TRUE(opposite.load_ok);
  EXPECT_EQ(opposite.stats.max_edge_load, 1);
}

TEST(Gather, RejectsPayloadsThatLeaveNoWordForTheTokenId) {
  Graph g = graph::grid(3, 3);
  const auto cluster = single_cluster(g);
  const auto leaders = elect_cluster_leaders(g, cluster);
  std::vector<std::vector<GatherToken>> tokens(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    tokens[v].push_back(
        {v, std::vector<std::int64_t>(kMaxMessageWords - 1, v)});
  }
  EXPECT_TRUE(
      random_walk_gather(g, cluster, leaders.leader_of, tokens).complete);
  tokens[4].push_back({4, std::vector<std::int64_t>(kMaxMessageWords, 1)});
  const auto expect_rejected = [](const auto& call) {
    try {
      call();
      ADD_FAILURE() << "oversized payload accepted";
    } catch (const std::invalid_argument& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find("origin 4"), std::string::npos) << what;
      EXPECT_NE(what.find(std::to_string(kMaxMessageWords) + " payload words"),
                std::string::npos)
          << what;
    }
  };
  expect_rejected(
      [&] { random_walk_gather(g, cluster, leaders.leader_of, tokens); });
  expect_rejected(
      [&] { reliable_walk_gather(g, cluster, leaders.leader_of, tokens); });
  const auto tree = build_cluster_bfs_trees(g, cluster, leaders.leader_of);
  expect_rejected([&] {
    tree_gather(g, cluster, leaders.leader_of, tree.parent, tokens);
  });
}

TEST(TreeGather, DeliversAllTokensDeterministically) {
  Rng rng(21);
  Graph g = graph::random_maximal_planar(50, rng);
  const auto cluster = single_cluster(g);
  const auto leaders = elect_cluster_leaders(g, cluster);
  const auto tree = build_cluster_bfs_trees(g, cluster, leaders.leader_of);
  std::vector<std::vector<GatherToken>> tokens(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    tokens[v].push_back({v, {v, 7 * v}});
  }
  NetworkOptions net;
  net.bandwidth_tokens = 2;
  const auto r = tree_gather(g, cluster, leaders.leader_of, tree.parent,
                             tokens, net);
  ASSERT_TRUE(r.complete);
  EXPECT_EQ(r.delivered[0].size(), static_cast<std::size_t>(g.num_vertices()));
  for (const auto& payload : r.delivered[0]) {
    EXPECT_EQ(payload[1], 7 * payload[0]);
  }
  // Determinism: a second run delivers in the same number of rounds.
  const auto r2 = tree_gather(g, cluster, leaders.leader_of, tree.parent,
                              tokens, net);
  EXPECT_EQ(r.stats.rounds, r2.stats.rounds);
}

TEST(TreeGather, RootCongestionCostsRounds) {
  // On a path rooted at one end, all n tokens serialize over the root edge:
  // rounds ~ n at bandwidth 1 — the congestion Lemma 2.5 is designed to
  // beat.
  Graph g = graph::path(40);
  std::vector<int> cluster(40, 0);
  std::vector<VertexId> leader(40, 0);
  std::vector<VertexId> parent(40);
  parent[0] = graph::kInvalidVertex;
  for (VertexId v = 1; v < 40; ++v) parent[v] = v - 1;
  std::vector<std::vector<GatherToken>> tokens(40);
  for (VertexId v = 0; v < 40; ++v) tokens[v].push_back({v, {v}});
  const auto r = tree_gather(g, cluster, leader, parent, tokens);
  ASSERT_TRUE(r.complete);
  EXPECT_GE(r.stats.rounds, 39);
}

TEST(Convergecast, SumsValuesPerCluster) {
  Graph g = graph::grid(6, 6);
  const auto cluster = single_cluster(g);
  const auto leaders = elect_cluster_leaders(g, cluster);
  const auto tree = build_cluster_bfs_trees(g, cluster, leaders.leader_of);
  std::vector<std::int64_t> values(g.num_vertices());
  std::int64_t expected = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    values[v] = v * v + 1;
    expected += values[v];
  }
  const auto r = convergecast_sum(g, cluster, leaders.leader_of, tree.parent,
                                  tree.depth, values);
  ASSERT_EQ(r.sum.size(), 1u);
  EXPECT_EQ(r.sum[0], expected);
}

TEST(Convergecast, MultiClusterSums) {
  Graph g = graph::path(6);
  std::vector<int> cluster{0, 0, 0, 1, 1, 1};
  const auto leaders = elect_cluster_leaders(g, cluster);
  const auto tree = build_cluster_bfs_trees(g, cluster, leaders.leader_of);
  std::vector<std::int64_t> values{1, 2, 4, 8, 16, 32};
  const auto r = convergecast_sum(g, cluster, leaders.leader_of, tree.parent,
                                  tree.depth, values);
  ASSERT_EQ(r.sum.size(), 2u);
  EXPECT_EQ(r.sum[0], 7);
  EXPECT_EQ(r.sum[1], 56);
}

TEST(Gather, ReportsIncompleteOnRoundCap) {
  Rng rng(23);
  Graph g = graph::random_maximal_planar(60, rng);
  const auto cluster = single_cluster(g);
  const auto leaders = elect_cluster_leaders(g, cluster);
  std::vector<std::vector<GatherToken>> tokens(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    tokens[v].push_back({v, {v}});
  }
  GatherOptions opt;
  opt.net.max_rounds = 2;  // far too few: the run aborts mid-delivery
  EXPECT_THROW(
      random_walk_gather(g, cluster, leaders.leader_of, tokens, opt),
      std::runtime_error);
}

TEST(RoundLedger, SeparatesMeasuredFromModeled) {
  RoundLedger ledger;
  ledger.add_measured("gather", 10);
  ledger.add_modeled("decomposition", 100);
  ledger.add_measured("broadcast", 5);
  EXPECT_EQ(ledger.measured_total(), 15);
  EXPECT_EQ(ledger.modeled_total(), 100);
  EXPECT_EQ(ledger.total(), 115);
  RoundLedger other;
  other.add_measured("extra", 1);
  ledger.merge(other);
  EXPECT_EQ(ledger.measured_total(), 16);
  EXPECT_NE(ledger.to_string().find("[modeled]"), std::string::npos);
}

TEST(RoundLedger, AddMeasuredFromStatsRecordsTraffic) {
  RunStats stats;
  stats.rounds = 12;
  stats.messages_sent = 340;
  stats.words_sent = 900;
  stats.max_edge_load = 3;
  RoundLedger ledger;
  ledger.add_measured("walk gather", stats);
  EXPECT_EQ(ledger.measured_total(), 12);
  ASSERT_EQ(ledger.entries().size(), 1u);
  const auto& e = ledger.entries()[0];
  EXPECT_TRUE(e.measured);
  EXPECT_EQ(e.stats.rounds, 12);
  EXPECT_EQ(e.stats.messages_sent, 340);
  EXPECT_EQ(e.stats.words_sent, 900);
  EXPECT_EQ(e.stats.max_edge_load, 3);
}

TEST(RoundLedger, MergePreservesTrafficStats) {
  RunStats stats;
  stats.rounds = 4;
  stats.messages_sent = 10;
  stats.words_sent = 25;
  stats.max_edge_load = 2;
  RoundLedger other;
  other.add_measured("election", stats);
  other.add_modeled("decomposition", 50);
  RoundLedger ledger;
  ledger.add_measured("setup", 1);
  ledger.merge(other);
  EXPECT_EQ(ledger.measured_total(), 5);
  EXPECT_EQ(ledger.modeled_total(), 50);
  ASSERT_EQ(ledger.entries().size(), 3u);
  EXPECT_EQ(ledger.entries()[1].stats.messages_sent, 10);
  EXPECT_EQ(ledger.entries()[1].stats.words_sent, 25);
  EXPECT_EQ(ledger.entries()[1].stats.max_edge_load, 2);
}

TEST(RoundLedger, ToStringShowsTrafficOnlyWhenRecorded) {
  RunStats stats;
  stats.rounds = 2;
  stats.messages_sent = 7;
  stats.words_sent = 14;
  stats.max_edge_load = 1;
  RoundLedger ledger;
  ledger.add_measured("plain", 3);
  ledger.add_measured("traced", stats);
  const std::string text = ledger.to_string();
  EXPECT_NE(text.find("msgs=7 words=14 max-edge-load=1"), std::string::npos)
      << text;
  // The stats-free entry stays on the old compact format.
  const auto plain_pos = text.find("plain");
  const auto traced_pos = text.find("traced");
  ASSERT_NE(plain_pos, std::string::npos);
  ASSERT_NE(traced_pos, std::string::npos);
  EXPECT_EQ(text.substr(plain_pos, traced_pos - plain_pos).find("msgs="),
            std::string::npos);
}

TEST(RoundLedger, ModeledFormulaGrowsWithNAndShrinkingEps) {
  EXPECT_LT(modeled_decomposition_rounds(1000, 0.2, false),
            modeled_decomposition_rounds(100000, 0.2, false));
  EXPECT_LT(modeled_decomposition_rounds(1000, 0.2, false),
            modeled_decomposition_rounds(1000, 0.05, false));
  // Deterministic formula is subpolynomial but larger than polylog.
  EXPECT_GT(modeled_decomposition_rounds(100000, 0.2, true),
            modeled_decomposition_rounds(100000, 0.2, false));
}

// Integration: primitives run on decomposition clusters under strict
// CONGEST enforcement (bandwidth 1 token/edge/round for control traffic).
// The primitives run unchanged under parallel execution: leader election,
// BFS trees, and orientation at num_threads=4 must produce bit-identical
// outputs and RunStats to the serial path (the TSan CI job runs this test
// to prove the sharded round loop is race-free on real protocol traffic).
TEST(Integration, PrimitivesAreBitIdenticalUnderParallelExecution) {
  Rng rng(31);
  const Graph g = graph::random_maximal_planar(128, rng);
  std::vector<int> cluster(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) cluster[v] = v % 2;

  NetworkOptions parallel_net;
  parallel_net.num_threads = 4;

  const auto serial_leaders = elect_cluster_leaders(g, cluster);
  const auto par_leaders = elect_cluster_leaders(g, cluster, parallel_net);
  EXPECT_EQ(par_leaders.leader_of, serial_leaders.leader_of);
  EXPECT_EQ(par_leaders.stats.rounds, serial_leaders.stats.rounds);
  EXPECT_EQ(par_leaders.stats.messages_sent, serial_leaders.stats.messages_sent);
  EXPECT_EQ(par_leaders.stats.words_sent, serial_leaders.stats.words_sent);
  EXPECT_EQ(par_leaders.stats.max_edge_load, serial_leaders.stats.max_edge_load);

  const auto serial_tree =
      build_cluster_bfs_trees(g, cluster, serial_leaders.leader_of);
  const auto par_tree = build_cluster_bfs_trees(g, cluster,
                                                par_leaders.leader_of,
                                                parallel_net);
  EXPECT_EQ(par_tree.parent, serial_tree.parent);
  EXPECT_EQ(par_tree.depth, serial_tree.depth);
  EXPECT_EQ(par_tree.stats.messages_sent, serial_tree.stats.messages_sent);

  const auto serial_orient = orient_cluster_edges(g, cluster, 5);
  const auto par_orient = orient_cluster_edges(g, cluster, 5, parallel_net);
  EXPECT_EQ(par_orient.owned, serial_orient.owned);
  EXPECT_EQ(par_orient.max_out_degree, serial_orient.max_out_degree);
  EXPECT_EQ(par_orient.stats.messages_sent, serial_orient.stats.messages_sent);
}

TEST(Integration, PrimitivesOnDecomposedGrid) {
  Graph g = graph::grid(10, 10);
  const auto d = expander::expander_decompose(g, 0.25);
  const auto leaders = elect_cluster_leaders(g, d.cluster_of);
  const auto tree = build_cluster_bfs_trees(g, d.cluster_of, leaders.leader_of);
  const auto orient = orient_cluster_edges(g, d.cluster_of, 4);
  // Gather each owned edge to the leader: reconstruct every cluster's edges.
  std::vector<std::vector<GatherToken>> tokens(g.num_vertices());
  std::int64_t expected_edges = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    for (graph::EdgeId e : orient.owned[v]) {
      tokens[v].push_back({v, {g.edge(e).u, g.edge(e).v}});
      ++expected_edges;
    }
  }
  GatherOptions opt;
  opt.net.bandwidth_tokens = 7;  // ceil(log2 n), the Lemma 2.4 batch size
  const auto r = random_walk_gather(g, d.cluster_of, leaders.leader_of,
                                    tokens, opt);
  ASSERT_TRUE(r.complete);
  std::int64_t received = 0;
  for (const auto& cluster_msgs : r.delivered) {
    received += static_cast<std::int64_t>(cluster_msgs.size());
    for (const auto& payload : cluster_msgs) {
      // Every delivered edge is intra-cluster.
      EXPECT_EQ(d.cluster_of[payload[0]], d.cluster_of[payload[1]]);
    }
  }
  EXPECT_EQ(received, expected_edges);
  EXPECT_GT(tree.stats.rounds, 0);
}

}  // namespace
}  // namespace ecd::congest
