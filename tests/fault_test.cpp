// Deterministic fault injection (DESIGN.md §12).
//
// The load-bearing property is the determinism contract: a fault schedule is
// a pure function of (FaultPlan::seed, round, port, slot), so two runs with
// the same plan — at any thread count — deliver, drop, duplicate, and delay
// exactly the same messages. The first suite pins that down with
// field-by-field RunStats comparisons across num_threads in {1, 2, 4, 8};
// later suites cover crash-stop semantics and the reliable gather built on
// top of the faulty substrate.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "src/congest/fault.h"
#include "src/congest/network.h"
#include "src/congest/primitives.h"
#include "src/core/framework.h"
#include "src/graph/generators.h"
#include "src/graph/graph.h"

namespace ecd {
namespace {

using congest::CrashEvent;
using congest::FaultPlan;
using congest::Message;
using congest::Network;
using congest::NetworkOptions;
using congest::RunStats;
using congest::VertexAlgorithm;
using graph::Graph;
using graph::VertexId;

// Every vertex sends its id to every neighbor each round for a fixed number
// of rounds, accumulating a digest of everything it receives. Termination is
// by round count, so the algorithm tolerates arbitrary message faults — the
// digest changes, the protocol does not wedge.
class ChatterAlgo : public congest::VertexAlgorithm {
 public:
  explicit ChatterAlgo(int rounds) : rounds_(rounds) {}

  void round(congest::Context& ctx) override {
    for (int p = 0; p < ctx.num_ports(); ++p) {
      for (const Message& m : ctx.inbox(p)) {
        // Order-sensitive digest: delivery order differences change it.
        digest_ = digest_ * 0x100000001b3ULL ^
                  static_cast<std::uint64_t>(m.words[0]);
        ++received_;
      }
    }
    if (executed_ < rounds_) {
      for (int p = 0; p < ctx.num_ports(); ++p) {
        ctx.send(p, {{ctx.id()}, congest::kTagDefault});
      }
    }
    ++executed_;
  }

  bool finished() const override { return executed_ > rounds_ + 2; }

  std::uint64_t digest() const { return digest_; }
  std::int64_t received() const { return received_; }

 private:
  int rounds_ = 0;
  int executed_ = 0;
  std::int64_t received_ = 0;
  std::uint64_t digest_ = 0xcbf29ce484222325ULL;
};

struct ChatterOutcome {
  RunStats stats;
  std::vector<std::uint64_t> digests;
  std::vector<std::int64_t> received;
};

ChatterOutcome run_chatter(const Graph& g, const FaultPlan& plan,
                           int num_threads, int rounds = 12,
                           int bandwidth = 1, int sparse_threshold = 0) {
  NetworkOptions opt;
  opt.bandwidth_tokens = bandwidth;
  opt.num_threads = num_threads;
  opt.faults = plan;
  // These fixtures probe the dispatching round loop: the chatter graphs sit
  // below the default sparse-serial threshold, so leave it off unless a
  // test asks for the fallback regime explicitly.
  opt.sparse_serial_threshold = sparse_threshold;
  Network net(g, opt);
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    algos.push_back(std::make_unique<ChatterAlgo>(rounds));
  }
  ChatterOutcome out;
  out.stats = net.run(algos);
  for (const auto& a : algos) {
    const auto& c = static_cast<const ChatterAlgo&>(*a);
    out.digests.push_back(c.digest());
    out.received.push_back(c.received());
  }
  return out;
}

void expect_same_outcome(const ChatterOutcome& a, const ChatterOutcome& b) {
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
  EXPECT_EQ(a.stats.messages_sent, b.stats.messages_sent);
  EXPECT_EQ(a.stats.words_sent, b.stats.words_sent);
  EXPECT_EQ(a.stats.max_edge_load, b.stats.max_edge_load);
  EXPECT_EQ(a.stats.messages_dropped, b.stats.messages_dropped);
  EXPECT_EQ(a.stats.messages_duplicated, b.stats.messages_duplicated);
  EXPECT_EQ(a.stats.messages_delayed, b.stats.messages_delayed);
  EXPECT_EQ(a.stats.vertices_crashed, b.stats.vertices_crashed);
  EXPECT_EQ(a.digests, b.digests);
  EXPECT_EQ(a.received, b.received);
}

FaultPlan mixed_plan() {
  FaultPlan plan;
  plan.seed = 0x5eedULL;
  plan.drop_probability = 0.08;
  plan.duplicate_probability = 0.05;
  plan.delay_probability = 0.07;
  plan.max_delay_rounds = 3;
  return plan;
}

TEST(FaultDeterminism, IdenticalAcrossThreadCounts) {
  const Graph g = []{ graph::Rng rng(7); return graph::random_maximal_planar(150, rng); }();
  const FaultPlan plan = mixed_plan();
  const ChatterOutcome serial = run_chatter(g, plan, /*num_threads=*/1);
  // Faults actually fired, or the fixture proves nothing.
  EXPECT_GT(serial.stats.messages_dropped, 0);
  EXPECT_GT(serial.stats.messages_duplicated, 0);
  EXPECT_GT(serial.stats.messages_delayed, 0);
  for (const int t : {2, 4, 8, 16}) {
    SCOPED_TRACE(t);
    expect_same_outcome(serial, run_chatter(g, plan, t));
  }
}

TEST(FaultDeterminism, SparseFallbackIdenticalUnderFaultsAndCrashes) {
  // Crashes shrink the active set below the sparse-serial threshold while
  // delayed messages are still in transit, so the run crosses between the
  // dispatching loop and the serial fallback mid-flight — the fallback must
  // retire crash events and injected traffic exactly like the parallel
  // path, at every thread count.
  const Graph g = []{ graph::Rng rng(7); return graph::random_maximal_planar(150, rng); }();
  FaultPlan plan = mixed_plan();
  plan.crashes = {{3, 1}, {11, 3}, {42, 6}, {97, 9}};
  const ChatterOutcome reference =
      run_chatter(g, plan, /*num_threads=*/1);
  EXPECT_EQ(reference.stats.vertices_crashed, 4);
  for (const int t : {1, 2, 4, 8, 16}) {
    SCOPED_TRACE(t);
    // Default threshold (150 vertices < 256): every round falls back.
    expect_same_outcome(reference, run_chatter(g, plan, t, 12, 1,
                                               /*sparse_threshold=*/256));
    // Tiny threshold: only the crash-drained tail falls back.
    expect_same_outcome(reference, run_chatter(g, plan, t, 12, 1,
                                               /*sparse_threshold=*/8));
  }
}

TEST(FaultDeterminism, RerunOnSameNetworkIsIdentical) {
  const Graph g = graph::torus_grid(8, 8);
  NetworkOptions opt;
  opt.faults = mixed_plan();
  Network net(g, opt);
  RunStats first;
  for (int rep = 0; rep < 2; ++rep) {
    std::vector<std::unique_ptr<VertexAlgorithm>> algos;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      algos.push_back(std::make_unique<ChatterAlgo>(10));
    }
    const RunStats stats = net.run(algos);
    if (rep == 0) {
      first = stats;
    } else {
      EXPECT_EQ(first.messages_sent, stats.messages_sent);
      EXPECT_EQ(first.messages_dropped, stats.messages_dropped);
      EXPECT_EQ(first.messages_duplicated, stats.messages_duplicated);
      EXPECT_EQ(first.messages_delayed, stats.messages_delayed);
    }
  }
}

TEST(FaultDeterminism, SeedChangesSchedule) {
  const Graph g = graph::torus_grid(8, 8);
  FaultPlan plan = mixed_plan();
  const ChatterOutcome a = run_chatter(g, plan, 1);
  plan.seed ^= 0x9e3779b97f4a7c15ULL;
  const ChatterOutcome b = run_chatter(g, plan, 1);
  EXPECT_NE(a.digests, b.digests);
}

TEST(FaultDeterminism, DisabledPlanMatchesFaultFreeRun) {
  const Graph g = graph::torus_grid(6, 6);
  const ChatterOutcome clean = run_chatter(g, FaultPlan{}, 1);
  EXPECT_EQ(clean.stats.messages_dropped, 0);
  EXPECT_EQ(clean.stats.messages_delayed, 0);
  // A run whose window excludes every round behaves identically to a clean
  // run even though the fault machinery is active.
  FaultPlan windowed = mixed_plan();
  windowed.first_faulty_round = 1'000'000;
  expect_same_outcome(clean, run_chatter(g, windowed, 1));
}

// --- Semantics of the individual fault kinds ------------------------------

// Two vertices on one edge; vertex 0 sends `count` messages with sequence
// numbers, vertex 1 records (round, payload) of everything it receives.
class SeqSenderAlgo : public congest::VertexAlgorithm {
 public:
  explicit SeqSenderAlgo(int count) : count_(count) {}
  void round(congest::Context& ctx) override {
    if (sent_ < count_) ctx.send(0, {{sent_++}, congest::kTagDefault});
    ++executed_;
  }
  bool finished() const override { return executed_ > count_ + 8; }

 private:
  int count_ = 0;
  std::int64_t sent_ = 0;
  int executed_ = 0;
};

class SeqReceiverAlgo : public congest::VertexAlgorithm {
 public:
  void round(congest::Context& ctx) override {
    for (const Message& m : ctx.inbox(0)) {
      log_.push_back({ctx.round(), m.words[0]});
    }
    ++executed_;
  }
  bool finished() const override { return executed_ > 0; }
  const std::vector<std::pair<std::int64_t, std::int64_t>>& log() const {
    return log_;
  }

 private:
  int executed_ = 0;
  std::vector<std::pair<std::int64_t, std::int64_t>> log_;
};

std::vector<std::pair<std::int64_t, std::int64_t>> run_edge(
    const FaultPlan& plan, int count, RunStats* stats_out = nullptr) {
  const Graph g = Graph::from_edges(2, {{0, 1}});
  NetworkOptions opt;
  opt.faults = plan;
  Network net(g, opt);
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  algos.push_back(std::make_unique<SeqSenderAlgo>(count));
  algos.push_back(std::make_unique<SeqReceiverAlgo>());
  const RunStats stats = net.run(algos);
  if (stats_out) *stats_out = stats;
  return static_cast<const SeqReceiverAlgo&>(*algos[1]).log();
}

TEST(FaultSemantics, DropsVanishAndAreCounted) {
  FaultPlan plan;
  plan.seed = 11;
  plan.drop_probability = 0.5;
  RunStats stats;
  const auto log = run_edge(plan, 40, &stats);
  EXPECT_GT(stats.messages_dropped, 0);
  EXPECT_EQ(static_cast<int>(log.size()) + stats.messages_dropped, 40);
  // Surviving messages arrive exactly when they would have, in order.
  for (const auto& [round, payload] : log) {
    EXPECT_EQ(round, payload + 1);
  }
}

TEST(FaultSemantics, DuplicatesArriveTwiceSameRound) {
  FaultPlan plan;
  plan.seed = 7;
  plan.duplicate_probability = 0.5;
  RunStats stats;
  const auto log = run_edge(plan, 40, &stats);
  EXPECT_GT(stats.messages_duplicated, 0);
  EXPECT_EQ(static_cast<int>(log.size()),
            40 + static_cast<int>(stats.messages_duplicated));
  // Every payload arrives at least once at its natural round; a duplicated
  // payload appears exactly twice, both copies in the same round.
  for (std::int64_t s = 0; s < 40; ++s) {
    int copies = 0;
    for (const auto& [round, payload] : log) {
      if (payload == s) {
        EXPECT_EQ(round, s + 1);
        ++copies;
      }
    }
    EXPECT_GE(copies, 1);
    EXPECT_LE(copies, 2);
  }
}

TEST(FaultSemantics, DelayedMessagesArriveLateAndBounded) {
  FaultPlan plan;
  plan.seed = 23;
  plan.delay_probability = 0.5;
  plan.max_delay_rounds = 4;
  RunStats stats;
  const auto log = run_edge(plan, 40, &stats);
  EXPECT_GT(stats.messages_delayed, 0);
  // Nothing is lost: delay reorders but never drops.
  EXPECT_EQ(static_cast<int>(log.size()), 40);
  std::set<std::int64_t> seen;
  int late = 0;
  for (const auto& [round, payload] : log) {
    seen.insert(payload);
    EXPECT_GE(round, payload + 1);
    EXPECT_LE(round, payload + 1 + plan.max_delay_rounds);
    if (round != payload + 1) ++late;
  }
  EXPECT_EQ(static_cast<int>(seen.size()), 40);
  EXPECT_EQ(late, static_cast<int>(stats.messages_delayed));
}

TEST(FaultSemantics, DelayedMessageOutlivesSenderTermination) {
  // One message, forced delay of up to 6 rounds, sender finishes right
  // after sending: the run must keep going until the message lands.
  FaultPlan plan;
  plan.seed = 5;
  plan.delay_probability = 1.0;
  plan.max_delay_rounds = 6;
  const auto log = run_edge(plan, 1);
  ASSERT_EQ(log.size(), 1u);
  EXPECT_GE(log[0].first, 2);  // at least one round late
}

TEST(FaultSemantics, BandwidthBudgetIgnoresInjectedPrefix) {
  // With delay_probability = 1 every message is held back one round and
  // redelivered while the sender keeps sending at full budget. If the
  // injected prefix counted against the sender's budget this would throw
  // CongestionError; it must not.
  FaultPlan plan;
  plan.seed = 3;
  plan.delay_probability = 1.0;
  plan.max_delay_rounds = 1;
  RunStats stats;
  const auto log = run_edge(plan, 30, &stats);
  EXPECT_EQ(static_cast<int>(log.size()), 30);
  EXPECT_EQ(stats.messages_delayed, 30);
}

// --- Crash-stop -----------------------------------------------------------

TEST(FaultCrash, CrashedVertexStopsExecutingButTrafficSurvives) {
  // Path 0-1-2. Vertex 1 crashes at round 3: its messages already sent at
  // rounds <= 2 still arrive, it never sends again, and the run terminates
  // (a crashed vertex counts as finished).
  const Graph g = Graph::from_edges(3, {{0, 1}, {1, 2}});
  FaultPlan plan;
  plan.crashes.push_back(CrashEvent{1, 3});
  NetworkOptions opt;
  opt.faults = plan;
  Network net(g, opt);
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  for (VertexId v = 0; v < 3; ++v) {
    algos.push_back(std::make_unique<ChatterAlgo>(10));
  }
  const RunStats stats = net.run(algos);
  EXPECT_EQ(stats.vertices_crashed, 1);
  const auto& end0 = static_cast<const ChatterAlgo&>(*algos[0]);
  // Vertex 0 hears from vertex 1 in rounds 1..3 only (sends of rounds
  // 0..2), then silence.
  EXPECT_EQ(end0.received(), 3);
}

TEST(FaultCrash, CrashAtRoundZeroIsSilent) {
  const Graph g = Graph::from_edges(3, {{0, 1}, {1, 2}});
  FaultPlan plan;
  plan.crashes.push_back(CrashEvent{1, 0});
  NetworkOptions opt;
  opt.faults = plan;
  Network net(g, opt);
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  for (VertexId v = 0; v < 3; ++v) {
    algos.push_back(std::make_unique<ChatterAlgo>(5));
  }
  const RunStats stats = net.run(algos);
  EXPECT_EQ(stats.vertices_crashed, 1);
  EXPECT_EQ(static_cast<const ChatterAlgo&>(*algos[0]).received(), 0);
  EXPECT_EQ(static_cast<const ChatterAlgo&>(*algos[2]).received(), 0);
}

TEST(FaultCrash, CrashScheduleIdenticalAcrossThreadCounts) {
  const Graph g = []{ graph::Rng rng(3); return graph::random_maximal_planar(120, rng); }();
  FaultPlan plan = mixed_plan();
  plan.crashes = {{5, 2}, {17, 4}, {33, 0}, {80, 7}};
  const ChatterOutcome serial = run_chatter(g, plan, 1);
  EXPECT_EQ(serial.stats.vertices_crashed, 4);
  for (const int t : {2, 4, 8, 16}) {
    SCOPED_TRACE(t);
    expect_same_outcome(serial, run_chatter(g, plan, t));
  }
}

// --- Reliable random-walk gather ------------------------------------------

congest::LeaderElectionResult clean_leaders(const Graph& g,
                                            const std::vector<int>& cl) {
  return congest::elect_cluster_leaders(g, cl);
}

std::vector<std::vector<congest::GatherToken>> one_token_per_vertex(
    const Graph& g) {
  std::vector<std::vector<congest::GatherToken>> tokens(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    tokens[v].push_back({v, {v, v * 7 + 1}});
  }
  return tokens;
}

std::multiset<std::int64_t> delivered_origins(
    const congest::GatherResult& gather) {
  std::multiset<std::int64_t> out;
  for (const auto& cluster : gather.delivered) {
    for (const auto& payload : cluster) out.insert(payload[0]);
  }
  return out;
}

TEST(ReliableGather, MatchesFaultFreeDeliveryUnderOnePercentDrop) {
  const Graph g = graph::torus_grid(7, 7);
  const std::vector<int> cl(g.num_vertices(), 0);
  const auto leaders = clean_leaders(g, cl);
  congest::ReliableGatherOptions opt;
  opt.net.bandwidth_tokens = 2;
  opt.net.faults.seed = 99;
  opt.net.faults.drop_probability = 0.01;
  // Long epoch: the slowest of 49 lazy walks can legitimately need upwards
  // of 512 rounds on this torus, and the single-epoch assertion below is
  // the point of the test.
  opt.epoch_rounds = 4096;
  const auto r = congest::reliable_walk_gather(g, cl, leaders.leader_of,
                                               one_token_per_vertex(g), opt);
  EXPECT_TRUE(r.gather.complete);
  EXPECT_EQ(r.epochs, 1);
  EXPECT_EQ(r.reelections, 0);
  // Exactly one payload per origin — nothing lost, nothing double-counted.
  std::multiset<std::int64_t> expected;
  for (VertexId v = 0; v < g.num_vertices(); ++v) expected.insert(v);
  EXPECT_EQ(delivered_origins(r.gather), expected);
}

TEST(ReliableGather, HeavyDropForcesRetransmissionsButLosesNothing) {
  const Graph g = graph::torus_grid(6, 6);
  const std::vector<int> cl(g.num_vertices(), 0);
  const auto leaders = clean_leaders(g, cl);
  congest::ReliableGatherOptions opt;
  opt.net.bandwidth_tokens = 2;
  opt.net.faults.seed = 4242;
  opt.net.faults.drop_probability = 0.30;
  const auto r = congest::reliable_walk_gather(g, cl, leaders.leader_of,
                                               one_token_per_vertex(g), opt);
  EXPECT_TRUE(r.gather.complete);
  EXPECT_GT(r.retransmissions, 0);
  EXPECT_GT(r.gather.stats.messages_dropped, 0);
  std::multiset<std::int64_t> expected;
  for (VertexId v = 0; v < g.num_vertices(); ++v) expected.insert(v);
  EXPECT_EQ(delivered_origins(r.gather), expected);
}

TEST(ReliableGather, DuplicatesAndDelaysNeverDoubleDeliver) {
  const Graph g = graph::torus_grid(6, 6);
  const std::vector<int> cl(g.num_vertices(), 0);
  const auto leaders = clean_leaders(g, cl);
  congest::ReliableGatherOptions opt;
  opt.net.bandwidth_tokens = 2;
  opt.net.faults.seed = 31;
  opt.net.faults.duplicate_probability = 0.2;
  opt.net.faults.delay_probability = 0.2;
  opt.net.faults.max_delay_rounds = 3;
  const auto r = congest::reliable_walk_gather(g, cl, leaders.leader_of,
                                               one_token_per_vertex(g), opt);
  EXPECT_TRUE(r.gather.complete);
  std::multiset<std::int64_t> expected;
  for (VertexId v = 0; v < g.num_vertices(); ++v) expected.insert(v);
  EXPECT_EQ(delivered_origins(r.gather), expected);
}

TEST(ReliableGather, LeaderCrashTriggersReelectionAndRedelivery) {
  const Graph g = graph::torus_grid(6, 6);
  const std::vector<int> cl(g.num_vertices(), 0);
  const auto leaders = clean_leaders(g, cl);
  const VertexId old_leader = leaders.leader_of[0];
  congest::ReliableGatherOptions opt;
  opt.net.bandwidth_tokens = 2;
  opt.epoch_rounds = 256;
  // Kill the leader early enough that most tokens are still in flight.
  opt.net.faults.crashes.push_back(congest::CrashEvent{old_leader, 3});
  const auto r = congest::reliable_walk_gather(g, cl, leaders.leader_of,
                                               one_token_per_vertex(g), opt);
  EXPECT_TRUE(r.gather.complete);
  EXPECT_GE(r.reelections, 1);
  EXPECT_GE(r.epochs, 2);
  // The replacement leader is alive and is not the crashed vertex.
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (v == old_leader) continue;
    EXPECT_NE(r.final_leader_of[v], old_leader);
  }
  // Every live origin's token is delivered exactly once. The crashed
  // leader's own token was absorbed at round 0 (before its crash at round
  // 3), then invalidated with the leader; with its origin dead it is
  // orphaned — excluded from completeness and absent from `delivered`.
  std::multiset<std::int64_t> expected;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (v != old_leader) expected.insert(v);
  }
  EXPECT_EQ(delivered_origins(r.gather), expected);
}

TEST(ReliableGather, TracesStayRoutableForReverseDelivery) {
  const Graph g = graph::torus_grid(6, 6);
  const std::vector<int> cl(g.num_vertices(), 0);
  const auto leaders = clean_leaders(g, cl);
  congest::ReliableGatherOptions opt;
  opt.net.bandwidth_tokens = 2;
  opt.net.faults.seed = 17;
  opt.net.faults.drop_probability = 0.05;
  const auto r = congest::reliable_walk_gather(g, cl, leaders.leader_of,
                                               one_token_per_vertex(g), opt);
  ASSERT_TRUE(r.gather.complete);
  // Each delivered token's trace must end at its absorbing leader and have
  // strictly increasing hop rounds (what reverse_delivery relies on).
  for (const auto& ids : r.gather.delivered_ids) {
    for (const std::int64_t id : ids) {
      const congest::TokenTrace& t = r.gather.traces[id];
      ASSERT_FALSE(t.visited.empty());
      EXPECT_EQ(r.final_leader_of[t.visited.back()], t.visited.back());
      for (std::size_t h = 1; h < t.hop_round.size(); ++h) {
        EXPECT_LT(t.hop_round[h - 1], t.hop_round[h]);
      }
      EXPECT_EQ(t.visited.size(), t.hop_round.size() + 1);
    }
  }
}

// Six fault configurations of the reliable gather: drops light and heavy,
// duplicates with delays, a leader crash, everything at bandwidth 1, and
// drops with two crashes over short epochs. Tokens are Theorem 2.6's mix:
// a hello token per vertex and one per edge.
congest::ReliableGatherResult run_fault_config(int config, int threads) {
  const Graph g = config % 2 ? graph::torus_grid(6, 6) : graph::grid(8, 8);
  const std::vector<int> cl(g.num_vertices(), 0);
  const VertexId leader = clean_leaders(g, cl).leader_of[0];
  std::vector<std::vector<congest::GatherToken>> tokens(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    tokens[v].push_back({v, {v, -1, 0, 0}});
  }
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const graph::Edge ed = g.edge(e);
    tokens[ed.u].push_back({ed.u, {ed.u, ed.v, 1, 1}});
  }
  congest::ReliableGatherOptions opt;
  opt.seed = 11 + static_cast<std::uint64_t>(config);
  opt.net.bandwidth_tokens = 2;
  opt.net.num_threads = threads;
  opt.net.sparse_serial_threshold = 0;
  FaultPlan& f = opt.net.faults;
  f.seed = 100 + static_cast<std::uint64_t>(config);
  switch (config) {
    case 0: f.drop_probability = 0.01; break;
    case 1: f.drop_probability = 0.2; break;
    case 2:
      f.duplicate_probability = 0.1;
      f.delay_probability = 0.1;
      f.max_delay_rounds = 4;
      break;
    case 3:
      f.crashes.push_back(CrashEvent{leader, 3});
      opt.epoch_rounds = 256;
      break;
    case 4:
      f = mixed_plan();
      f.seed = 104;
      opt.net.bandwidth_tokens = 1;
      break;
    default:
      f.drop_probability = 0.05;
      f.crashes.push_back(CrashEvent{5, 40});
      f.crashes.push_back(CrashEvent{leader, 90});
      opt.epoch_rounds = 128;
      break;
  }
  return congest::reliable_walk_gather(g, cl, clean_leaders(g, cl).leader_of,
                                       tokens, opt);
}

// FNV-1a over 64-bit words.
struct Fnv {
  std::uint64_t h = 1469598103934665603ULL;
  void add(std::int64_t x) {
    h = (h ^ static_cast<std::uint64_t>(x)) * 1099511628211ULL;
  }
};

// Retransmissions, acks, epochs, re-elections, final leaders, the summed
// RunStats and every delivered id and payload: everything of a reliable
// gather except its traces.
std::uint64_t forward_digest(const congest::ReliableGatherResult& r) {
  Fnv f;
  f.add(r.retransmissions);
  f.add(r.ack_messages);
  f.add(r.epochs);
  f.add(r.reelections);
  for (const VertexId l : r.final_leader_of) f.add(l);
  const RunStats& s = r.gather.stats;
  for (const std::int64_t x :
       {s.rounds, s.messages_sent, s.words_sent,
        static_cast<std::int64_t>(s.max_edge_load), s.messages_dropped,
        s.messages_duplicated, s.messages_delayed, s.vertices_crashed}) {
    f.add(x);
  }
  for (const auto& ids : r.gather.delivered_ids) {
    f.add(-7);
    for (const std::int64_t id : ids) f.add(id);
  }
  for (const auto& cluster : r.gather.delivered) {
    for (const auto& payload : cluster) {
      f.add(-9);
      for (const std::int64_t w : payload) f.add(w);
    }
  }
  f.add(r.gather.complete);
  return f.h;
}

// Golden digests of the six configurations, recorded before traces were
// loop-erased: how hops are recorded may not move a retransmission, an
// ack, an epoch or a delivered id.
TEST(ReliableGather, AckBookkeepingIsUnchangedInSixFaultConfigurations) {
  const std::uint64_t golden[6] = {
      0xd3bf4a8f5c88d197ULL, 0x003344ff2d136ee2ULL, 0x5b3bce1e323d4389ULL,
      0x33adc49cff2db4a3ULL, 0xc60ed59346215fcfULL, 0x090b708451a166f9ULL};
  for (int config = 0; config < 6; ++config) {
    const auto r = run_fault_config(config, 1);
    EXPECT_TRUE(r.gather.complete) << "config " << config;
    EXPECT_EQ(forward_digest(r), golden[config]) << "config " << config;
  }
}

// Every trace of both gathers, faulted epochs included, is the loop erasure
// of its walk: a simple path along graph edges with strictly increasing hop
// rounds. A delivered token's path ends at its cluster's final leader.
void expect_simple_paths(const Graph& g, const congest::GatherResult& gather,
                         const std::vector<VertexId>& final_leader_of) {
  std::vector<bool> delivered(gather.traces.size(), false);
  for (const auto& ids : gather.delivered_ids) {
    for (const std::int64_t id : ids) delivered[id] = true;
  }
  for (std::size_t id = 0; id < gather.traces.size(); ++id) {
    const congest::TokenTrace& t = gather.traces[id];
    ASSERT_EQ(t.visited.size(), t.hop_round.size() + 1) << "token " << id;
    EXPECT_EQ(t.visited.front(), t.origin);
    const std::set<VertexId> distinct(t.visited.begin(), t.visited.end());
    EXPECT_EQ(distinct.size(), t.visited.size()) << "token " << id;
    for (std::size_t h = 0; h < t.hop_round.size(); ++h) {
      EXPECT_TRUE(g.has_edge(t.visited[h], t.visited[h + 1]));
      if (h > 0) {
        EXPECT_LT(t.hop_round[h - 1], t.hop_round[h]);
      }
    }
    if (delivered[id]) {
      EXPECT_EQ(t.visited.back(), final_leader_of[t.origin]) << "token " << id;
    }
  }
}

TEST(ReliableGather, TracesAreSimplePathsEndingAtTheFinalLeader) {
  for (int config = 0; config < 6; ++config) {
    SCOPED_TRACE("config " + std::to_string(config));
    const auto r = run_fault_config(config, 1);
    const Graph g = config % 2 ? graph::torus_grid(6, 6) : graph::grid(8, 8);
    expect_simple_paths(g, r.gather, r.final_leader_of);
  }
  graph::Rng rng(31);
  const Graph g = graph::random_maximal_planar(80, rng);
  const std::vector<int> cl(g.num_vertices(), 0);
  const auto leaders = clean_leaders(g, cl);
  congest::GatherOptions opt;
  opt.net.bandwidth_tokens = 2;
  const auto r = congest::random_walk_gather(g, cl, leaders.leader_of,
                                             one_token_per_vertex(g), opt);
  ASSERT_TRUE(r.complete);
  expect_simple_paths(g, r, leaders.leader_of);
}

// Traces, and the reversed delivery replayed from them, are bit-identical
// at every thread count.
TEST(ReliableGather, TracesAndReturnAreIdenticalAcrossThreadCounts) {
  const auto digest = [](const congest::ReliableGatherResult& r) {
    Fnv f;
    f.add(static_cast<std::int64_t>(forward_digest(r)));
    std::vector<std::vector<std::int64_t>> reply(r.gather.traces.size());
    for (const congest::TokenTrace& t : r.gather.traces) {
      f.add(-3);
      for (const VertexId v : t.visited) f.add(v);
      for (const std::int64_t round : t.hop_round) f.add(round);
    }
    for (const auto& ids : r.gather.delivered_ids) {
      for (const std::int64_t id : ids) reply[id] = {id};
    }
    const auto back = congest::reverse_delivery(
        static_cast<int>(r.final_leader_of.size()), r.gather, reply,
        r.gather.bandwidth);
    EXPECT_TRUE(back.load_ok);
    for (const std::int64_t x :
         {back.stats.rounds, back.stats.messages_sent, back.stats.words_sent,
          static_cast<std::int64_t>(back.stats.max_edge_load)}) {
      f.add(x);
    }
    return f.h;
  };
  for (int config = 0; config < 6; ++config) {
    const std::uint64_t serial = digest(run_fault_config(config, 1));
    for (const int threads : {2, 4, 8}) {
      EXPECT_EQ(digest(run_fault_config(config, threads)), serial)
          << "config " << config << " @ " << threads << " threads";
    }
  }
}

// --- End-to-end: the framework pipeline under faults ----------------------

TEST(FrameworkFaulted, PartitionAndGatherMatchesFaultFreeUnderOnePercentDrop) {
  graph::Rng rng(11);
  const Graph g = graph::random_maximal_planar(80, rng);
  core::FrameworkOptions clean;
  clean.seed = 5;
  const core::Partition base = core::partition_and_gather(g, 0.3, clean);
  ASSERT_TRUE(base.gather_complete);

  core::FrameworkOptions faulted = clean;
  faulted.faults.seed = 77;
  faulted.faults.drop_probability = 0.01;
  faulted.gather_epoch_rounds = 4096;
  core::Partition p = core::partition_and_gather(g, 0.3, faulted);
  ASSERT_TRUE(p.gather_complete);
  EXPECT_GE(p.gather_epochs, 1);
  EXPECT_EQ(p.gather_reelections, 0);

  // Same decomposition and leaders, so the leaders must reconstruct the
  // same cluster subgraphs from the (reliably) gathered tokens.
  ASSERT_EQ(p.clusters.size(), base.clusters.size());
  for (std::size_t c = 0; c < p.clusters.size(); ++c) {
    EXPECT_EQ(p.clusters[c].leader, base.clusters[c].leader);
    EXPECT_EQ(p.clusters[c].subgraph.to_parent.size(),
              base.clusters[c].subgraph.to_parent.size());
    EXPECT_EQ(p.clusters[c].subgraph.graph.num_edges(),
              base.clusters[c].subgraph.graph.num_edges());
    // Token payloads arrive in a different order but none may be lost,
    // duplicated, or altered.
    auto sorted = [](const core::Partition& part, std::size_t cc) {
      auto d = part.gather.delivered[cc];
      std::sort(d.begin(), d.end());
      return d;
    };
    EXPECT_EQ(sorted(p, c), sorted(base, c));
  }

  // Per-vertex answers ride the reversed (faulted-run) walk schedule back;
  // return_results throws if any vertex's word is dropped or mixed up.
  std::vector<std::int64_t> word(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) word[v] = v * 13 + 1;
  EXPECT_GT(core::return_results(p, word, "faulted return"), 0);
}

TEST(FrameworkFaulted, FaultedGatherLedgerEntryKeepsWallTime) {
  // The reliable gather sums its epochs' RunStats; the sum must carry every
  // field, the wall-clock duration included, into the ledger.
  graph::Rng rng(11);
  const Graph g = graph::random_maximal_planar(80, rng);
  core::FrameworkOptions faulted;
  faulted.seed = 5;
  faulted.faults.seed = 77;
  faulted.faults.drop_probability = 0.01;
  faulted.gather_epoch_rounds = 4096;
  const core::Partition p = core::partition_and_gather(g, 0.3, faulted);
  ASSERT_TRUE(p.gather_complete);
  EXPECT_GT(p.gather.stats.duration_ns, 0);
  const auto& entries = p.ledger.entries();
  const auto gather = std::find_if(
      entries.begin(), entries.end(), [](const congest::LedgerEntry& e) {
        return e.label.starts_with("topology gather");
      });
  ASSERT_NE(gather, entries.end());
  EXPECT_GT(gather->stats.duration_ns, 0);
}

// --- Plan validation ------------------------------------------------------

TEST(FaultPlanValidation, RejectsMalformedPlans) {
  const Graph g = Graph::from_edges(2, {{0, 1}});
  const auto expect_rejected = [&](FaultPlan plan) {
    NetworkOptions opt;
    opt.faults = std::move(plan);
    EXPECT_THROW(Network(g, opt), std::invalid_argument);
  };
  FaultPlan negative;
  negative.drop_probability = -0.1;
  expect_rejected(negative);
  FaultPlan excessive;
  excessive.drop_probability = 0.6;
  excessive.delay_probability = 0.5;
  expect_rejected(excessive);
  FaultPlan bad_delay;
  bad_delay.delay_probability = 0.1;
  bad_delay.max_delay_rounds = 0;
  expect_rejected(bad_delay);
  FaultPlan bad_vertex;
  bad_vertex.crashes.push_back(CrashEvent{7, 0});
  expect_rejected(bad_vertex);
  FaultPlan bad_window;
  bad_window.drop_probability = 0.1;
  bad_window.first_faulty_round = 10;
  bad_window.last_faulty_round = 5;
  expect_rejected(bad_window);
}

}  // namespace
}  // namespace ecd
