// Zero-allocation audit for the sparse-round fast path (DESIGN.md §15).
//
// The round loop's zero-allocation contract predates the sparse fast path;
// this binary proves the new machinery keeps it: per-shard active-vertex
// worklists, the member census, orphan delivery assignment, and the
// serial-fallback branch all run out of storage sized in the Network
// constructor / warmed by the first run. The flood workload is chosen so a
// single run crosses the sparse-serial threshold in both directions — the
// active set starts at n (dispatching rounds) and drains to a handful of
// unfinished vertices (fallback rounds) — so the audit covers the dispatch
// path, the fallback path, and the transition between them.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "src/congest/network.h"
#include "src/congest/primitives.h"
#include "src/congest/profiler.h"
#include "src/congest/trace.h"
#include "src/core/sweep.h"
#include "src/graph/generators.h"

// --- Counting allocation hooks ----------------------------------------------
// Same replacement pattern as profiler_test.cpp / bench_util.h: one TU per
// binary defines the global operator new/delete.

namespace {
std::atomic<std::int64_t>& allocation_counter() {
  static std::atomic<std::int64_t> count{0};
  return count;
}
std::int64_t allocation_count() {
  return allocation_counter().load(std::memory_order_relaxed);
}
}  // namespace

void* operator new(std::size_t size) {
  allocation_counter().fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size ? size : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  allocation_counter().fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size ? size : 1);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace ecd::congest {
namespace {

using graph::Graph;
using graph::VertexId;

// BFS flood from one corner: a vertex steps every round until the wave has
// passed it, so the active set shrinks monotonically from n toward zero and
// the run's tail sits below any reasonable sparse-serial threshold.
class FloodAlgo final : public VertexAlgorithm {
 public:
  explicit FloodAlgo(bool is_source) : source_(is_source) {}

  void round(Context& ctx) override {
    started_ = true;
    sent_ = false;
    if (arrival_ >= 0) return;
    if (source_) {
      arrival_ = 0;
      forward(ctx);
      return;
    }
    for (int p = 0; p < ctx.num_ports(); ++p) {
      if (!ctx.inbox(p).empty()) {
        arrival_ = ctx.round();
        forward(ctx);
        return;
      }
    }
  }
  bool finished() const override { return started_ && !sent_; }

 private:
  void forward(Context& ctx) {
    sent_ = true;
    for (int p = 0; p < ctx.num_ports(); ++p) ctx.send(p, {{arrival_}});
  }
  bool source_;
  std::int64_t arrival_ = -1;
  bool started_ = false;
  bool sent_ = false;
};

std::vector<std::unique_ptr<VertexAlgorithm>> make_flood(const Graph& g) {
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  algos.reserve(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    algos.push_back(std::make_unique<FloodAlgo>(v == 0));
  }
  return algos;
}

TEST(SparseAlloc, SteadyStateStaysOffTheHeapAcrossBothRoundPaths) {
  for (const int threads : {1, 4}) {
    const Graph g = graph::grid(32, 32);  // 1024 vertices, wave length ~62
    ExecutionProfiler profiler;
    NetworkOptions opt;
    opt.num_threads = threads;
    opt.profiler = &profiler;
    // Default threshold (256): the flood starts with all 1024 vertices
    // queued and finishes with single-digit stragglers, so one run visits
    // dispatching rounds, fallback rounds, and the crossover.
    Network net(g, opt);
    // Warm run: worklist capacity, arena overflow, and algorithm-internal
    // vectors grow here; the audited run must then stay off the heap.
    auto warm = make_flood(g);
    net.run(warm);
    auto audit = make_flood(g);
    const std::int64_t before = allocation_count();
    net.run(audit);
    const std::int64_t delta = allocation_count() - before;
    EXPECT_EQ(delta, 0) << threads << " threads";

    if (threads > 1) {
      // The audit only means something if the run really exercised both
      // paths: every worker lane must have both computed rounds (dispatch
      // path) and sat out rounds as idle (serial fallback).
      const ExecutionProfiler::Summary s = profiler.summary();
      ASSERT_EQ(s.num_shards, threads);
      for (int shard = 1; shard < s.num_shards; ++shard) {
        EXPECT_GT(s.shards[shard].totals.phase_ns[kProfileCompute], 0)
            << "lane " << shard << " never took the dispatch path";
        EXPECT_GT(s.shards[shard].totals.phase_ns[kProfileIdle], 0)
            << "lane " << shard << " never sat out a fallback round";
      }
    }
  }
}

// A churn plan widens the port CSR at construction (preallocated capacity
// for the schedule's inserts) and the round loop applies events, drops
// dead-port sends, and purges stranded traffic — all of which must stay
// inside the constructor's storage. The reseed is part of the warm-run
// protocol the sweep engine uses, so it is audited too.
TEST(SparseAlloc, ChurnRoundsStayOffTheHeap) {
  for (const int threads : {1, 4}) {
    const Graph g = graph::grid(32, 32);
    NetworkOptions opt;
    opt.num_threads = threads;
    opt.faults.seed = 1;
    opt.faults.drop_probability = 0.02;  // message faults alongside churn
    opt.faults.churn =
        ecd::core::make_churn_plan(g, /*topo_seed=*/3, /*churn_permille=*/80);
    Network net(g, opt);
    auto warm = make_flood(g);
    const RunStats warm_stats = net.run(warm);
    ASSERT_GT(warm_stats.churn_events, 0);
    auto audit = make_flood(g);
    const std::int64_t before = allocation_count();
    net.set_fault_seed(2);
    const RunStats stats = net.run(audit);
    const std::int64_t delta = allocation_count() - before;
    EXPECT_EQ(delta, 0) << threads << " threads";
    EXPECT_EQ(stats.churn_events, warm_stats.churn_events);
  }
}

// Tracing is part of the same contract (DESIGN.md §18): the sharded trace
// lanes, the replay merge index, and the flight recorder's ring are all
// sized in the constructor, so a traced round — full, sampled, or both, at
// any thread count — allocates nothing after warm-up.
TEST(SparseAlloc, TracedRoundsStayOffTheHeapInEveryTraceMode) {
  struct Mode {
    const char* name;
    TraceConfig config;
  };
  const Mode modes[] = {
      {"full", {}},
      {"sampled", {/*round_period=*/4, /*vertex_stride=*/2, /*tag_filter=*/-1}},
  };
  for (const int threads : {1, 4}) {
    for (const Mode& mode : modes) {
      const Graph g = graph::grid(32, 32);
      FlightRecorder::Options ropt;
      ropt.ring_capacity = 1 << 12;
      ropt.keep_rounds = 16;
      FlightRecorder recorder(ropt);
      NetworkOptions opt;
      opt.num_threads = threads;
      opt.trace = &recorder;
      opt.trace_config = mode.config;
      Network net(g, opt);
      auto warm = make_flood(g);
      net.run(warm);
      auto audit = make_flood(g);
      const std::int64_t before = allocation_count();
      net.run(audit);
      const std::int64_t delta = allocation_count() - before;
      EXPECT_EQ(delta, 0) << mode.name << " @ " << threads << " threads";
      EXPECT_GT(recorder.events_retained(), 0);
    }
  }
}

// The random-walk gather (Lemma 2.4) keeps tokens inline from message to
// message: its heap traffic is per token (traces, initial queues, the
// delivered payloads), never per hop. The reversed delivery checks its
// load with one counting-sorted array, not a node per hop, so it allocates
// per replied token: the copied reply and the origin's received list.
TEST(SparseAlloc, WalkGatherAllocatesPerTokenNotPerHop) {
  const Graph g = graph::grid(16, 16);
  const std::vector<int> cluster(g.num_vertices(), 0);
  const std::vector<VertexId> leader(g.num_vertices(), 0);
  // Theorem 2.6's token mix: a hello token per vertex, one per edge.
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

  std::int64_t before = allocation_count();
  const GatherResult gather =
      random_walk_gather(g, cluster, leader, tokens, opt);
  const std::int64_t gather_allocs = allocation_count() - before;
  ASSERT_TRUE(gather.complete);
  EXPECT_LT(gather_allocs, gather.stats.messages_sent / 16)
      << gather.stats.messages_sent << " messages";

  const std::vector<std::vector<std::int64_t>> reply(gather.traces.size(),
                                                     {1});
  before = allocation_count();
  const ReverseDeliveryResult back =
      reverse_delivery(g.num_vertices(), gather, reply, gather.bandwidth);
  const std::int64_t reverse_allocs = allocation_count() - before;
  ASSERT_TRUE(back.load_ok);
  // The replay sends one message per hop of the loop-erased traces, so a
  // per-hop bound shrinks with them; the bound is per replied token
  // instead (2 944 here, below the 68 870 = walk hops / 16 it replaced).
  const auto replied = static_cast<std::int64_t>(reply.size());
  EXPECT_LT(reverse_allocs, 4 * replied) << replied << " replied tokens";
}

// The reliable gather's receivers remember every (token, seq) hop they have
// accepted, so a retransmitted copy is acked but not taken twice. That
// memory is one flat table per vertex, reused as it grows: with drops the
// gather still allocates per token and per vertex (traces, queues, table
// growth), not once per accepted hop. The traces are loop-erased and no
// longer hold every hop, so the hops are counted from the messages: in one
// epoch with no crash every send is an ack, a retransmission or a fresh
// hop, each fresh hop is accepted once, and `messages_sent` leaves out the
// dropped sends.
TEST(SparseAlloc, ReliableGatherAllocatesPerTokenNotPerHop) {
  const Graph g = graph::grid(8, 8);
  const std::vector<int> cluster(g.num_vertices(), 0);
  const std::vector<VertexId> leader(g.num_vertices(), 0);
  std::vector<std::vector<GatherToken>> tokens(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    tokens[v].push_back({v, {v, -1, 0, 0}});
  }
  ReliableGatherOptions opt;
  opt.net.bandwidth_tokens = 4;
  opt.net.faults.seed = 7;
  opt.net.faults.drop_probability = 0.01;
  opt.epoch_rounds = 4096;

  const std::int64_t before = allocation_count();
  const ReliableGatherResult result =
      reliable_walk_gather(g, cluster, leader, tokens, opt);
  const std::int64_t allocs = allocation_count() - before;
  ASSERT_TRUE(result.gather.complete);
  ASSERT_EQ(result.epochs, 1);
  ASSERT_GT(result.retransmissions, 0);
  const RunStats& stats = result.gather.stats;
  const std::int64_t hops = stats.messages_sent + stats.messages_dropped -
                            result.ack_messages - result.retransmissions;
  EXPECT_LT(allocs, hops / 4) << hops << " hops";
}

}  // namespace
}  // namespace ecd::congest
