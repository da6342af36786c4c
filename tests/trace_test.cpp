// The observability layer: the TraceSink event stream and its one sink,
// FlightRecorder (src/congest/trace.h), reconciled against RunStats; the
// MetricsRegistry "phase:*" table (src/congest/metrics.h) reconciled
// against the RoundLedger; and enriched congestion errors. See DESIGN.md
// §9 and §18.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "src/congest/metrics.h"
#include "src/congest/network.h"
#include "src/congest/primitives.h"
#include "src/congest/trace.h"
#include "src/core/framework.h"
#include "src/graph/generators.h"
#include "tools/json_min.h"

namespace ecd::congest {
namespace {

using graph::Graph;
using graph::Rng;
using graph::VertexId;

std::vector<int> single_cluster(const Graph& g) {
  return std::vector<int>(g.num_vertices(), 0);
}

// A flight recorder whose ring holds every event of the small runs below:
// no round trimming, and a capacity the tests check was never reached
// (events_dropped() == 0), so its dump is the complete event stream.
FlightRecorder whole_run_recorder() {
  FlightRecorder::Options o;
  o.ring_capacity = 1 << 18;
  o.keep_rounds = std::numeric_limits<int>::max();
  return FlightRecorder(o);
}

std::string dump_of(const FlightRecorder& fr) {
  std::ostringstream os;
  fr.dump_jsonl(os);
  return os.str();
}

// The dump's event lines (the "flight" meta line dropped), parsed.
std::vector<jsonmin::Value> events_of(const FlightRecorder& fr) {
  std::istringstream lines(dump_of(fr));
  std::string line;
  std::getline(lines, line);  // meta
  std::vector<jsonmin::Value> out;
  while (std::getline(lines, line)) out.push_back(jsonmin::parse(line));
  return out;
}

std::int64_t field(const jsonmin::Value& e, const char* key) {
  return static_cast<std::int64_t>(e.at(key).number);
}

// Sums of the stream's per-edge loads: the run totals as the trace saw them.
RunStats edge_load_totals(const std::vector<jsonmin::Value>& events) {
  RunStats s;
  for (const jsonmin::Value& e : events) {
    if (e.at("type").string != "edge_load") continue;
    s.messages_sent += field(e, "messages");
    s.words_sent += field(e, "words");
    s.max_edge_load =
        std::max(s.max_edge_load, static_cast<int>(field(e, "messages")));
  }
  return s;
}

// Runs a deterministic walk gather; optionally observed by `sink`.
GatherResult run_gather(const Graph& g, TraceSink* sink) {
  const auto cluster = single_cluster(g);
  const auto leaders = elect_cluster_leaders(g, cluster);
  std::vector<std::vector<GatherToken>> tokens(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    tokens[v].push_back({v, {v, 1000 + v}});
  }
  GatherOptions opt;
  opt.net.bandwidth_tokens = 4;
  opt.net.trace = sink;
  return random_walk_gather(g, cluster, leaders.leader_of, tokens, opt);
}

TEST(Trace, NullSinkLeavesBehaviourUnchanged) {
  Rng rng(11);
  Graph g = graph::random_maximal_planar(50, rng);
  const auto plain = run_gather(g, nullptr);
  FlightRecorder recorder = whole_run_recorder();
  const auto traced = run_gather(g, &recorder);
  // Identical seeds, identical schedule: the sink must observe, not perturb.
  EXPECT_EQ(plain.stats.rounds, traced.stats.rounds);
  EXPECT_EQ(plain.stats.messages_sent, traced.stats.messages_sent);
  EXPECT_EQ(plain.stats.words_sent, traced.stats.words_sent);
  EXPECT_EQ(plain.stats.max_edge_load, traced.stats.max_edge_load);
  ASSERT_TRUE(plain.complete);
  ASSERT_TRUE(traced.complete);
  EXPECT_EQ(plain.delivered[0].size(), traced.delivered[0].size());
}

TEST(Trace, TotalsReconcileExactlyWithRunStats) {
  Rng rng(13);
  Graph g = graph::random_maximal_planar(60, rng);
  FlightRecorder recorder = whole_run_recorder();
  const auto r = run_gather(g, &recorder);
  ASSERT_TRUE(r.complete);
  ASSERT_EQ(recorder.events_dropped(), 0);
  const auto events = events_of(recorder);
  const RunStats totals = edge_load_totals(events);
  EXPECT_EQ(recorder.last_round() + 1, r.stats.rounds);
  EXPECT_EQ(totals.messages_sent, r.stats.messages_sent);
  EXPECT_EQ(totals.words_sent, r.stats.words_sent);
  EXPECT_EQ(totals.max_edge_load, r.stats.max_edge_load);
  // The closing run_end event carries the same RunStats.
  const jsonmin::Value& end = events.back();
  ASSERT_EQ(end.at("type").string, "run_end");
  EXPECT_EQ(field(end, "rounds"), r.stats.rounds);
  EXPECT_EQ(field(end, "messages"), r.stats.messages_sent);
  EXPECT_EQ(field(end, "words"), r.stats.words_sent);
}

TEST(Trace, TagTrafficSumsToTotalMessages) {
  Rng rng(17);
  Graph g = graph::random_maximal_planar(40, rng);
  FlightRecorder recorder = whole_run_recorder();
  const auto r = run_gather(g, &recorder);
  ASSERT_EQ(recorder.events_dropped(), 0);
  std::map<std::string, std::int64_t> tag_messages;
  std::int64_t tagged_messages = 0, tagged_words = 0;
  for (const jsonmin::Value& e : events_of(recorder)) {
    if (e.at("type").string != "message") continue;
    ++tag_messages[e.at("tag").string];
    ++tagged_messages;
    tagged_words += field(e, "words");
  }
  EXPECT_EQ(tagged_messages, r.stats.messages_sent);
  EXPECT_EQ(tagged_words, r.stats.words_sent);
  // The gather's traffic is walk tokens.
  EXPECT_EQ(tag_messages["walk_token"], r.stats.messages_sent);
  EXPECT_STREQ(tag_name(kTagWalkToken), "walk_token");
}

TEST(Trace, PerRoundSamplesSumToTotals) {
  Rng rng(19);
  Graph g = graph::random_maximal_planar(40, rng);
  FlightRecorder recorder = whole_run_recorder();
  const auto r = run_gather(g, &recorder);
  ASSERT_EQ(recorder.events_dropped(), 0);
  std::int64_t messages = 0, words = 0;
  std::vector<std::int64_t> rounds;
  for (const jsonmin::Value& e : events_of(recorder)) {
    if (e.at("type").string != "round") continue;
    rounds.push_back(field(e, "round"));
    messages += field(e, "messages");
    words += field(e, "words");
  }
  EXPECT_EQ(static_cast<std::int64_t>(rounds.size()), r.stats.rounds);
  EXPECT_EQ(messages, r.stats.messages_sent);
  EXPECT_EQ(words, r.stats.words_sent);
  // Global round numbering is strictly increasing.
  for (std::size_t i = 1; i < rounds.size(); ++i) {
    EXPECT_EQ(rounds[i], rounds[i - 1] + 1);
  }
}

// The phase table: for a partition_and_gather run with a MetricsRegistry
// attached, the top-level "phase:*" rows' rounds sum to the ledger's
// measured total and their messages/words to the registry totals — in both
// decomposition modes, so the measured distributed construction must show
// up in phase:decomposition.
TEST(Trace, PhaseSpansReconcileWithLedgerAndRunStats) {
  Rng rng(23);
  Graph g = graph::random_maximal_planar(120, rng);
  for (const core::DecompositionMode mode :
       {core::DecompositionMode::kModeled,
        core::DecompositionMode::kDistributed}) {
    const bool distributed = mode == core::DecompositionMode::kDistributed;
    SCOPED_TRACE(distributed ? "distributed" : "modeled");
    MetricsRegistry metrics;
    core::FrameworkOptions opt;
    opt.metrics = &metrics;
    opt.decomposition_mode = mode;
    const auto p = core::partition_and_gather(g, 0.3, opt);
    ASSERT_TRUE(p.gather_complete);

    std::vector<std::string> names;
    std::int64_t phase_rounds = 0, phase_messages = 0, phase_words = 0;
    RunStats decomposition;
    for (const PhaseMetrics& ph : metrics.phases()) {
      EXPECT_TRUE(ph.closed) << ph.name;
      if (ph.depth != 0) continue;
      names.push_back(ph.name);
      phase_rounds += ph.stats.rounds;
      phase_messages += ph.stats.messages_sent;
      phase_words += ph.stats.words_sent;
      if (ph.name == "phase:decomposition") decomposition = ph.stats;
    }
    EXPECT_EQ(names, (std::vector<std::string>{
                         "phase:decomposition", "phase:election",
                         "phase:orientation", "phase:gather",
                         "phase:reconstruct"}));
    EXPECT_EQ(phase_rounds, p.ledger.measured_total());
    EXPECT_EQ(phase_messages, metrics.totals().messages_sent);
    EXPECT_EQ(phase_words, metrics.totals().words_sent);
    if (distributed) {
      EXPECT_GT(decomposition.rounds, 0);
      EXPECT_GT(decomposition.messages_sent, 0);
    } else {
      EXPECT_EQ(decomposition.rounds, 0);
    }

    // The ledger's per-phase traffic agrees with the registry. The
    // distributed decomposition's entry carries rounds only, so its
    // traffic comes from its phase row.
    std::int64_t ledger_messages = decomposition.messages_sent;
    std::int64_t ledger_words = decomposition.words_sent;
    int ledger_max_load = decomposition.max_edge_load;
    for (const auto& e : p.ledger.entries()) {
      if (!e.measured) continue;
      ledger_messages += e.stats.messages_sent;
      ledger_words += e.stats.words_sent;
      ledger_max_load = std::max(ledger_max_load, e.stats.max_edge_load);
    }
    EXPECT_EQ(ledger_messages, metrics.totals().messages_sent);
    EXPECT_EQ(ledger_words, metrics.totals().words_sent);
    EXPECT_EQ(ledger_max_load, metrics.totals().max_edge_load);
  }
}

// Every line of a flight dump is one JSON object: the "flight" meta line,
// then the run's events.
TEST(Trace, JsonlExportIsParseablePerLine) {
  Rng rng(29);
  Graph g = graph::random_maximal_planar(40, rng);
  FlightRecorder recorder = whole_run_recorder();
  core::FrameworkOptions opt;
  opt.trace = &recorder;
  core::partition_and_gather(g, 0.3, opt);
  ASSERT_EQ(recorder.events_dropped(), 0);

  std::istringstream lines(dump_of(recorder));
  std::string line;
  int count = 0;
  std::map<std::string, int> types;
  while (std::getline(lines, line)) {
    const jsonmin::Value v = jsonmin::parse(line);
    ASSERT_TRUE(v.is_object()) << line;
    ++types[v.at("type").string];
    ++count;
  }
  EXPECT_GT(count, 10);
  EXPECT_EQ(types["flight"], 1);
  for (const char* type :
       {"run_begin", "round", "message", "edge_load", "run_end"}) {
    EXPECT_GT(types[type], 0) << type;
  }
}

// Registry edges tie-break stably: equal-message edges order by (from, to)
// ascending, so the congested-edge list `ecd_cli run --trace` prints is
// deterministic. Fed synthetic traffic directly so edge totals tie exactly.
TEST(Trace, HotspotTopKTieOrderingIsStable) {
  MetricsRegistry metrics;
  metrics.begin_run(8, 8);
  // Four directed edges, all with 3 messages / 6 words, fed in an order
  // deliberately different from the expected output order.
  const std::pair<VertexId, VertexId> edges[] = {
      {5, 1}, {2, 7}, {2, 3}, {0, 4}};
  for (int round = 0; round < 3; ++round) {
    for (const auto& [from, to] : edges) {
      metrics.record_edge(from, to, 1, 2, 1);
    }
  }
  RunStats stats;
  stats.rounds = 3;
  stats.messages_sent = 12;
  stats.words_sent = 24;
  stats.max_edge_load = 1;
  metrics.end_run(stats, 0);

  const auto top = metrics.top_edges(3);  // k smaller than edge count
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].from, 0);
  EXPECT_EQ(top[0].to, 4);
  EXPECT_EQ(top[1].from, 2);
  EXPECT_EQ(top[1].to, 3);
  EXPECT_EQ(top[2].from, 2);
  EXPECT_EQ(top[2].to, 7);
  for (const EdgeLoadStats& e : top) {
    EXPECT_EQ(e.messages, 3);
    EXPECT_EQ(e.words, 6);
    EXPECT_EQ(e.peak_load, 1);
  }
}

class DoubleSendAlgo final : public VertexAlgorithm {
 public:
  void round(Context& ctx) override {
    ctx.send(0, {{1}});
    ctx.send(0, {{2}});
    done_ = true;
  }
  bool finished() const override { return done_; }

 private:
  bool done_ = false;
};

TEST(Trace, CongestionErrorCarriesRoundEdgeAndBudget) {
  Graph g = graph::path(2);
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  algos.push_back(std::make_unique<DoubleSendAlgo>());
  algos.push_back(std::make_unique<DoubleSendAlgo>());
  FlightRecorder recorder;
  NetworkOptions opt;
  opt.trace = &recorder;
  Network net(g, opt);
  try {
    net.run(algos);
    FAIL() << "expected CongestionError";
  } catch (const CongestionError& err) {
    EXPECT_EQ(err.kind(), CongestionError::Kind::kBandwidth);
    EXPECT_EQ(err.round(), 0);
    EXPECT_EQ(err.from(), 0);
    EXPECT_EQ(err.to(), 1);
    EXPECT_EQ(err.used(), 2);
    EXPECT_EQ(err.budget(), 1);
    const std::string what = err.what();
    EXPECT_NE(what.find("edge 0->1"), std::string::npos) << what;
    EXPECT_NE(what.find("round 0"), std::string::npos) << what;
    EXPECT_NE(what.find("budget 1"), std::string::npos) << what;
  }
  // The sink saw the violation before the throw.
  int violations = 0;
  for (const jsonmin::Value& e : events_of(recorder)) {
    if (e.at("type").string != "violation") continue;
    ++violations;
    EXPECT_EQ(field(e, "round"), 0);
    EXPECT_EQ(field(e, "from"), 0);
    EXPECT_EQ(field(e, "to"), 1);
    EXPECT_EQ(field(e, "used"), 2);
    EXPECT_EQ(field(e, "budget"), 1);
  }
  EXPECT_EQ(violations, 1);
}

class FatSendAlgo final : public VertexAlgorithm {
 public:
  void round(Context& ctx) override {
    Message m;
    m.words.assign(kMaxMessageWords + 2, 7);
    ctx.send(0, std::move(m));
    done_ = true;
  }
  bool finished() const override { return done_; }

 private:
  bool done_ = false;
};

TEST(Trace, MessageSizeErrorCarriesWordCounts) {
  Graph g = graph::path(2);
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  algos.push_back(std::make_unique<FatSendAlgo>());
  algos.push_back(std::make_unique<FatSendAlgo>());
  Network net(g);
  try {
    net.run(algos);
    FAIL() << "expected CongestionError";
  } catch (const CongestionError& err) {
    EXPECT_EQ(err.kind(), CongestionError::Kind::kMessageSize);
    EXPECT_EQ(err.used(), kMaxMessageWords + 2);
    EXPECT_EQ(err.budget(), kMaxMessageWords);
    EXPECT_NE(std::string(err.what()).find("O(log n)"), std::string::npos);
  }
}

TEST(Trace, ViolationsExportedInJsonl) {
  Graph g = graph::path(2);
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  algos.push_back(std::make_unique<DoubleSendAlgo>());
  algos.push_back(std::make_unique<DoubleSendAlgo>());
  FlightRecorder recorder;
  NetworkOptions opt;
  opt.trace = &recorder;
  Network net(g, opt);
  EXPECT_THROW(net.run(algos), CongestionError);
  const std::string dump = dump_of(recorder);
  EXPECT_NE(dump.find("\"type\":\"violation\""), std::string::npos);
  EXPECT_NE(dump.find("\"kind\":\"bandwidth\""), std::string::npos);
}

// --- Sharded trace lanes (DESIGN.md §18) -------------------------------------

// run_gather with full NetworkOptions control (thread count, sampling,
// faults) for the thread-invariance suites.
GatherResult run_gather_net(const Graph& g, NetworkOptions net) {
  const auto cluster = single_cluster(g);
  const auto leaders = elect_cluster_leaders(g, cluster);
  std::vector<std::vector<GatherToken>> tokens(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    tokens[v].push_back({v, {v, 1000 + v}});
  }
  GatherOptions opt;
  opt.net = net;
  opt.net.bandwidth_tokens = 4;
  return random_walk_gather(g, cluster, leaders.leader_of, tokens, opt);
}

// Per-shard trace lanes merged in fixed shard-then-trace order at the
// round barrier make the event stream — and therefore the flight dump,
// byte for byte — independent of the thread count.
// sparse_serial_threshold 0 forces real dispatched rounds (the 90-vertex
// graph would otherwise ride the serial fallback throughout).
TEST(ShardedTrace, ExportsAreByteIdenticalAcrossThreadCounts) {
  Rng rng(43);
  const Graph g = graph::random_maximal_planar(90, rng);
  FlightRecorder serial = whole_run_recorder();
  NetworkOptions ref;
  ref.trace = &serial;
  ASSERT_TRUE(run_gather_net(g, ref).complete);
  ASSERT_EQ(serial.events_dropped(), 0);
  const std::string ref_dump = dump_of(serial);
  for (int threads : {2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    FlightRecorder recorder = whole_run_recorder();
    NetworkOptions net;
    net.trace = &recorder;
    net.num_threads = threads;
    net.sparse_serial_threshold = 0;
    ASSERT_TRUE(run_gather_net(g, net).complete);
    EXPECT_EQ(dump_of(recorder), ref_dump);
  }
}

// Full-duplex chatter for a fixed number of rounds: every port loaded every
// round, so fault injection and churn have in-flight traffic to act on.
class ChatterAlgo final : public VertexAlgorithm {
 public:
  explicit ChatterAlgo(int rounds) : rounds_(rounds) {}
  void round(Context& ctx) override {
    if (ctx.round() < rounds_) {
      for (int p = 0; p < ctx.num_ports(); ++p) {
        ctx.send(p, {{ctx.round() * 131 + p}});
      }
    } else {
      done_ = true;
    }
  }
  bool finished() const override { return done_; }

 private:
  int rounds_;
  bool done_ = false;
};

std::vector<std::unique_ptr<VertexAlgorithm>> make_chatter(const Graph& g,
                                                           int rounds) {
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    algos.push_back(std::make_unique<ChatterAlgo>(rounds));
  }
  return algos;
}

// Byte-identity must survive the delivery paths that mutate traffic midway:
// duplicated and delayed messages (fault layer) and a mid-run edge delete
// with its purge replay. The fault schedule is seed-deterministic across
// thread counts, so the traced event stream must be too.
TEST(ShardedTrace, FaultedAndChurnedExportsAreThreadCountInvariant) {
  const Graph g = graph::grid(8, 8);
  const auto run_traced = [&](int threads) {
    FlightRecorder recorder = whole_run_recorder();
    NetworkOptions opt;
    opt.trace = &recorder;
    opt.num_threads = threads;
    opt.sparse_serial_threshold = 0;
    opt.faults.seed = 0xabcdULL;
    opt.faults.duplicate_probability = 0.1;
    opt.faults.delay_probability = 0.2;
    opt.faults.max_delay_rounds = 2;
    opt.faults.churn = {{ChurnKind::kEdgeDelete, 3, 0, 1},
                        {ChurnKind::kEdgeInsert, 6, 0, 1}};
    Network net(g, opt);
    auto algos = make_chatter(g, 10);
    net.run(algos);
    EXPECT_EQ(recorder.events_dropped(), 0);
    return dump_of(recorder);
  };
  const std::string ref = run_traced(1);
  EXPECT_NE(ref.find("\"type\":\"churn\""), std::string::npos);
  for (int threads : {2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(run_traced(threads), ref);
  }
}

// A violated parallel run must report the same violation the serial run
// reports: the lowest shard's first violation — which is the globally
// first violating vertex, because shard 0 owns vertex 0 and scans its
// members in order. The whole dump ties, not just the violation line.
TEST(ShardedTrace, ViolationReportMatchesSerialAcrossThreadCounts) {
  const Graph g = graph::grid(4, 4);
  const auto run_violated = [&](int threads) {
    FlightRecorder recorder = whole_run_recorder();
    NetworkOptions opt;
    opt.trace = &recorder;
    opt.num_threads = threads;
    opt.sparse_serial_threshold = 0;
    Network net(g, opt);
    std::vector<std::unique_ptr<VertexAlgorithm>> algos;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      algos.push_back(std::make_unique<DoubleSendAlgo>());
    }
    EXPECT_THROW(net.run(algos), CongestionError);
    int violations = 0;
    for (const jsonmin::Value& e : events_of(recorder)) {
      violations += e.at("type").string == "violation";
    }
    EXPECT_EQ(violations, 1);
    return dump_of(recorder);
  };
  const std::string ref = run_violated(1);
  EXPECT_NE(ref.find("\"type\":\"violation\""), std::string::npos);
  for (int threads : {2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(run_violated(threads), ref);
  }
}

// --- Sampling filters (TraceConfig) ------------------------------------------

// Sampling is a pure function of (round, receiver, tag): the filtered
// stream is deterministic, thread-count-invariant, and exactly the subset
// the filters describe.
TEST(TraceSampling, FiltersAreDeterministicAndThreadInvariant) {
  const Graph g = graph::grid(8, 8);
  const auto run_sampled = [&](int threads) {
    FlightRecorder recorder = whole_run_recorder();
    NetworkOptions opt;
    opt.trace = &recorder;
    opt.num_threads = threads;
    opt.sparse_serial_threshold = 0;
    opt.trace_config.round_period = 2;
    opt.trace_config.vertex_stride = 2;
    Network net(g, opt);
    auto algos = make_chatter(g, 9);
    net.run(algos);
    return dump_of(recorder);
  };
  const std::string ref = run_sampled(1);
  for (int threads : {4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(run_sampled(threads), ref);
  }

  // Golden subset shape: only even rounds sampled, only even receivers.
  FlightRecorder recorder = whole_run_recorder();
  NetworkOptions opt;
  opt.trace = &recorder;
  opt.trace_config.round_period = 2;
  opt.trace_config.vertex_stride = 2;
  Network net(g, opt);
  auto algos = make_chatter(g, 9);
  const RunStats stats = net.run(algos);
  ASSERT_EQ(recorder.events_dropped(), 0);
  const auto events = events_of(recorder);
  std::int64_t sampled_rounds = 0, edge_loads = 0;
  for (const jsonmin::Value& e : events) {
    const std::string& type = e.at("type").string;
    if (type == "round") {
      ++sampled_rounds;
      EXPECT_EQ(field(e, "round") % 2, 0) << "unsampled round leaked";
    } else if (type == "edge_load") {
      ++edge_loads;
      EXPECT_EQ(field(e, "round") % 2, 0) << "unsampled round leaked";
      EXPECT_EQ(field(e, "to") % 2, 0) << "unsampled receiver leaked";
    }
  }
  ASSERT_GT(sampled_rounds, 0);
  EXPECT_LT(sampled_rounds, stats.rounds);
  ASSERT_GT(edge_loads, 0);
  // Sampled-out events are filtered, not rerouted: the stream carries
  // strictly less than the run's true totals.
  EXPECT_LT(edge_load_totals(events).messages_sent, stats.messages_sent);
}

TEST(TraceSampling, TagFilterKeepsOnlyTheRequestedTag) {
  Rng rng(47);
  const Graph g = graph::random_maximal_planar(50, rng);
  FlightRecorder recorder = whole_run_recorder();
  NetworkOptions net;
  net.trace = &recorder;
  net.trace_config.tag_filter = kTagWalkToken;
  const GatherResult r = run_gather_net(g, net);
  ASSERT_TRUE(r.complete);
  ASSERT_EQ(recorder.events_dropped(), 0);
  const auto events = events_of(recorder);
  int messages = 0;
  for (const jsonmin::Value& e : events) {
    if (e.at("type").string != "message") continue;
    ++messages;
    EXPECT_EQ(field(e, "id"), kTagWalkToken);
  }
  EXPECT_GT(messages, 0);
  // Edge loads are tag-agnostic and stay complete.
  EXPECT_EQ(edge_load_totals(events).messages_sent, r.stats.messages_sent);
}

// --- FlightRecorder ----------------------------------------------------------

TEST(FlightRecorderTest, RingWrapRetainsNewestEvents) {
  FlightRecorder::Options o;
  o.ring_capacity = 8;
  o.keep_rounds = 1000;  // only the capacity bound in play
  FlightRecorder fr(o);
  // 3 events per round (2 messages + the round marker), rounds 0..4:
  // 15 events through a ring of 8.
  for (int r = 0; r < 5; ++r) {
    fr.on_message(r, kTagDefault, 1);
    fr.on_message(r, kTagDefault, 2);
    fr.on_round_end(r, 2, 3, 1);
  }
  EXPECT_EQ(fr.events_retained(), 8);
  EXPECT_EQ(fr.events_dropped(), 7);
  EXPECT_EQ(fr.last_round(), 4);
  std::ostringstream os;
  fr.dump_jsonl(os);
  const std::string text = os.str();
  EXPECT_NE(text.find("\"type\":\"flight\""), std::string::npos);
  // The oldest retained event is from round 2; rounds 0 and 1 were
  // overwritten by the wrap.
  EXPECT_EQ(text.find("\"type\":\"message\",\"round\":0"), std::string::npos);
  EXPECT_EQ(text.find("\"type\":\"message\",\"round\":1"), std::string::npos);
  EXPECT_NE(text.find("\"type\":\"message\",\"round\":4"), std::string::npos);
  EXPECT_NE(text.find("\"retained\":8"), std::string::npos);
  EXPECT_NE(text.find("\"dropped\":7"), std::string::npos);
}

TEST(FlightRecorderTest, KeepRoundsTrimsBehindTheNewestRound) {
  FlightRecorder::Options o;
  o.ring_capacity = 1 << 12;  // capacity never binds
  o.keep_rounds = 3;
  FlightRecorder fr(o);
  for (int r = 0; r < 10; ++r) {
    fr.on_message(r, kTagDefault, 1);
    fr.on_edge_load(r, 0, 1, 1, 1);
    fr.on_round_end(r, 1, 1, 1);
  }
  // Rounds 7, 8, 9 survive: 3 rounds x 3 events.
  EXPECT_EQ(fr.events_retained(), 9);
  EXPECT_EQ(fr.events_dropped(), 21);
  std::ostringstream os;
  fr.dump_jsonl(os);
  EXPECT_EQ(os.str().find("\"round\":6,"), std::string::npos);
  EXPECT_NE(os.str().find("\"type\":\"round\",\"round\":7"),
            std::string::npos);
  EXPECT_NE(os.str().find("\"type\":\"round\",\"round\":9"),
            std::string::npos);
}

// The post-mortem contract: a CongestionError auto-dumps the ring — last K
// rounds plus the violation — before the exception reaches the caller.
TEST(FlightRecorderTest, AutoDumpsRingOnCongestionAbort) {
  const Graph g = graph::path(2);
  FlightRecorder fr;
  std::ostringstream dump;
  fr.set_auto_dump(&dump);
  NetworkOptions opt;
  opt.trace = &fr;
  Network net(g, opt);
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  algos.push_back(std::make_unique<DoubleSendAlgo>());
  algos.push_back(std::make_unique<DoubleSendAlgo>());
  EXPECT_THROW(net.run(algos), CongestionError);
  const std::string text = dump.str();
  EXPECT_NE(text.find("\"type\":\"flight\""), std::string::npos);
  EXPECT_NE(text.find("\"type\":\"violation\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\":\"bandwidth\""), std::string::npos);
  EXPECT_NE(text.find("\"used\":2"), std::string::npos);
  EXPECT_NE(text.find("\"budget\":1"), std::string::npos);
}

// Sends on every port each round and throws `E` at round 2; never finishes.
template <class E>
class ThrowAtRoundTwoAlgo final : public VertexAlgorithm {
 public:
  void round(Context& ctx) override {
    if (ctx.round() == 2) throw E("algorithm bug");
    for (int p = 0; p < ctx.num_ports(); ++p) ctx.send(p, {{ctx.round()}});
  }
  bool finished() const override { return false; }
};

template <class E>
std::vector<std::unique_ptr<VertexAlgorithm>> make_throwers(const Graph& g) {
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    algos.push_back(std::make_unique<ThrowAtRoundTwoAlgo<E>>());
  }
  return algos;
}

// Every exception out of a run reaches on_abort, not only CongestionError
// and max_rounds: a VertexAlgorithm's own logic_error still ships the dump.
TEST(FlightRecorderTest, AutoDumpsRingWhenAnAlgorithmThrows) {
  const Graph g = graph::grid(4, 4);
  for (int threads : {1, 4}) {
    FlightRecorder fr;
    std::ostringstream dump;
    fr.set_auto_dump(&dump);
    NetworkOptions opt;
    opt.trace = &fr;
    opt.num_threads = threads;
    opt.sparse_serial_threshold = 0;
    Network net(g, opt);
    auto algos = make_throwers<std::logic_error>(g);
    EXPECT_THROW(net.run(algos), std::logic_error);
    const std::string text = dump.str();
    EXPECT_NE(text.find("\"type\":\"flight\""), std::string::npos) << threads;
    EXPECT_NE(text.find("\"type\":\"round\""), std::string::npos) << threads;
  }
}

class AbortReasonSink final : public TraceSink {
 public:
  void on_abort(const char* reason) override { reasons.emplace_back(reason); }
  std::vector<std::string> reasons;
};

// "max_rounds" labels round-budget exhaustion only; an algorithm's own
// runtime_error is an "algorithm_error".
TEST(Trace, AbortReasonSeparatesMaxRoundsFromAlgorithmErrors) {
  const Graph g = graph::path(4);
  AbortReasonSink sink;
  NetworkOptions opt;
  opt.trace = &sink;
  opt.max_rounds = 2;  // exhausted before the round-2 throw
  {
    Network net(g, opt);
    auto algos = make_throwers<std::runtime_error>(g);
    EXPECT_THROW(net.run(algos), std::runtime_error);
  }
  opt.max_rounds = 100;
  {
    Network net(g, opt);
    auto algos = make_throwers<std::runtime_error>(g);
    EXPECT_THROW(net.run(algos), std::runtime_error);
  }
  EXPECT_EQ(sink.reasons,
            (std::vector<std::string>{"max_rounds", "algorithm_error"}));
}

TEST(FlightRecorderTest, RecordsRunLifecycleAndStaysWithinCapacity) {
  const Graph g = graph::grid(6, 6);
  FlightRecorder::Options o;
  o.ring_capacity = 64;
  o.keep_rounds = 2;
  FlightRecorder fr(o);
  NetworkOptions opt;
  opt.trace = &fr;
  Network net(g, opt);
  auto algos = make_chatter(g, 6);
  net.run(algos);
  EXPECT_LE(fr.events_retained(), 64);
  EXPECT_GT(fr.events_retained(), 0);
  EXPECT_GT(fr.events_dropped(), 0);
  std::ostringstream os;
  fr.dump_jsonl(os);
  EXPECT_NE(os.str().find("\"type\":\"run_end\""), std::string::npos);
}

}  // namespace
}  // namespace ecd::congest
