// The observability layer (src/congest/trace.h): reconciliation of trace
// totals against RunStats and the RoundLedger, span nesting, exporters,
// and enriched congestion errors. See DESIGN.md §9.
#include <gtest/gtest.h>

#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

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
  MetricsCollector collector;
  const auto traced = run_gather(g, &collector);
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
  MetricsCollector collector;
  const auto r = run_gather(g, &collector);
  ASSERT_TRUE(r.complete);
  const RunStats totals = collector.totals();
  EXPECT_EQ(totals.rounds, r.stats.rounds);
  EXPECT_EQ(totals.messages_sent, r.stats.messages_sent);
  EXPECT_EQ(totals.words_sent, r.stats.words_sent);
  EXPECT_EQ(totals.max_edge_load, r.stats.max_edge_load);
}

TEST(Trace, TagTrafficSumsToTotalMessages) {
  Rng rng(17);
  Graph g = graph::random_maximal_planar(40, rng);
  MetricsCollector collector;
  run_gather(g, &collector);
  std::int64_t tagged_messages = 0, tagged_words = 0;
  for (const auto& [tag, stats] : collector.tag_stats()) {
    tagged_messages += stats.messages;
    tagged_words += stats.words;
  }
  EXPECT_EQ(tagged_messages, collector.totals().messages_sent);
  EXPECT_EQ(tagged_words, collector.totals().words_sent);
  // The gather's traffic is walk tokens.
  ASSERT_TRUE(collector.tag_stats().count(kTagWalkToken));
  EXPECT_GT(collector.tag_stats().at(kTagWalkToken).messages, 0);
  EXPECT_STREQ(tag_name(kTagWalkToken), "walk_token");
}

TEST(Trace, PerRoundSamplesSumToTotals) {
  Rng rng(19);
  Graph g = graph::random_maximal_planar(40, rng);
  MetricsCollector collector;
  run_gather(g, &collector);
  std::int64_t messages = 0, words = 0;
  for (const auto& s : collector.rounds()) {
    messages += s.messages;
    words += s.words;
  }
  EXPECT_EQ(static_cast<std::int64_t>(collector.rounds().size()),
            collector.totals().rounds);
  EXPECT_EQ(messages, collector.totals().messages_sent);
  EXPECT_EQ(words, collector.totals().words_sent);
  // Global round numbering is strictly increasing across runs.
  for (std::size_t i = 1; i < collector.rounds().size(); ++i) {
    EXPECT_EQ(collector.rounds()[i].round, collector.rounds()[i - 1].round + 1);
  }
}

TEST(Trace, SpansNestAndPrimitiveSpansSitInsidePhases) {
  Graph g = graph::grid(8, 8);
  MetricsCollector collector;
  core::FrameworkOptions opt;
  opt.trace = &collector;
  const auto p = core::partition_and_gather(g, 0.3, opt);
  ASSERT_TRUE(p.gather_complete);

  std::vector<std::string> phase_names;
  bool saw_nested_primitive = false;
  for (const auto& s : collector.spans()) {
    EXPECT_TRUE(s.closed) << s.name;
    if (s.depth == 0) phase_names.push_back(s.name);
    if (s.depth == 1 &&
        (s.name == "leader_election" || s.name == "walk_gather" ||
         s.name == "orientation")) {
      saw_nested_primitive = true;
    }
  }
  EXPECT_EQ(phase_names,
            (std::vector<std::string>{"phase:decomposition", "phase:election",
                                      "phase:orientation", "phase:gather",
                                      "phase:reconstruct"}));
  EXPECT_TRUE(saw_nested_primitive);
}

// The ISSUE acceptance criterion: for a partition_and_gather run with a
// MetricsCollector attached, per-span round counts sum to the ledger's
// measured total and per-span message/word counts sum to RunStats.
TEST(Trace, PhaseSpansReconcileWithLedgerAndRunStats) {
  Rng rng(23);
  Graph g = graph::random_maximal_planar(120, rng);
  MetricsCollector collector;
  core::FrameworkOptions opt;
  opt.trace = &collector;
  const auto p = core::partition_and_gather(g, 0.3, opt);
  ASSERT_TRUE(p.gather_complete);

  std::int64_t span_rounds = 0, span_messages = 0, span_words = 0;
  for (const auto& s : collector.spans()) {
    if (s.depth != 0) continue;
    span_rounds += s.rounds;
    span_messages += s.messages;
    span_words += s.words;
  }
  EXPECT_EQ(span_rounds, p.ledger.measured_total());
  EXPECT_EQ(span_messages, collector.totals().messages_sent);
  EXPECT_EQ(span_words, collector.totals().words_sent);

  // Ledger entries carry the per-phase traffic recorded by the trace layer,
  // and their sums agree with the collector's grand totals.
  std::int64_t ledger_messages = 0, ledger_words = 0;
  int ledger_max_load = 0;
  for (const auto& e : p.ledger.entries()) {
    if (!e.measured) continue;
    ledger_messages += e.stats.messages_sent;
    ledger_words += e.stats.words_sent;
    ledger_max_load = std::max(ledger_max_load, e.stats.max_edge_load);
  }
  EXPECT_EQ(ledger_messages, collector.totals().messages_sent);
  EXPECT_EQ(ledger_words, collector.totals().words_sent);
  EXPECT_EQ(ledger_max_load, collector.totals().max_edge_load);
}

// Minimal structure-aware JSON checker: balanced {} and [] outside strings,
// valid escapes, and nothing after the top-level value.
bool json_balanced(const std::string& text) {
  int depth = 0;
  bool in_string = false, escaped = false, seen_value = false;
  for (char c : text) {
    if (in_string) {
      if (escaped) {
        escaped = false;
      } else if (c == '\\') {
        escaped = true;
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"': in_string = true; break;
      case '{': case '[': ++depth; seen_value = true; break;
      case '}': case ']':
        if (--depth < 0) return false;
        break;
      default: break;
    }
    if (seen_value && depth == 0 && !std::isspace(static_cast<unsigned char>(c)) &&
        c != '}' && c != ']') {
      return false;
    }
  }
  return depth == 0 && !in_string && seen_value;
}

TEST(Trace, JsonlExportIsParseablePerLine) {
  Rng rng(29);
  Graph g = graph::random_maximal_planar(40, rng);
  MetricsCollector collector;
  core::FrameworkOptions opt;
  opt.trace = &collector;
  core::partition_and_gather(g, 0.3, opt);

  std::ostringstream os;
  export_jsonl(collector, os);
  std::istringstream lines(os.str());
  std::string line;
  int count = 0;
  bool saw_meta = false, saw_span = false, saw_tag = false, saw_edge = false;
  while (std::getline(lines, line)) {
    ASSERT_TRUE(json_balanced(line)) << line;
    ++count;
    saw_meta |= line.find("\"type\":\"meta\"") != std::string::npos;
    saw_span |= line.find("\"type\":\"span\"") != std::string::npos;
    saw_tag |= line.find("\"type\":\"tag\"") != std::string::npos;
    saw_edge |= line.find("\"type\":\"edge\"") != std::string::npos;
  }
  EXPECT_GT(count, 10);
  EXPECT_TRUE(saw_meta);
  EXPECT_TRUE(saw_span);
  EXPECT_TRUE(saw_tag);
  EXPECT_TRUE(saw_edge);
}

TEST(Trace, ChromeTraceExportIsParseable) {
  Rng rng(31);
  Graph g = graph::random_maximal_planar(40, rng);
  MetricsCollector collector;
  core::FrameworkOptions opt;
  opt.trace = &collector;
  core::partition_and_gather(g, 0.3, opt);

  std::ostringstream os;
  export_chrome_trace(collector, os);
  const std::string text = os.str();
  EXPECT_TRUE(json_balanced(text));
  EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(text.find("\"ph\":\"X\""), std::string::npos);  // spans
  EXPECT_NE(text.find("\"ph\":\"C\""), std::string::npos);  // counters
  EXPECT_NE(text.find("phase:gather"), std::string::npos);
}

TEST(Trace, HotspotReportNamesCongestedEdgesAndPercentiles) {
  Rng rng(37);
  Graph g = graph::random_maximal_planar(60, rng);
  MetricsCollector collector;
  core::FrameworkOptions opt;
  opt.trace = &collector;
  core::partition_and_gather(g, 0.3, opt);

  const std::string report = hotspot_report(collector, 5);
  EXPECT_NE(report.find("top congested directed edges"), std::string::npos);
  EXPECT_NE(report.find("p50="), std::string::npos);
  EXPECT_NE(report.find("p99="), std::string::npos);
  EXPECT_NE(report.find("phase:gather"), std::string::npos);
  // Percentiles are sane: p50 <= p99 <= peak load.
  EXPECT_LE(collector.load_percentile(50), collector.load_percentile(99));
  EXPECT_LE(collector.load_percentile(99),
            static_cast<double>(collector.totals().max_edge_load));
  EXPECT_GE(collector.load_percentile(50), 1.0);  // only loaded edges sampled
  // Top-k really is bounded and sorted.
  const auto top = collector.top_edges(3);
  ASSERT_LE(top.size(), 3u);
  for (std::size_t i = 1; i < top.size(); ++i) {
    EXPECT_GE(top[i - 1].messages, top[i].messages);
  }
}

// Golden-structure check: the Chrome trace must be a real JSON document
// whose traceEvents array contains exactly one complete ("X") event per
// recorded span, each with a positive duration, plus two counter ("C")
// tracks per round sample. Parsed with the strict tools/ JSON parser, not
// just brace-balanced.
TEST(Trace, ChromeTraceGoldenStructure) {
  Rng rng(41);
  Graph g = graph::random_maximal_planar(40, rng);
  MetricsCollector collector;
  core::FrameworkOptions opt;
  opt.trace = &collector;
  core::partition_and_gather(g, 0.3, opt);

  std::ostringstream os;
  export_chrome_trace(collector, os);
  const jsonmin::Value doc = jsonmin::parse(os.str());
  ASSERT_TRUE(doc.is_object());
  const jsonmin::Value& events = doc.at("traceEvents");
  ASSERT_TRUE(events.is_array());

  std::size_t complete_events = 0, counter_events = 0;
  for (const jsonmin::Value& ev : events.items) {
    ASSERT_TRUE(ev.is_object());
    const std::string& ph = ev.at("ph").string;
    EXPECT_FALSE(ev.at("name").string.empty());
    EXPECT_GE(ev.at("ts").number, 0.0);
    if (ph == "X") {
      ++complete_events;
      // Zero-round spans are widened to dur 1 so they stay visible.
      EXPECT_GE(ev.at("dur").number, 1.0);
      const jsonmin::Value& args = ev.at("args");
      EXPECT_NE(args.find("rounds"), nullptr);
      EXPECT_NE(args.find("messages"), nullptr);
      EXPECT_NE(args.find("max_edge_load"), nullptr);
    } else if (ph == "C") {
      ++counter_events;
    } else {
      EXPECT_EQ(ph, "i");  // violation instants are the only other kind
    }
  }
  EXPECT_EQ(complete_events, collector.spans().size());
  EXPECT_EQ(counter_events, 2 * collector.rounds().size());
  // Every span the collector recorded appears by name.
  for (const SpanStats& s : collector.spans()) {
    EXPECT_NE(os.str().find("\"name\":\"" + s.name + "\""),
              std::string::npos)
        << s.name;
  }
}

// Feeds the collector synthetic traffic directly through the TraceSink
// interface so edge totals tie exactly, then pins the documented
// tie-break: equal-message edges order by (from, to) ascending — both in
// top_edges() and in the hotspot report text.
TEST(Trace, HotspotTopKTieOrderingIsStable) {
  MetricsCollector collector;
  NetworkOptions net;
  collector.on_run_begin(8, 8, net);
  // Four directed edges, all with 3 messages / 6 words, fed in an order
  // deliberately different from the expected output order.
  const std::pair<VertexId, VertexId> edges[] = {
      {5, 1}, {2, 7}, {2, 3}, {0, 4}};
  for (int round = 0; round < 3; ++round) {
    for (const auto& [from, to] : edges) {
      collector.on_edge_load(round, from, to, 1, 2);
    }
    collector.on_round_end(round, 4, 8, 1);
  }
  RunStats stats;
  stats.rounds = 3;
  stats.messages_sent = 12;
  stats.words_sent = 24;
  stats.max_edge_load = 1;
  collector.on_run_end(stats);

  const auto top = collector.top_edges(3);  // k smaller than edge count
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].from, 0);
  EXPECT_EQ(top[0].to, 4);
  EXPECT_EQ(top[1].from, 2);
  EXPECT_EQ(top[1].to, 3);
  EXPECT_EQ(top[2].from, 2);
  EXPECT_EQ(top[2].to, 7);
  for (const EdgeTraffic& e : top) {
    EXPECT_EQ(e.messages, 3);
    EXPECT_EQ(e.words, 6);
    EXPECT_EQ(e.peak_load, 1);
  }

  // The rendered report lists the same edges in the same stable order.
  const std::string report = hotspot_report(collector, 3);
  const auto pos_04 = report.find("0->4");
  const auto pos_23 = report.find("2->3");
  const auto pos_27 = report.find("2->7");
  ASSERT_NE(pos_04, std::string::npos);
  ASSERT_NE(pos_23, std::string::npos);
  ASSERT_NE(pos_27, std::string::npos);
  EXPECT_EQ(report.find("5->1"), std::string::npos);  // cut by k=3
  EXPECT_LT(pos_04, pos_23);
  EXPECT_LT(pos_23, pos_27);
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
  MetricsCollector collector;
  NetworkOptions opt;
  opt.trace = &collector;
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
  ASSERT_EQ(collector.violations().size(), 1u);
  EXPECT_EQ(collector.violations()[0].used, 2);
  EXPECT_EQ(collector.violations()[0].budget, 1);
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
  MetricsCollector collector;
  NetworkOptions opt;
  opt.trace = &collector;
  Network net(g, opt);
  EXPECT_THROW(net.run(algos), CongestionError);
  std::ostringstream os;
  export_jsonl(collector, os);
  EXPECT_NE(os.str().find("\"type\":\"violation\""), std::string::npos);
  EXPECT_NE(os.str().find("\"kind\":\"bandwidth\""), std::string::npos);
}

// --- Sharded trace lanes (DESIGN.md §18) -------------------------------------

std::string jsonl_of(const MetricsCollector& c) {
  std::ostringstream os;
  export_jsonl(c, os);
  return os.str();
}

std::string chrome_of(const MetricsCollector& c) {
  std::ostringstream os;
  export_chrome_trace(c, os);
  return os.str();
}

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

// The tentpole acceptance criterion: per-shard trace lanes merged in fixed
// shard-then-trace order at the round barrier make the event stream — and
// therefore both exporters, byte for byte — independent of the thread
// count. sparse_serial_threshold 0 forces real dispatched rounds (the
// 90-vertex graph would otherwise ride the serial fallback throughout).
TEST(ShardedTrace, ExportsAreByteIdenticalAcrossThreadCounts) {
  Rng rng(43);
  const Graph g = graph::random_maximal_planar(90, rng);
  MetricsCollector serial;
  NetworkOptions ref;
  ref.trace = &serial;
  ASSERT_TRUE(run_gather_net(g, ref).complete);
  const std::string ref_jsonl = jsonl_of(serial);
  const std::string ref_chrome = chrome_of(serial);
  for (int threads : {2, 4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    MetricsCollector mc;
    NetworkOptions net;
    net.trace = &mc;
    net.num_threads = threads;
    net.sparse_serial_threshold = 0;
    ASSERT_TRUE(run_gather_net(g, net).complete);
    EXPECT_EQ(jsonl_of(mc), ref_jsonl);
    EXPECT_EQ(chrome_of(mc), ref_chrome);
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
    MetricsCollector mc;
    NetworkOptions opt;
    opt.trace = &mc;
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
    return jsonl_of(mc);
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
// members in order. The whole export ties, not just the violation line.
TEST(ShardedTrace, ViolationReportMatchesSerialAcrossThreadCounts) {
  const Graph g = graph::grid(4, 4);
  const auto run_violated = [&](int threads) {
    MetricsCollector mc;
    NetworkOptions opt;
    opt.trace = &mc;
    opt.num_threads = threads;
    opt.sparse_serial_threshold = 0;
    Network net(g, opt);
    std::vector<std::unique_ptr<VertexAlgorithm>> algos;
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      algos.push_back(std::make_unique<DoubleSendAlgo>());
    }
    EXPECT_THROW(net.run(algos), CongestionError);
    EXPECT_EQ(mc.violations().size(), 1u);
    return jsonl_of(mc);
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
    MetricsCollector mc;
    NetworkOptions opt;
    opt.trace = &mc;
    opt.num_threads = threads;
    opt.sparse_serial_threshold = 0;
    opt.trace_config.round_period = 2;
    opt.trace_config.vertex_stride = 2;
    Network net(g, opt);
    auto algos = make_chatter(g, 9);
    net.run(algos);
    return jsonl_of(mc);
  };
  const std::string ref = run_sampled(1);
  for (int threads : {4, 8}) {
    SCOPED_TRACE("threads=" + std::to_string(threads));
    EXPECT_EQ(run_sampled(threads), ref);
  }

  // Golden subset shape: only even rounds sampled, only even receivers.
  MetricsCollector mc;
  NetworkOptions opt;
  opt.trace = &mc;
  opt.trace_config.round_period = 2;
  opt.trace_config.vertex_stride = 2;
  Network net(g, opt);
  auto algos = make_chatter(g, 9);
  const RunStats stats = net.run(algos);
  ASSERT_GT(mc.rounds().size(), 0u);
  for (const RoundSample& r : mc.rounds()) {
    EXPECT_EQ(r.round % 2, 0) << "unsampled round leaked";
  }
  EXPECT_LT(static_cast<std::int64_t>(mc.rounds().size()), stats.rounds);
  const auto edges = mc.top_edges(-1);
  ASSERT_GT(edges.size(), 0u);
  for (const EdgeTraffic& e : edges) {
    EXPECT_EQ(e.to % 2, 0) << "unsampled receiver leaked";
  }
  // Sampled-out events are filtered, not rerouted: the collector saw
  // strictly less than the run's true totals.
  EXPECT_LT(mc.totals().messages_sent, stats.messages_sent);
}

TEST(TraceSampling, TagFilterKeepsOnlyTheRequestedTag) {
  Rng rng(47);
  const Graph g = graph::random_maximal_planar(50, rng);
  MetricsCollector mc;
  NetworkOptions net;
  net.trace = &mc;
  net.trace_config.tag_filter = kTagWalkToken;
  ASSERT_TRUE(run_gather_net(g, net).complete);
  ASSERT_FALSE(mc.tag_stats().empty());
  for (const auto& [tag, stats] : mc.tag_stats()) {
    EXPECT_EQ(tag, kTagWalkToken);
  }
  // Edge loads are tag-agnostic and stay complete.
  EXPECT_GT(mc.totals().messages_sent, 0);
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

TEST(Trace, SpanGuardToleratesNullSink) {
  // TRACE_SPAN with a null sink must compile to a no-op.
  TRACE_SPAN(nullptr, "nothing");
  MetricsCollector collector;
  {
    TRACE_SPAN(&collector, "outer");
    { TRACE_SPAN(&collector, "inner"); }
  }
  ASSERT_EQ(collector.spans().size(), 2u);
  EXPECT_EQ(collector.spans()[0].name, "outer");
  EXPECT_EQ(collector.spans()[0].depth, 0);
  EXPECT_EQ(collector.spans()[1].name, "inner");
  EXPECT_EQ(collector.spans()[1].depth, 1);
  EXPECT_TRUE(collector.spans()[0].closed);
  EXPECT_TRUE(collector.spans()[1].closed);
}

}  // namespace
}  // namespace ecd::congest
