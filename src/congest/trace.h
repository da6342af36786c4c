// Round-level tracing & congestion metrics for the CONGEST simulator
// (DESIGN.md §9 "Observability").
//
// Every claim in this reproduction — Lemma 2.4's O(log n)-messages-per-edge
// walk congestion, Theorem 2.6's phase-by-phase round budget, the
// LOCAL–CONGEST gap — is a statement about per-edge, per-round traffic.
// This layer turns those proofs into inspectable data:
//
//   * TraceSink — observer interface the Network run loop feeds with
//     structured events: round boundaries, per-edge load samples,
//     per-message-tag counts, congestion-limit violations, and named
//     phase spans (TRACE_SPAN) that nest.
//   * MetricsCollector — the standard sink: aggregates a span tree with
//     per-span rounds/messages/words/max-edge-load, per-round samples on a
//     global (cross-run) timeline, per-tag traffic, per-edge totals, and a
//     histogram of edge load per (edge, round) sample.
//   * Exporters — JSONL (one event object per line) and Chrome
//     `trace_event` format (load into chrome://tracing or Perfetto), plus
//     a host-side hotspot report (top-k congested edges, per-phase load
//     histogram, p50/p99 messages-per-edge-per-round).
//
// The sink hangs off NetworkOptions::trace; a null sink (the default)
// costs one predictable branch per outbox and nothing else.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <map>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "src/congest/network.h"

namespace ecd::congest {

// Observer for simulator events. All callbacks have empty default bodies so
// sinks override only what they need. One TraceSink instance may observe
// many Network runs (the framework's phases are separate runs); rounds
// passed to callbacks restart at 0 per run — sinks that want a continuous
// timeline keep their own cumulative offset (MetricsCollector does).
class TraceSink {
 public:
  virtual ~TraceSink() = default;

  // A Network::run started / finished (stats are that run's totals).
  virtual void on_run_begin(int num_vertices, int num_edges,
                            const NetworkOptions& options) {
    (void)num_vertices, (void)num_edges, (void)options;
  }
  virtual void on_run_end(const RunStats& stats) { (void)stats; }

  // Delivery of round `round` completed with these per-round totals.
  virtual void on_round_end(std::int64_t round, std::int64_t messages,
                            std::int64_t words, int max_edge_load) {
    (void)round, (void)messages, (void)words, (void)max_edge_load;
  }

  // Directed edge from->to carried `messages` messages totalling `words`
  // words in round `round`. Only called for edges that carried traffic.
  virtual void on_edge_load(std::int64_t round, graph::VertexId from,
                            graph::VertexId to, int messages,
                            std::int64_t words) {
    (void)round, (void)from, (void)to, (void)messages, (void)words;
  }

  // One message with tag `tag` (MsgTag or user value) was delivered.
  virtual void on_message(std::int64_t round, int tag, int words) {
    (void)round, (void)tag, (void)words;
  }

  // `events` scheduled topology events (FaultPlan::churn) fired before
  // round `round`'s compute phase. Only called when at least one fired.
  virtual void on_churn(std::int64_t round, int events) {
    (void)round, (void)events;
  }

  // One topology event fired before round `round`'s compute phase. Edge
  // events carry both endpoints; node events carry u with
  // v == graph::kInvalidVertex. Emitted per event, in schedule order, from
  // the caller thread — immediately before the matching lump on_churn.
  virtual void on_churn_event(std::int64_t round, ChurnKind kind,
                              graph::VertexId u, graph::VertexId v) {
    (void)round, (void)kind, (void)u, (void)v;
  }

  // `count` in-flight messages stranded on the dead edge from->to were
  // purged during round `round`'s delivery (churn killed the edge under
  // pending traffic — delayed messages, undelivered sends). Dead-port
  // *send* drops are not per-event (the send never entered a mailbox);
  // they appear only in RunStats::messages_purged.
  virtual void on_churn_purge(std::int64_t round, graph::VertexId from,
                              graph::VertexId to, int count) {
    (void)round, (void)from, (void)to, (void)count;
  }

  // A congestion-limit violation is about to be thrown.
  virtual void on_violation(const CongestionError& err) { (void)err; }

  // The run is unwinding abnormally: `reason` is "congestion"
  // (CongestionError — the violation above was already reported),
  // "max_rounds" (the round budget ran out) or "algorithm_error" (any other
  // exception, e.g. one a VertexAlgorithm threw). Fired from Network::run
  // before the exception propagates; flight recorders use it to dump their
  // ring (post-mortem artifact).
  virtual void on_abort(const char* reason) { (void)reason; }

  // Named phase spans; may nest (a span closed is the innermost open one).
  virtual void on_span_begin(const std::string& name) { (void)name; }
  virtual void on_span_end(const std::string& name) { (void)name; }
};

// RAII guard for a named span. Null sink => no-op.
class TraceSpan {
 public:
  TraceSpan(TraceSink* sink, std::string name)
      : sink_(sink), name_(std::move(name)) {
    if (sink_) sink_->on_span_begin(name_);
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;
  ~TraceSpan() {
    if (sink_) sink_->on_span_end(name_);
  }

 private:
  TraceSink* sink_;
  std::string name_;
};

#define ECD_TRACE_CONCAT_INNER(a, b) a##b
#define ECD_TRACE_CONCAT(a, b) ECD_TRACE_CONCAT_INNER(a, b)
// Opens a span for the rest of the enclosing scope.
#define TRACE_SPAN(sink, name)                                       \
  ::ecd::congest::TraceSpan ECD_TRACE_CONCAT(ecd_trace_span_,        \
                                             __LINE__)((sink), (name))

// Aggregates of one completed (or still open) span. Spans accrue every
// event that happens while they are open, so a parent's numbers include
// its children's.
struct SpanStats {
  std::string name;
  int depth = 0;                 // 0 = top-level phase
  std::int64_t begin_round = 0;  // global round index when opened
  std::int64_t rounds = 0;
  std::int64_t messages = 0;
  std::int64_t words = 0;
  int max_edge_load = 0;
  std::int64_t violations = 0;
  bool closed = false;
  // edge load -> number of (edge, round) samples with that load.
  std::map<int, std::int64_t> load_histogram;
};

struct RoundSample {
  std::int64_t round = 0;  // global (cross-run) index
  std::int64_t messages = 0;
  std::int64_t words = 0;
  int max_edge_load = 0;
};

struct TagStats {
  std::int64_t messages = 0;
  std::int64_t words = 0;
};

struct EdgeTraffic {
  graph::VertexId from = graph::kInvalidVertex;
  graph::VertexId to = graph::kInvalidVertex;
  std::int64_t messages = 0;
  std::int64_t words = 0;
  int peak_load = 0;  // max messages in a single round
};

struct ViolationRecord {
  CongestionError::Kind kind = CongestionError::Kind::kBandwidth;
  std::int64_t round = 0;  // global round index
  graph::VertexId from = graph::kInvalidVertex;
  graph::VertexId to = graph::kInvalidVertex;
  int used = 0;
  int budget = 0;
};

// Aggregated topology-churn observations (DESIGN.md §17 events as seen by
// the trace layer).
struct ChurnStats {
  std::int64_t edge_inserts = 0;
  std::int64_t edge_deletes = 0;
  std::int64_t node_leaves = 0;
  std::int64_t node_joins = 0;
  std::int64_t purge_events = 0;      // dead edges purged under traffic
  std::int64_t messages_purged = 0;   // messages those purges removed
  std::int64_t total_events() const {
    return edge_inserts + edge_deletes + node_leaves + node_joins;
  }
};

// The standard metrics sink. Attach one instance to NetworkOptions::trace
// (directly or via FrameworkOptions::trace) and read it after the run(s).
class MetricsCollector : public TraceSink {
 public:
  void on_run_begin(int num_vertices, int num_edges,
                    const NetworkOptions& options) override;
  void on_run_end(const RunStats& stats) override;
  void on_round_end(std::int64_t round, std::int64_t messages,
                    std::int64_t words, int max_edge_load) override;
  void on_edge_load(std::int64_t round, graph::VertexId from,
                    graph::VertexId to, int messages,
                    std::int64_t words) override;
  void on_message(std::int64_t round, int tag, int words) override;
  void on_churn_event(std::int64_t round, ChurnKind kind, graph::VertexId u,
                      graph::VertexId v) override;
  void on_churn_purge(std::int64_t round, graph::VertexId from,
                      graph::VertexId to, int count) override;
  void on_violation(const CongestionError& err) override;
  void on_span_begin(const std::string& name) override;
  void on_span_end(const std::string& name) override;

  // Grand totals across every observed run. rounds/messages/words sum the
  // runs; max_edge_load is the max over them — exactly how RunStats from
  // the individual runs combine.
  RunStats totals() const;
  int runs_observed() const { return runs_observed_; }

  // Spans in opening order (pre-order of the span tree); open spans have
  // closed == false and partial numbers.
  const std::vector<SpanStats>& spans() const { return spans_; }
  // Per-round samples on the global timeline (one per executed round).
  const std::vector<RoundSample>& rounds() const { return rounds_; }
  // Traffic per message tag (key: MsgTag or user tag).
  const std::map<int, TagStats>& tag_stats() const { return tags_; }
  const std::vector<ViolationRecord>& violations() const {
    return violations_;
  }
  // Topology-churn totals across every observed run (all zero on
  // churn-free networks).
  const ChurnStats& churn_stats() const { return churn_; }

  // Directed edges sorted by total messages, descending; at most k
  // (k < 0: all edges).
  std::vector<EdgeTraffic> top_edges(int k) const;
  // Global histogram: edge load -> number of (edge, round) samples.
  const std::map<int, std::int64_t>& load_histogram() const {
    return load_histogram_;
  }
  // Percentile (p in [0,100]) of messages-per-edge-per-round over all
  // loaded (edge, round) samples; 0 when no traffic was observed.
  double load_percentile(double p) const;

 private:
  int runs_observed_ = 0;
  std::int64_t run_base_round_ = 0;  // global round offset of current run
  std::int64_t total_rounds_ = 0;
  std::int64_t total_messages_ = 0;
  std::int64_t total_words_ = 0;
  int max_edge_load_ = 0;
  std::vector<SpanStats> spans_;
  std::vector<std::size_t> open_spans_;  // indices into spans_
  std::vector<RoundSample> rounds_;
  std::map<int, TagStats> tags_;
  std::vector<ViolationRecord> violations_;
  std::unordered_map<std::uint64_t, EdgeTraffic> edges_;
  std::map<int, std::int64_t> load_histogram_;
  ChurnStats churn_;
};

// Bounded-memory post-mortem sink (DESIGN.md §18): a preallocated ring of
// compact POD events retaining the most recent `ring_capacity` events,
// additionally trimmed at each round boundary so at most the last
// `keep_rounds` rounds survive. Steady state allocates nothing (audited by
// sparse_alloc_test) and memory is fixed at construction — the sink for
// traced runs at n >= 10^6, where MetricsCollector's per-round/per-edge
// growth is the problem this class exists to avoid. On an abnormal run end
// (any exception out of Network::run — TraceSink::on_abort) the ring dumps
// itself to the configured stream automatically, shipping the last K
// rounds of events as the failure artifact.
class FlightRecorder : public TraceSink {
 public:
  struct Options {
    int ring_capacity = 1 << 16;  // events retained, absolute ceiling
    int keep_rounds = 64;         // rounds retained behind the newest
  };
  FlightRecorder();
  explicit FlightRecorder(Options options);

  void on_run_begin(int num_vertices, int num_edges,
                    const NetworkOptions& options) override;
  void on_run_end(const RunStats& stats) override;
  void on_round_end(std::int64_t round, std::int64_t messages,
                    std::int64_t words, int max_edge_load) override;
  void on_edge_load(std::int64_t round, graph::VertexId from,
                    graph::VertexId to, int messages,
                    std::int64_t words) override;
  void on_message(std::int64_t round, int tag, int words) override;
  void on_churn_event(std::int64_t round, ChurnKind kind, graph::VertexId u,
                      graph::VertexId v) override;
  void on_churn_purge(std::int64_t round, graph::VertexId from,
                      graph::VertexId to, int count) override;
  void on_violation(const CongestionError& err) override;
  void on_abort(const char* reason) override;

  // Dump target for on_abort (and, when dump_on_purge, the first churn
  // purge of a run). Null (the default) disables auto-dumping.
  void set_auto_dump(std::ostream* os, bool dump_on_purge = false) {
    auto_dump_ = os;
    dump_on_purge_ = dump_on_purge;
  }

  // Events currently retained, oldest first.
  std::int64_t events_retained() const { return size_; }
  std::int64_t events_dropped() const { return dropped_; }
  std::int64_t last_round() const { return last_round_; }
  // Writes the retained events as JSONL: a "flight" meta line, then one
  // event object per line, oldest first.
  void dump_jsonl(std::ostream& os) const;

  // One ring slot. Type-specific payloads share the int64 fields; unused
  // fields are zero.
  enum class EventKind : std::uint8_t {
    kRunBegin,   // a = vertices, b = edges
    kRound,      // a = messages, b = words, c = max_edge_load
    kEdgeLoad,   // a = from, b = to, c = messages, d = words
    kMessage,    // a = tag, b = words
    kChurn,      // a = ChurnKind, b = u, c = v
    kPurge,      // a = from, b = to, c = count
    kViolation,  // a = kind, b = from, c = to, d = used<<32|budget
    kRunEnd,     // a = rounds, b = messages, c = words
  };
  struct Event {
    EventKind kind = EventKind::kRound;
    std::int64_t round = 0;
    std::int64_t a = 0;
    std::int64_t b = 0;
    std::int64_t c = 0;
    std::int64_t d = 0;
  };

 private:
  void push(const Event& e);
  void trim_rounds(std::int64_t newest_round);

  Options options_;
  std::vector<Event> ring_;     // capacity fixed at construction
  std::int64_t head_ = 0;       // index of oldest retained event
  std::int64_t size_ = 0;       // events retained
  std::int64_t dropped_ = 0;    // events overwritten or trimmed
  std::int64_t last_round_ = -1;
  std::int64_t run_base_round_ = 0;  // global round offset of current run
  std::ostream* auto_dump_ = nullptr;
  bool dump_on_purge_ = false;
  bool purge_dumped_ = false;
};

// --- Exporters -----------------------------------------------------------------

// One JSON object per line: a "meta" header, then "span", "round", "tag",
// "edge" and "violation" records (schema in DESIGN.md §9).
void export_jsonl(const MetricsCollector& collector, std::ostream& os);

// Chrome trace_event JSON ({"traceEvents": [...]}): spans as complete
// ("X") events and per-round counter ("C") tracks, 1 round = 1 µs. Open
// with chrome://tracing or https://ui.perfetto.dev.
void export_chrome_trace(const MetricsCollector& collector, std::ostream& os);

// Human-readable congestion hotspot summary: top-k congested directed
// edges, per-phase edge-load histogram, and p50/p99 of
// messages-per-edge-per-round.
std::string hotspot_report(const MetricsCollector& collector, int top_k = 10);

}  // namespace ecd::congest
