// Pipeline benchmark worker (see README.md in this directory).
//
// Runs one workload of the Theorem 2.6 pipeline. A workload is a set of
// instances (graph plus pipeline seed) derived from --seed. The worker builds
// every instance's graph, runs the pipeline composed from the layers' public
// functions once per instance (partition checks, the instance's exact
// counts), then calls the application entry point (core::mis_approx or
// core::mcm_planar_approx) back to back over the instances in a closed loop
// with one caller, checking every output and reading each call's peak
// resident memory. With
// --trace 1 it also runs the composed pipeline with a span around each call
// into a layer; the spans are kept in memory and written to --out-dir when
// the run ends. The last line of stdout is one JSON object with the keys
// "correct", "attempted", "failed" and "metrics".
//
//   pipeline_bench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//                  [--out-dir <dir>]

#include <malloc.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "src/congest/metrics.h"
#include "src/congest/round_ledger.h"
#include "src/core/framework.h"
#include "src/core/matching.h"
#include "src/core/mis.h"
#include "src/expander/decomposition.h"
#include "src/expander/distributed_decomposition.h"
#include "src/graph/generators.h"
#include "src/graph/splitmix.h"
#include "src/graph/subgraph.h"
#include "src/seq/matching.h"
#include "src/seq/mis.h"

namespace {

using namespace ecd;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t h = v.size() / 2;
  return v.size() % 2 ? v[h] : 0.5 * (v[h - 1] + v[h]);
}

// Samples of one quantity, one list per instance.
using PerInstance = std::vector<std::vector<double>>;

// Each instance's median, for the instances a loop reached.
std::vector<double> instance_medians(const PerInstance& samples) {
  std::vector<double> out;
  for (const auto& s : samples) {
    if (!s.empty()) out.push_back(median(s));
  }
  return out;
}

// Per-call value of a layer: each instance's median, averaged over the
// instances, so that the layers' values add up like their spans do.
double instance_average(const PerInstance& samples) {
  const std::vector<double> m = instance_medians(samples);
  return m.empty() ? 0.0
                   : std::accumulate(m.begin(), m.end(), 0.0) / m.size();
}

// --- Peak memory of one call -------------------------------------------------

// Returns free heap memory to the kernel (all but the free tops of other
// threads' malloc arenas, which glibc does not trim) and resets the process's
// peak resident set (VmHWM) to its current size. False if the kernel does not
// allow the reset.
bool reset_peak_rss() {
  malloc_trim(0);
  std::ofstream clear_refs("/proc/self/clear_refs");
  clear_refs << "5";
  clear_refs.close();
  return !clear_refs.fail();
}

// VmHWM of this process in MiB.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024;
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

// --- Workloads ---------------------------------------------------------------

constexpr double kEps = 0.2;
// Lowered from the 4M default so a budget-exhausting cluster costs a fraction
// of a second per call instead of seconds.
constexpr std::int64_t kMisNodeBudget = 250'000;
// Fewest calls in a timed or traced loop, whatever --seconds says.
constexpr std::size_t kMinCalls = 3;
// Instances the traced run also runs at the other thread count and
// decomposes standalone.
constexpr std::size_t kProbeInstances = 8;
// Concurrent calls of the untimed composed pass.
constexpr int kCheckThreads = 4;

enum class App { kMis, kMcm };

struct Workload {
  const char* name;
  App app;
  int threads;
  core::DecompositionMode mode;
  // Instances per run. Simulated rounds vary by 20-40% between single
  // instances (walk hitting times, component shapes) with a long upper tail;
  // the median over this many keeps the run-to-run spread of the end-to-end
  // metrics within the benchmark's bounds.
  int instances;
  graph::Graph (*build)(std::uint64_t instance_seed);
};

// Why each workload exists is recorded in README.md.
const Workload kWorkloads[] = {
    {"mis_planar", App::kMis, 1, core::DecompositionMode::kModeled, 128,
     [](std::uint64_t seed) {
       graph::Rng rng(seed);
       return graph::random_planar(512, 1024, rng);
     }},
    {"mcm_grid", App::kMcm, 1, core::DecompositionMode::kModeled, 64,
     [](std::uint64_t) { return graph::grid(16, 16); }},
    {"mcm_planar_dist_t4", App::kMcm, 4,
     core::DecompositionMode::kDistributed, 64,
     [](std::uint64_t seed) {
       graph::Rng rng(seed);
       return graph::random_planar(1024, 2048, rng);
     }},
};

std::uint64_t instance_seed(std::uint64_t seed, int instance) {
  return graph::splitmix64(graph::splitmix64(seed) + instance);
}

core::FrameworkOptions framework_options(const Workload& w,
                                         std::uint64_t seed, int threads) {
  core::FrameworkOptions f;
  f.seed = seed;
  f.num_threads = threads;
  f.decomposition_mode = w.mode;
  return f;
}

// Every simulated statistic a host-only change must leave identical: the
// rounds, messages and peak edge load of each ledger entry, and the size of
// the solution. One line, so calls compare it exactly.
std::string fingerprint(const congest::RoundLedger& ledger,
                        std::int64_t solution_size) {
  std::ostringstream os;
  os << "solution_size=" << solution_size
     << " rounds_measured=" << ledger.measured_total();
  for (const auto& e : ledger.entries()) {
    os << " [" << e.label << (e.measured ? "|measured|" : "|modeled|")
       << e.stats.rounds << '|' << e.stats.messages_sent << '|'
       << e.stats.max_edge_load << ']';
  }
  return os.str();
}

struct Outcome {
  std::string error;  // empty when every output check passed
  std::int64_t solution_size = 0;
  std::int64_t rounds_measured = 0;
  std::string fingerprint;
};

void finish(Outcome& out, const congest::RoundLedger& ledger,
            std::int64_t solution_size) {
  out.solution_size = solution_size;
  out.rounds_measured = ledger.measured_total();
  out.fingerprint = fingerprint(ledger, solution_size);
}

// One call of the public application entry point plus its output check.
Outcome run_application(const Workload& w, const graph::Graph& g,
                        std::uint64_t seed) {
  Outcome out;
  if (w.app == App::kMis) {
    core::MisApproxOptions opt;
    opt.framework = framework_options(w, seed, w.threads);
    opt.exact_node_budget = kMisNodeBudget;
    const core::MisApproxResult r = core::mis_approx(g, kEps, opt);
    if (!seq::is_independent_set(g, r.independent_set)) {
      out.error = "output is not an independent set";
    }
    finish(out, r.ledger,
           static_cast<std::int64_t>(r.independent_set.size()));
  } else {
    core::McmApproxOptions opt;
    opt.framework = framework_options(w, seed, w.threads);
    const core::McmApproxResult r = core::mcm_planar_approx(g, kEps, opt);
    if (!seq::is_valid_matching(g, r.mates) ||
        seq::matching_size(r.mates) != r.matching_size) {
      out.error = "output is not a valid matching of the reported size";
    }
    finish(out, r.ledger, r.matching_size);
  }
  return out;
}

// --- Spans -------------------------------------------------------------------

struct Span {
  const char* name = nullptr;
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  int parent = -1;  // index into Tracer::spans(), -1 for a root
  int run = 0;      // shared by the spans of one root
};

class Tracer {
 public:
  int open(const char* name) {
    if (stack_.empty()) ++run_;
    const int parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back({name, now_ns(), 0, parent, run_});
    stack_.push_back(static_cast<int>(spans_.size()) - 1);
    return stack_.back();
  }
  void close(int id) {
    spans_[id].end_ns = now_ns();
    stack_.pop_back();
  }
  const std::vector<Span>& spans() const { return spans_; }
  int last_run() const { return run_; }

  void write_jsonl(const std::string& path) const {
    std::ofstream os(path);
    for (const Span& s : spans_) {
      os << "{\"run\":" << s.run << ",\"name\":\"" << s.name
         << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
         << ",\"parent\":" << s.parent << "}\n";
    }
  }

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  Clock::time_point epoch_ = Clock::now();
  std::vector<Span> spans_;
  std::vector<int> stack_;
  int run_ = 0;
};

// RAII span; a null tracer records nothing.
class Scope {
 public:
  Scope(Tracer* tracer, const char* name)
      : tracer_(tracer), id_(tracer ? tracer->open(name) : -1) {}
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  ~Scope() {
    if (tracer_) tracer_->close(id_);
  }

 private:
  Tracer* tracer_;
  int id_;
};

double span_s(const Span& s) { return (s.end_ns - s.start_ns) * 1e-9; }

// --- The pipeline composed from its layers -----------------------------------

// What a composed call knows beyond an application call: the Partition's
// clustering and the per-layer counts and times of the call.
struct Composed {
  Outcome outcome;
  graph::Graph partition_graph;  // G, or Ḡ after star elimination
  std::vector<int> cluster_of;
  double eps_effective = 0.0;
  std::map<std::string, double> layer;
};

// The registry's top-level "phase:*" rows: Network::run time and counts of
// each simulated phase of partition_and_gather.
void record_phases(const congest::MetricsRegistry& registry,
                   std::map<std::string, double>& layer) {
  double simulated_s = 0.0;
  for (const congest::PhaseMetrics& p : registry.phases()) {
    if (p.depth != 0) continue;
    const double s = p.stats.duration_ns * 1e-9;
    simulated_s += s;
    std::string key;
    if (p.name == "phase:election") key = "congest.election";
    if (p.name == "phase:orientation") key = "congest.orientation";
    if (p.name == "phase:gather") key = "congest.gather";
    if (key.empty()) continue;
    layer[key + "_s"] = s;
    layer[key + "_rounds"] = static_cast<double>(p.stats.rounds);
    if (key == "congest.gather") {
      layer["congest.gather_msgs"] = static_cast<double>(p.stats.messages_sent);
      layer["congest.gather_max_edge_load"] = p.stats.max_edge_load;
    }
  }
  layer["congest.simulated_s"] = simulated_s;
}

// Host time of each layer in one traced call, from its spans: a span's self
// time is its duration minus its children's. The simulated phases inside
// core.partition come from the registry, so core.partition's self time is
// split into those and the host-side rest.
void record_span_times(const Tracer& tracer,
                       std::map<std::string, double>& layer) {
  const std::vector<Span>& spans = tracer.spans();
  const int run = tracer.last_run();
  std::size_t first = spans.size();
  while (first > 0 && spans[first - 1].run == run) --first;
  std::vector<double> child_s(spans.size(), 0.0);
  for (std::size_t i = first; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) child_s[spans[i].parent] += span_s(spans[i]);
  }
  layer["seq.solve_max_s"] = 0.0;
  for (std::size_t i = first; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const std::string name = s.name;
    if (s.parent < 0) {
      layer["trace.total_s"] = span_s(s);
      continue;
    }
    const double self = span_s(s) - child_s[i];
    layer["trace.self_sum_s"] += self;
    if (name == "core.partition") {
      layer["core.partition_s"] = span_s(s);
      layer["core.partition_host_s"] = self - layer["congest.simulated_s"];
    } else {
      layer[name + "_s"] += self;
    }
    if (name == "seq.solve") {
      layer["seq.solve_max_s"] = std::max(layer["seq.solve_max_s"], span_s(s));
    }
  }
}

// Calls the layers in the order core::mis_approx / core::mcm_planar_approx
// call them, with a span around each call, and checks the Partition as well
// as the output. Must reproduce the application's fingerprint exactly.
Composed run_composed(const Workload& w, const graph::Graph& g,
                      std::uint64_t seed, int threads, Tracer* tracer) {
  Composed c;
  Outcome& out = c.outcome;
  auto& layer = c.layer;
  congest::MetricsRegistry registry;
  core::FrameworkOptions fopt = framework_options(w, seed, threads);
  fopt.density_bound = 1;  // both applications fold the density into ε'
  if (tracer) fopt.metrics = &registry;
  const int n = g.num_vertices();
  {
    Scope run(tracer, "run");
    core::StarEliminationResult elimination;
    double eps_prime = 0.0;
    if (w.app == App::kMis) {
      c.partition_graph = g;
      const int d =
          std::max(1, static_cast<int>(std::ceil(g.edge_density())));
      eps_prime = kEps / (2 * d + 1);
    } else {
      Scope s(tracer, "core.app_other");
      elimination = core::eliminate_stars(g);
      std::vector<bool> keep_edge(g.num_edges(), true);
      for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
        const graph::Edge ed = g.edge(e);
        keep_edge[e] =
            !elimination.removed[ed.u] && !elimination.removed[ed.v];
      }
      c.partition_graph = graph::edge_subgraph(g, keep_edge);
      eps_prime = kEps * core::McmApproxOptions{}.matching_linearity_constant;
    }
    const graph::Graph& gp = c.partition_graph;

    core::Partition partition;
    {
      Scope s(tracer, "core.partition");
      partition = core::partition_and_gather(gp, eps_prime, fopt);
    }
    if (w.app == App::kMcm) {
      partition.ledger.add_measured("star elimination (token protocol)",
                                    elimination.rounds_used);
    }
    const expander::ExpanderDecomposition& dec = partition.decomposition;

    std::vector<std::int64_t> words(n);
    int exact = 0;
    std::vector<graph::VertexId> independent_set;
    seq::Mates mates;
    if (w.app == App::kMis) {
      std::vector<bool> in_set(n, false);
      for (const core::Cluster& cluster : partition.clusters) {
        seq::MisResult mis;
        {
          Scope s(tracer, "seq.solve");
          mis = seq::best_effort_mis(cluster.subgraph.graph, kMisNodeBudget);
        }
        exact += mis.exact;
        for (graph::VertexId local : mis.vertices) {
          in_set[cluster.subgraph.to_parent[local]] = true;
        }
      }
      for (graph::VertexId v = 0; v < n; ++v) words[v] = in_set[v];
      {
        Scope s(tracer, "core.return");
        core::return_results(partition, words,
                             "result return (reversed walks)");
      }
      {
        Scope s(tracer, "core.app_other");
        for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
          if (!dec.is_inter_cluster[e]) continue;
          const graph::Edge ed = g.edge(e);
          if (in_set[ed.u] && in_set[ed.v]) {
            in_set[std::max(ed.u, ed.v)] = false;
          }
        }
      }
      partition.ledger.add_measured("conflict removal (1 round)", 1);
      for (graph::VertexId v = 0; v < n; ++v) {
        if (in_set[v]) independent_set.push_back(v);
      }
    } else {
      mates.assign(n, graph::kInvalidVertex);
      for (const core::Cluster& cluster : partition.clusters) {
        seq::Mates local;
        {
          Scope s(tracer, "seq.solve");
          local = seq::max_cardinality_matching(cluster.subgraph.graph);
        }
        ++exact;  // blossom matching is always exact
        for (graph::VertexId i = 0;
             i < static_cast<graph::VertexId>(local.size()); ++i) {
          if (local[i] != graph::kInvalidVertex) {
            mates[cluster.subgraph.to_parent[i]] =
                cluster.subgraph.to_parent[local[i]];
          }
        }
      }
      for (graph::VertexId v = 0; v < n; ++v) words[v] = mates[v];
      Scope s(tracer, "core.return");
      core::return_results(partition, words, "result return (reversed walks)");
    }

    Scope check(tracer, "bench.check");
    if (!partition.gather_complete) out.error = "gather incomplete";
    if (dec.inter_cluster_edges > partition.eps_effective * gp.num_edges()) {
      out.error = "inter-cluster edges exceed eps' * |E|";
    }
    const bool valid = w.app == App::kMis
                           ? seq::is_independent_set(g, independent_set)
                           : seq::is_valid_matching(g, mates);
    if (!valid) out.error = "output is not an independent set / matching";
    finish(out, partition.ledger,
           w.app == App::kMis
               ? static_cast<std::int64_t>(independent_set.size())
               : seq::matching_size(mates));

    c.cluster_of = dec.cluster_of;
    c.eps_effective = partition.eps_effective;
    // return_results appends its entry; the MIS conflict round follows it.
    const auto& entries = partition.ledger.entries();
    const congest::LedgerEntry& ret =
        entries[entries.size() - (w.app == App::kMis ? 2 : 1)];
    std::int64_t hops = 0;
    for (const congest::TokenTrace& t : partition.gather.traces) {
      hops += static_cast<std::int64_t>(t.visited.size()) - 1;
    }
    layer["expander.rounds"] =
        static_cast<double>(entries.front().stats.rounds);
    layer["expander.clusters"] = static_cast<double>(partition.clusters.size());
    layer["expander.inter_cluster_frac"] =
        gp.num_edges() ? static_cast<double>(dec.inter_cluster_edges) /
                             gp.num_edges()
                       : 0.0;
    layer["congest.gather_trace_hops"] = static_cast<double>(hops);
    layer["core.return_rounds"] = static_cast<double>(ret.stats.rounds);
    layer["core.return_msgs"] = static_cast<double>(ret.stats.messages_sent);
    layer["seq.exact_ratio"] =
        partition.clusters.empty()
            ? 1.0
            : static_cast<double>(exact) / partition.clusters.size();
  }
  if (tracer) {
    record_phases(registry, layer);
    record_span_times(*tracer, layer);
  }
  return c;
}

// --- Main --------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out_dir;
};

bool parse_args(int argc, char** argv, Args& a) {
  if (argc % 2 != 1) return false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const char* value = argv[i + 1];
    if (key == "--workload") {
      a.workload = value;
    } else if (key == "--seed") {
      a.seed = std::strtoull(value, nullptr, 10);
    } else if (key == "--seconds") {
      a.seconds = std::atof(value);
    } else if (key == "--trace") {
      a.trace = std::string(value) == "1";
    } else if (key == "--out-dir") {
      a.out_dir = value;
    } else {
      return false;
    }
  }
  return !a.workload.empty() && a.seconds > 0.0;
}

struct Metric {
  const char* name;
  double value;
  const char* unit;
};

void print_result(std::int64_t attempted, std::int64_t failed,
                  const std::vector<Metric>& metrics) {
  std::ostringstream os;
  os << std::setprecision(17)
     << "{\"correct\": " << (failed == 0 ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const double v = std::isfinite(metrics[i].value) ? metrics[i].value : 0.0;
    os << (i ? ", " : "") << '"' << metrics[i].name << "\": {\"value\": " << v
       << ", \"unit\": \"" << metrics[i].unit << "\"}";
  }
  os << "}}";
  std::cout << os.str() << std::endl;
}

struct Instance {
  std::uint64_t seed = 0;
  graph::Graph graph;
  // The fingerprint every call on this instance must reproduce: the first
  // passing call's in this process, normally the composed pass's.
  std::string reference;
  std::int64_t rounds_measured = 0;
  std::int64_t solution_size = 0;
};

class Runner {
 public:
  Runner(const Workload& w, const Args& args) : w_(w) {
    tag_ = std::string(w.name) + "-" + std::to_string(args.seed);
    instances_.resize(w.instances);
    for (int i = 0; i < w.instances; ++i) {
      instances_[i].seed = instance_seed(args.seed, i);
    }
  }

  const Workload& workload() const { return w_; }
  std::vector<Instance>& instances() { return instances_; }
  const std::string& tag() const { return tag_; }
  std::int64_t attempted() const { return attempted_; }
  std::int64_t failed() const { return failed_; }

  // Runs one checked call on instance i. A failed check or an exception is
  // counted and reported on stderr; it never aborts the workload.
  template <typename Call>
  bool account(int i, const char* what, Call&& call) {
    Instance& inst = instances_[i];
    ++attempted_;
    try {
      const Outcome o = call();
      std::string error = o.error;
      if (error.empty() && inst.reference.empty()) {
        inst.reference = o.fingerprint;
      }
      if (error.empty() && o.fingerprint != inst.reference) {
        error = "simulated statistics differ: " + o.fingerprint +
                " != " + inst.reference;
      }
      if (error.empty()) {
        inst.rounds_measured = o.rounds_measured;
        inst.solution_size = o.solution_size;
        return true;
      }
      std::cerr << what << " on instance " << i << " failed: " << error
                << '\n';
    } catch (const std::exception& e) {
      std::cerr << what << " on instance " << i << " threw: " << e.what()
                << '\n';
    }
    ++failed_;
    return false;
  }

 private:
  const Workload& w_;
  std::string tag_;
  std::vector<Instance> instances_;
  std::int64_t attempted_ = 0;
  std::int64_t failed_ = 0;
};

// One untimed composed call per instance, kCheckThreads calls at a time, each
// on one thread. It checks the Partition (gather completeness, the ε' bound),
// which the application result does not expose, and fixes each instance's
// fingerprint for the calls that follow; on a multi-threaded workload every
// application call is so also checked against a one-thread run.
void composed_pass(Runner& runner) {
  const Workload& w = runner.workload();
  const auto& instances = runner.instances();
  std::vector<Outcome> outcomes(instances.size());
  std::vector<std::optional<std::string>> thrown(instances.size());
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    for (std::size_t i; (i = next++) < instances.size();) {
      try {
        outcomes[i] =
            run_composed(w, instances[i].graph, instances[i].seed, 1, nullptr)
                .outcome;
      } catch (const std::exception& e) {
        thrown[i] = e.what();
      }
    }
  };
  std::vector<std::thread> threads;
  for (int t = 0; t < kCheckThreads; ++t) {
    threads.emplace_back(work);
  }
  for (std::thread& t : threads) t.join();
  for (std::size_t i = 0; i < instances.size(); ++i) {
    runner.account(static_cast<int>(i), "composed check", [&] {
      if (thrown[i]) throw std::runtime_error(*thrown[i]);
      return outcomes[i];
    });
  }
}

struct TimedSamples {
  PerInstance run_s;
  PerInstance peak_rss_mb;
};

// Closed loop with one caller: each application call starts when the
// previous one has returned and been checked, cycling over the instances,
// until `seconds` have passed. Outside the timed interval, the heap is
// trimmed and the peak resident set reset before each call, and the peak read
// after it. A call's peak is its rise above the resident set it started
// with, which leaves out the graphs and whatever the composed pass's threads
// left in their malloc arenas.
TimedSamples timed_loop(Runner& runner, double seconds) {
  const Workload& w = runner.workload();
  auto& instances = runner.instances();
  TimedSamples out{PerInstance(instances.size()),
                   PerInstance(instances.size())};
  const Clock::time_point start = Clock::now();
  for (std::size_t call = 0;
       call < kMinCalls || seconds_since(start) < seconds; ++call) {
    const int i = static_cast<int>(call % instances.size());
    reset_peak_rss();
    const double resident_mb = peak_rss_mb();
    const Clock::time_point t0 = Clock::now();
    runner.account(i, "application call", [&] {
      return run_application(w, instances[i].graph, instances[i].seed);
    });
    out.run_s[i].push_back(seconds_since(t0));
    out.peak_rss_mb[i].push_back(peak_rss_mb() - resident_mb);
  }
  return out;
}

// The traced run: composed calls with spans for `seconds`, then the other
// thread count and a standalone decomposition on the first instances the
// loop reached. Returns the per-layer metrics.
std::vector<Metric> traced_run(Runner& runner, double seconds,
                               const PerInstance& untraced_run_s,
                               double build_s, const std::string& out_dir) {
  const Workload& w = runner.workload();
  auto& instances = runner.instances();
  const std::size_t k = instances.size();
  Tracer tracer;
  std::map<std::string, PerInstance> samples;
  std::vector<Composed> last(k);
  const Clock::time_point start = Clock::now();
  for (std::size_t call = 0;
       call < kMinCalls || seconds_since(start) < seconds; ++call) {
    const int i = static_cast<int>(call % k);
    reset_peak_rss();  // the heap state of the timed calls
    Composed c;
    const bool ok = runner.account(i, "traced call", [&] {
      c = run_composed(w, instances[i].graph, instances[i].seed, w.threads,
                       &tracer);
      return c.outcome;
    });
    if (!ok) continue;
    for (const auto& [key, v] : c.layer) {
      samples[key].resize(k);
      samples[key][i].push_back(v);
    }
    last[i] = std::move(c);
  }
  auto layer = [&](const char* key) {
    const auto it = samples.find(key);
    return it == samples.end() ? 0.0 : instance_average(it->second);
  };

  // The other thread count: the fingerprints must not change (bit-identity
  // across thread counts), and the gather times give the 4-thread speedup.
  const int other_threads = w.threads == 1 ? 4 : 1;
  std::vector<std::size_t> probed;
  for (std::size_t i = 0; i < k && probed.size() < kProbeInstances; ++i) {
    if (!last[i].cluster_of.empty()) probed.push_back(i);
  }
  double own_gather_s = 0.0;
  double other_gather_s = 0.0;
  for (std::size_t i : probed) {
    runner.account(static_cast<int>(i), "other thread count", [&] {
      Composed c = run_composed(w, instances[i].graph, instances[i].seed,
                                other_threads, &tracer);
      own_gather_s += median(samples["congest.gather_s"][i]);
      other_gather_s += c.layer["congest.gather_s"];
      return c.outcome;
    });
  }
  const double speedup_t4 = w.threads == 1 ? own_gather_s / other_gather_s
                                           : other_gather_s / own_gather_s;
  const double gather_s = layer("congest.gather_s");

  // Standalone decomposition with the pipeline's ε' and derived seed; its
  // clustering must be the pipeline's, or the span timed different work.
  PerInstance decompose_s(k);
  for (std::size_t i : probed) {
    expander::DecompositionOptions dopt;
    dopt.seed =
        graph::splitmix64(dopt.seed ^ graph::splitmix64(instances[i].seed));
    runner.account(static_cast<int>(i), "standalone decomposition", [&] {
      std::vector<int> cluster_of;
      {
        Scope s(&tracer, "expander.decompose");
        if (w.mode == core::DecompositionMode::kDistributed) {
          expander::DistributedDecompositionOptions ddopt;
          ddopt.phi = dopt.phi;
          ddopt.seed = dopt.seed;
          ddopt.max_retries = dopt.max_retries;
          const auto dd = expander::distributed_expander_decompose(
              last[i].partition_graph, last[i].eps_effective, ddopt);
          if (dd.measured_rounds != last[i].layer["expander.rounds"]) {
            throw std::runtime_error("decomposition rounds differ");
          }
          cluster_of = dd.decomposition.cluster_of;
        } else {
          cluster_of = expander::expander_decompose(last[i].partition_graph,
                                                    last[i].eps_effective,
                                                    dopt)
                           .cluster_of;
        }
      }
      decompose_s[i].push_back(span_s(tracer.spans().back()));
      Outcome o = last[i].outcome;
      if (cluster_of != last[i].cluster_of) {
        o.error = "standalone decomposition differs from the pipeline's";
      }
      return o;
    });
  }
  if (!out_dir.empty()) {
    tracer.write_jsonl(out_dir + "/spans-" + runner.tag() + ".jsonl");
  }

  // Tracing overhead on the instances both loops reached.
  PerInstance overhead_s(k);
  const auto traced = samples.find("trace.total_s");
  for (std::size_t i = 0; traced != samples.end() && i < k; ++i) {
    if (traced->second[i].empty() || untraced_run_s[i].empty()) continue;
    overhead_s[i].push_back(median(traced->second[i]) -
                            median(untraced_run_s[i]));
  }

  const double gather_msgs = layer("congest.gather_msgs");
  const double gather_rounds = layer("congest.gather_rounds");
  return {
      {"graph.build_s", build_s, "s"},
      {"expander.decompose_s", instance_average(decompose_s), "s"},
      {"expander.rounds", layer("expander.rounds"), "rounds"},
      {"expander.clusters", layer("expander.clusters"), "count"},
      {"expander.inter_cluster_frac", layer("expander.inter_cluster_frac"),
       "ratio"},
      {"core.partition_s", layer("core.partition_s"), "s"},
      {"core.partition_host_s", layer("core.partition_host_s"), "s"},
      {"congest.election_s", layer("congest.election_s"), "s"},
      {"congest.election_rounds", layer("congest.election_rounds"), "rounds"},
      {"congest.orientation_s", layer("congest.orientation_s"), "s"},
      {"congest.orientation_rounds", layer("congest.orientation_rounds"),
       "rounds"},
      {"congest.gather_s", gather_s, "s"},
      {"congest.gather_rounds", gather_rounds, "rounds"},
      {"congest.gather_msgs", gather_msgs, "msgs"},
      {"congest.gather_max_edge_load", layer("congest.gather_max_edge_load"),
       "msgs"},
      {"congest.gather_trace_hops", layer("congest.gather_trace_hops"),
       "count"},
      {"congest.ns_per_msg", gather_msgs > 0 ? gather_s * 1e9 / gather_msgs : 0,
       "ns/msg"},
      {"congest.msgs_per_round",
       gather_rounds > 0 ? gather_msgs / gather_rounds : 0, "msgs/round"},
      {"congest.speedup_t4", speedup_t4, "x"},
      {"core.return_s", layer("core.return_s"), "s"},
      {"core.return_rounds", layer("core.return_rounds"), "rounds"},
      {"core.return_msgs", layer("core.return_msgs"), "msgs"},
      {"core.app_other_s", layer("core.app_other_s"), "s"},
      {"seq.solve_s", layer("seq.solve_s"), "s"},
      {"seq.solve_max_s", layer("seq.solve_max_s"), "s"},
      {"seq.exact_ratio", layer("seq.exact_ratio"), "ratio"},
      {"bench.check_s", layer("bench.check_s"), "s"},
      {"trace.total_s", layer("trace.total_s"), "s"},
      {"trace.self_sum_s", layer("trace.self_sum_s"), "s"},
      {"trace.overhead_s", instance_average(overhead_s), "s"},
  };
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse_args(argc, argv, args)) {
    std::cerr << "usage: pipeline_bench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--out-dir <dir>]\n";
    return 2;
  }
  const Workload* w = nullptr;
  for (const Workload& candidate : kWorkloads) {
    if (args.workload == candidate.name) w = &candidate;
  }
  if (!w) {
    std::cerr << "unknown workload: " << args.workload << '\n';
    return 2;
  }
  // glibc trims the free top of the main malloc arena only, so a call's pool
  // threads could reuse memory retained in their own arenas without it
  // counting in the call's peak. With one arena they cannot; the composed
  // pass's concurrent calls then contend for it, so this is done only where
  // a call runs on several threads.
  if (w->threads > 1) mallopt(M_ARENA_MAX, 1);
  Runner runner(*w, args);
  auto& instances = runner.instances();

  // Set-up: building every instance's graph. It is repeated and the median
  // reported, so that work moved into set-up shows despite its short
  // duration. The builds are repeated after the timed loop too, so that
  // setup_s samples the host's speed at both ends of the run, as run_s does.
  std::vector<double> setup;
  auto build_graphs = [&] {
    const Clock::time_point start = Clock::now();
    for (int reps = 0; reps < 5 || seconds_since(start) < 0.3; ++reps) {
      const Clock::time_point t0 = Clock::now();
      for (Instance& inst : instances) inst.graph = w->build(inst.seed);
      setup.push_back(seconds_since(t0));
    }
  };
  build_graphs();

  if (!reset_peak_rss()) {
    std::cerr << "cannot reset the peak resident set: /proc/self/clear_refs "
                 "is not writable\n";
    return 1;
  }
  composed_pass(runner);
  // Warm-up of the caches before timing.
  runner.account(0, "warm-up call", [&] {
    return run_application(*w, instances[0].graph, instances[0].seed);
  });

  const TimedSamples timed =
      timed_loop(runner, args.trace ? args.seconds / 2 : args.seconds);
  build_graphs();
  std::vector<Metric> metrics;
  if (args.trace) {
    metrics = traced_run(runner, args.seconds / 2, timed.run_s, median(setup),
                         args.out_dir);
  } else {
    // End-to-end values are per call, the median over the instances, except
    // the solution size, which is the total so that a loss on any instance
    // shows.
    std::vector<double> rounds;
    double solution = 0.0;
    for (const Instance& inst : instances) {
      rounds.push_back(static_cast<double>(inst.rounds_measured));
      solution += static_cast<double>(inst.solution_size);
    }
    const double attempted = static_cast<double>(runner.attempted());
    metrics = {
        {"run_s", median(instance_medians(timed.run_s)), "s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", median(instance_medians(timed.peak_rss_mb)), "MiB"},
        {"rounds_measured", median(rounds), "rounds"},
        {"solution_size", solution, "count"},
        {"success_frac", (attempted - runner.failed()) / attempted, "ratio"},
    };
  }
  print_result(runner.attempted(), runner.failed(), metrics);
  return 0;
}
