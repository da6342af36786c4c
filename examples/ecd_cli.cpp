// ecd_cli — command-line driver for the library.
//
//   ecd_cli gen <family> <n> [seed]          write an edge list to stdout
//   ecd_cli decompose <file> [opts]          (ε, φ) expander decomposition
//   ecd_cli mis <file> [opts]                (1-ε)-approx MaxIS (Thm 1.2)
//   ecd_cli mcm <file> [opts]                planar MCM (Thm 3.2)
//   ecd_cli mwm <file> [opts]                weighted matching (Thm 1.1)
//   ecd_cli correlate <file> [opts]          correlation clustering (Thm 1.3)
//   ecd_cli test-planarity <file> [opts]     property testing (Thm 1.4)
//   ecd_cli ldd <file> [opts]                low-diameter decomp (Thm 1.5)
//   ecd_cli triangles <file>                 distributed triangle census
//   ecd_cli run --family <f> --n <k>         run the Thm 2.6 pipeline (or a
//                                            flood / Luby MIS workload) once
//                                            with every requested observer
//                                            attached; print the per-phase
//                                            table of the always-on metrics
//                                            registry; write a trace, an
//                                            ecd-run-report-v1 and an
//                                            ecd-profile-v1 file as named
//   ecd_cli sweep --spec <file>              expand a declarative JSON grid
//                                            (family x n x seeds x algorithm
//                                            x threads x faults) and run it
//                                            on one SweepEngine with cached
//                                            topologies/Networks; write the
//                                            ecd-sweep-v1 summary and
//                                            (optionally) per-run JSONL
//                                            reports
//
// options: --eps <x>      proximity/approximation parameter (default 0.2)
//          --seed <k>     RNG seed (default 1)
//          --distributed  fully measured decomposition (no modeled rounds)
//          --dot <out>    write a cluster-colored DOT file (decompose/ldd)
//
// run options: --family <f> --n <k>         generated input (see `gen`;
//                                            default grid, 1024)
//              --eps/--seed/--distributed    as above
//              --threads <k>                 simulator worker threads
//                                            (default 1; 0 = hardware) —
//                                            every output except wall-clock
//                                            fields is byte-identical at
//                                            every value (DESIGN.md §18)
//              --fault-permille <k>          drop k/1000 of messages (gather
//                                            routes through reliable gather;
//                                            gather/flood workloads only)
//              --sparse-threshold <k>        serial-fallback cutoff: rounds
//                                            with <= k active vertices run
//                                            on the calling thread (default
//                                            256; 0 = always dispatch)
//              --churn-permille <c>          deterministic topology churn of
//                                            ~c/1000 of the edges (the sweep
//                                            schedule, core::make_churn_plan;
//                                            flood/mis workloads only)
//              --workload gather|flood|mis   what to run (default gather =
//                                            the Thm 2.6 pipeline; flood =
//                                            one wavefront from vertex 0;
//                                            mis = Luby MIS)
//              --top <k>                     congested edges to print and
//                                            report (default 10)
//              --trace <path>                attach the flight recorder and
//                                            write its flight JSONL (the last
//                                            --ring rounds of events; auto-
//                                            dumped on an aborted run); print
//                                            the registry's --top most
//                                            congested edges
//              --sample r[,v[,t]]            trace sampling filters: keep
//                                            rounds r | round, delivery
//                                            events for vertices v | vertex,
//                                            messages with tag == t (t < 0:
//                                            all tags); defaults 1,1,-1
//              --ring <k>                    rounds of events the --trace
//                                            ring keeps (default 64)
//              --report <path>               ecd-run-report-v1 JSON
//              --profile <path>              attach the execution profiler;
//                                            print the per-shard table and
//                                            write ecd-profile-v1 JSON
//              --timeline <path>             per-shard Chrome trace_event
//                                            timeline of the profiler
//            Nothing is written unless a file is named.
//
// sweep options: --spec <file>               JSON grid spec (axes: families,
//                                            sizes, topo_seeds, run_seeds,
//                                            algorithms, threads,
//                                            fault_permille,
//                                            churn_permille; scalars:
//                                            pingpong_rounds,
//                                            bandwidth_tokens,
//                                            sparse_serial_threshold,
//                                            max_rounds — see
//                                            src/core/sweep.h)
//                --workers <k>               serial cells multiplexed over k
//                                            workers (default 1; 0 = hw)
//                --repeat <k>                run the grid k times on one
//                                            engine; passes after the first
//                                            hit warm caches (default 1)
//                --cold                      fresh Graph/Network per run (the
//                                            reuse baseline)
//                --jsonl <path>              per-run ecd-run-report-v1 lines
//                                            (final pass only)
//                --out <path>                ecd-sweep-v1 summary (default
//                                            ecd_sweep.json)
//                --top <k>                   congested edges per JSONL report
//                                            (default 4)
//                --progress <path|->         stream ecd-sweep-progress-v1
//                                            heartbeat lines (cells done,
//                                            runs/s, per-worker liveness +
//                                            stall flags) to a file, or with
//                                            "-" to stderr
//                --progress-interval-ms <k>  heartbeat period (default 1000)
//                --stall-seconds <k>         flag a worker stalled after k
//                                            seconds without a completed run
//                                            (default 30)
//
// families for `gen`/`run` (graph::make_family): grid, tri, planar, outer,
// twotree, tree, torus, hypercube, expander.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "src/baselines/luby_mis.h"
#include "src/congest/metrics.h"
#include "src/congest/network.h"
#include "src/congest/primitives.h"
#include "src/congest/profiler.h"
#include "src/congest/trace.h"
#include "src/core/correlation.h"
#include "src/core/framework.h"
#include "src/core/ldd.h"
#include "src/core/matching.h"
#include "src/core/mis.h"
#include "src/core/mwm.h"
#include "src/core/property_testing.h"
#include "src/core/sweep.h"
#include "src/core/triangles.h"
#include "src/graph/generators.h"
#include "src/graph/io.h"
#include "src/seq/properties.h"

namespace {

using ecd::graph::Graph;

struct Options {
  double eps = 0.2;
  std::uint64_t seed = 1;
  bool distributed = false;
  std::string dot_path;
  std::string input;
};

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: ecd_cli <command> [options]  (full option list in the source"
      " header)\n"
      "commands:\n"
      "  gen <family> <n> [seed]            write an edge list to stdout\n"
      "  decompose <file> [opts]            (eps, phi) expander decomposition\n"
      "  mis <file> [opts]                  (1-eps)-approx MaxIS\n"
      "  mcm <file> [opts]                  planar maximum cardinality"
      " matching\n"
      "  mwm <file> [opts]                  maximum weight matching\n"
      "  correlate <file> [opts]            correlation clustering\n"
      "  test-planarity <file> [opts]       planarity property testing\n"
      "  ldd <file> [opts]                  low-diameter decomposition\n"
      "  triangles <file>                   distributed triangle census\n"
      "  run --family <f> --n <k>           one observed pipeline run\n"
      "        [--eps <x>] [--seed <k>] [--distributed] [--threads <k>]\n"
      "        [--fault-permille <k>] [--sparse-threshold <k>]\n"
      "        [--churn-permille <c>] [--workload gather|flood|mis]"
      " [--top <k>]\n"
      "        [--trace <file> [--sample r[,v[,t]]] [--ring <k>]]\n"
      "        [--report <file>] [--profile <file> [--timeline <file>]]\n"
      "  sweep --spec <file>                declarative run grid over one"
      " engine\n"
      "        [--workers <k>] [--repeat <k>] [--cold] [--jsonl <path>]\n"
      "        [--out <path>] [--top <k>] [--progress <path|->]\n"
      "        [--progress-interval-ms <k>] [--stall-seconds <k>]\n"
      "families: grid, tri, planar, outer, twotree, tree, torus, hypercube,"
      " expander\n");
  std::exit(2);
}

Options parse(int argc, char** argv, int first) {
  Options o;
  for (int i = first; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--eps" && i + 1 < argc) {
      o.eps = std::atof(argv[++i]);
    } else if (arg == "--seed" && i + 1 < argc) {
      o.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--distributed") {
      o.distributed = true;
    } else if (arg == "--dot" && i + 1 < argc) {
      o.dot_path = argv[++i];
    } else if (o.input.empty() && arg[0] != '-') {
      o.input = arg;
    } else {
      usage();
    }
  }
  if (o.input.empty()) usage();
  return o;
}

Graph load(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "cannot open %s\n", path.c_str());
    std::exit(1);
  }
  return ecd::graph::read_edge_list(in);
}

ecd::core::FrameworkOptions framework_options(const Options& o) {
  ecd::core::FrameworkOptions f;
  f.seed = o.seed;
  if (o.distributed) {
    f.decomposition_mode = ecd::core::DecompositionMode::kDistributed;
  }
  return f;
}

void maybe_write_dot(const Options& o, const Graph& g,
                     const std::vector<int>& clusters) {
  if (o.dot_path.empty()) return;
  std::ofstream out(o.dot_path);
  out << ecd::graph::to_dot(g, clusters);
  std::printf("wrote %s\n", o.dot_path.c_str());
}

// graph::make_family, with a bad name or size reported as a usage error.
Graph make_input(const std::string& family, int n, ecd::graph::Rng& rng) {
  try {
    return ecd::graph::make_family(family, n, rng);
  } catch (const std::invalid_argument& e) {
    std::fprintf(stderr, "%s\n", e.what());
    std::exit(2);
  }
}

std::ofstream open_or_exit(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  return out;
}

int cmd_gen(int argc, char** argv) {
  if (argc < 4) usage();
  const std::string family = argv[2];
  const int n = std::atoi(argv[3]);
  ecd::graph::Rng rng(argc > 4 ? std::strtoull(argv[4], nullptr, 10) : 1);
  const Graph g = make_input(family, n, rng);
  ecd::graph::write_edge_list(g, std::cout);
  return 0;
}

struct RunArgs {
  std::string family = "grid", workload = "gather";
  int n = 1024, threads = 1, fault_permille = 0, churn_permille = 0;
  int sparse_threshold = ecd::congest::NetworkOptions{}.sparse_serial_threshold;
  int top_k = 10, ring = 0;
  double eps = 0.2;
  std::uint64_t seed = 1;
  bool distributed = false, sampled = false;
  ecd::congest::TraceConfig sample;
  std::string trace_path, report_path, profile_path, timeline_path;
};

RunArgs parse_run(int argc, char** argv) {
  RunArgs a;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--family" && has_value) {
      a.family = argv[++i];
    } else if (arg == "--n" && has_value) {
      a.n = std::atoi(argv[++i]);
    } else if (arg == "--eps" && has_value) {
      a.eps = std::atof(argv[++i]);
    } else if (arg == "--seed" && has_value) {
      a.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--distributed") {
      a.distributed = true;
    } else if (arg == "--threads" && has_value) {
      a.threads = std::atoi(argv[++i]);
    } else if (arg == "--fault-permille" && has_value) {
      a.fault_permille = std::atoi(argv[++i]);
    } else if (arg == "--sparse-threshold" && has_value) {
      a.sparse_threshold = std::atoi(argv[++i]);
    } else if (arg == "--churn-permille" && has_value) {
      a.churn_permille = std::atoi(argv[++i]);
    } else if (arg == "--workload" && has_value) {
      a.workload = argv[++i];
      if (a.workload != "gather" && a.workload != "flood" &&
          a.workload != "mis") {
        usage();
      }
    } else if (arg == "--top" && has_value) {
      a.top_k = std::atoi(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      a.trace_path = argv[++i];
    } else if (arg == "--sample" && has_value) {
      long long r = 1;
      int v = 1, t = -1;
      if (std::sscanf(argv[++i], "%lld,%d,%d", &r, &v, &t) < 1) usage();
      a.sample.round_period = r;
      a.sample.vertex_stride = v;
      a.sample.tag_filter = t;
      a.sampled = true;
    } else if (arg == "--ring" && has_value) {
      a.ring = std::atoi(argv[++i]);
    } else if (arg == "--report" && has_value) {
      a.report_path = argv[++i];
    } else if (arg == "--profile" && has_value) {
      a.profile_path = argv[++i];
    } else if (arg == "--timeline" && has_value) {
      a.timeline_path = argv[++i];
    } else {
      usage();
    }
  }
  if ((a.sampled || a.ring > 0) && a.trace_path.empty()) usage();
  if (a.churn_permille > 0 && a.workload == "gather") {
    // The gather pipeline drives its own Network sequence through the
    // framework; churn there is an experiment, not a CLI knob.
    std::fprintf(stderr, "--churn-permille requires --workload flood or mis\n");
    std::exit(2);
  }
  if (a.fault_permille > 0 && a.workload == "mis") {
    std::fprintf(stderr,
                 "--fault-permille requires --workload gather or flood\n");
    std::exit(2);
  }
  return a;
}

// Theorem 2.6 pipeline (or a flood / Luby MIS workload) run once, with a
// MetricsRegistry always attached and every requested observer on the same
// run: --trace adds a FlightRecorder, --profile / --timeline an
// ExecutionProfiler.
int cmd_run(int argc, char** argv) {
  const RunArgs a = parse_run(argc, argv);
  ecd::graph::Rng rng(a.seed);
  const Graph g = make_input(a.family, a.n, rng);

  // Outputs open before the run: a bad path fails fast, and the flight
  // recorder needs its stream for the abort dump.
  std::ofstream trace_out, report_out, profile_out, timeline_out;
  if (!a.trace_path.empty()) trace_out = open_or_exit(a.trace_path);
  if (!a.report_path.empty()) report_out = open_or_exit(a.report_path);
  if (!a.profile_path.empty()) profile_out = open_or_exit(a.profile_path);
  if (!a.timeline_path.empty()) timeline_out = open_or_exit(a.timeline_path);

  ecd::congest::MetricsRegistry metrics;
  std::optional<ecd::congest::FlightRecorder> recorder;
  if (!a.trace_path.empty()) {
    // A bounded ring of the last --ring rounds of events; it auto-dumps
    // when the run aborts.
    ecd::congest::FlightRecorder::Options ropt;
    if (a.ring > 0) ropt.keep_rounds = a.ring;
    recorder.emplace(ropt);
    recorder->set_auto_dump(&trace_out);
  }
  std::optional<ecd::congest::ExecutionProfiler> profiler;
  if (!a.profile_path.empty() || !a.timeline_path.empty()) profiler.emplace();

  ecd::congest::NetworkOptions nopt;
  nopt.num_threads = a.threads;
  nopt.sparse_serial_threshold = a.sparse_threshold;
  nopt.trace = recorder ? &*recorder : nullptr;
  nopt.trace_config = a.sample;
  nopt.metrics = &metrics;
  nopt.profiler = profiler ? &*profiler : nullptr;
  if (a.fault_permille > 0) {
    nopt.faults.seed = a.seed;
    nopt.faults.drop_probability = a.fault_permille / 1000.0;
  }
  if (a.churn_permille > 0) {
    nopt.faults.churn = ecd::core::make_churn_plan(g, a.seed, a.churn_permille);
  }

  const bool gather = a.workload == "gather";
  std::optional<ecd::core::Partition> partition;
  std::string title;
  try {
    if (gather) {
      ecd::core::FrameworkOptions fopt;
      fopt.seed = a.seed;
      fopt.num_threads = nopt.num_threads;
      fopt.sparse_serial_threshold = nopt.sparse_serial_threshold;
      fopt.trace = nopt.trace;
      fopt.trace_config = nopt.trace_config;
      fopt.metrics = nopt.metrics;
      fopt.profiler = nopt.profiler;
      fopt.faults = nopt.faults;
      if (a.distributed) {
        fopt.decomposition_mode = ecd::core::DecompositionMode::kDistributed;
      }
      partition = ecd::core::partition_and_gather(g, a.eps, fopt);
      std::vector<std::int64_t> answers(g.num_vertices());
      for (int v = 0; v < g.num_vertices(); ++v) answers[v] = v;
      ecd::core::return_results(*partition, answers,
                                "result return (reversed walks)");
      std::printf("family=%s n=%d m=%d eps=%.3f threads=%d clusters=%d "
                  "gather_complete=%d\n",
                  a.family.c_str(), g.num_vertices(), g.num_edges(), a.eps,
                  a.threads, partition->decomposition.num_clusters,
                  partition->gather_complete ? 1 : 0);
      title = "partition_and_gather (" + a.family + ")";
    } else if (a.workload == "flood") {
      // One wavefront from vertex 0 over the whole graph (EXPERIMENTS.md
      // E16's per-round-fixed-cost workload): a one-cluster broadcast.
      const int n = g.num_vertices();
      const auto r = ecd::congest::broadcast_from_leaders(
          g, std::vector<int>(n, 0), std::vector<ecd::graph::VertexId>(n, 0),
          std::vector<std::int64_t>(n, 1), nopt);
      std::printf("family=%s n=%d m=%d threads=%d rounds=%lld messages=%lld\n",
                  a.family.c_str(), n, g.num_edges(), a.threads,
                  static_cast<long long>(r.stats.rounds),
                  static_cast<long long>(r.stats.messages_sent));
      title = "flood (" + a.family + ")";
    } else {
      const auto r = ecd::baselines::luby_mis(g, a.seed, nopt);
      std::printf("family=%s n=%d m=%d threads=%d mis=%zu\n", a.family.c_str(),
                  g.num_vertices(), g.num_edges(), a.threads,
                  r.independent_set.size());
      title = "luby_mis (" + a.family + ")";
    }
  } catch (const std::exception& e) {
    // Network::run dumps the flight ring on every abort; a host-side
    // failure after the last Network run leaves the file empty.
    if (recorder && trace_out.tellp() > 0) {
      std::fprintf(stderr, "run aborted: %s (flight dump in %s)\n", e.what(),
                   a.trace_path.c_str());
    } else {
      std::fprintf(stderr, "run aborted: %s\n", e.what());
    }
    return 1;
  }

  std::printf("%-22s %10s %12s %12s %14s\n", "phase", "rounds", "messages",
              "words", "max-edge-load");
  for (const auto& ph : metrics.phases()) {
    if (ph.depth != 0) continue;
    std::printf("%-22s %10lld %12lld %12lld %14d\n", ph.name.c_str(),
                static_cast<long long>(ph.stats.rounds),
                static_cast<long long>(ph.stats.messages_sent),
                static_cast<long long>(ph.stats.words_sent),
                ph.stats.max_edge_load);
  }
  const auto& totals = metrics.totals();
  std::printf("%-22s %10lld %12lld %12lld %14d\n", "total (simulated)",
              static_cast<long long>(totals.rounds),
              static_cast<long long>(totals.messages_sent),
              static_cast<long long>(totals.words_sent),
              totals.max_edge_load);
  std::printf("critical path: %lld rounds (longest single run %lld)\n",
              static_cast<long long>(metrics.critical_path_total()),
              static_cast<long long>(metrics.critical_path_longest_run()));
  if (a.fault_permille > 0) {
    std::printf("faults: dropped=%lld",
                static_cast<long long>(totals.messages_dropped));
    if (gather) {
      std::printf(" retransmissions=%lld epochs=%lld",
                  static_cast<long long>(
                      metrics.counter("gather.retransmissions")->value()),
                  static_cast<long long>(
                      metrics.counter("gather.epochs")->value()));
    }
    std::printf("\n");
  }
  if (partition) {
    std::printf("\nround ledger:\n%s\n", partition->ledger.to_string().c_str());
  }

  if (recorder) {
    std::printf("top congested directed edges (by total messages):\n");
    for (const auto& e : metrics.top_edges(a.top_k)) {
      std::printf("  %d->%d: %lld msgs, %lld words, peak load %d\n", e.from,
                  e.to, static_cast<long long>(e.messages),
                  static_cast<long long>(e.words), e.peak_load);
    }
    recorder->dump_jsonl(trace_out);
    std::printf("wrote %s (flight format, %lld events retained, %lld"
                " dropped, last round %lld)\n",
                a.trace_path.c_str(),
                static_cast<long long>(recorder->events_retained()),
                static_cast<long long>(recorder->events_dropped()),
                static_cast<long long>(recorder->last_round()));
  }

  const std::vector<std::pair<std::string, std::string>> info = {
      {"family", a.family},
      {"n", std::to_string(g.num_vertices())},
      {"m", std::to_string(g.num_edges())},
      {"eps", std::to_string(a.eps)},
      {"seed", std::to_string(a.seed)},
      {"threads", std::to_string(a.threads)},
      {"fault_permille", std::to_string(a.fault_permille)}};
  if (!a.report_path.empty()) {
    ecd::congest::RunReportContext ctx;
    ctx.title = title;
    ctx.info = info;
    if (partition) {
      ctx.info.emplace_back(
          "clusters", std::to_string(partition->decomposition.num_clusters));
    }
    ctx.top_k_edges = a.top_k;
    ecd::congest::write_run_report(report_out, metrics, ctx);
    std::printf("wrote %s (ecd-run-report-v1)\n", a.report_path.c_str());
  }

  if (profiler) {
    const auto summary = profiler->summary();
    std::printf("%s", ecd::congest::format_profile_table(summary).c_str());
  }
  if (!a.profile_path.empty()) {
    ecd::congest::ProfileReportContext ctx;
    ctx.title = title;
    ctx.info = info;
    ctx.info.insert(ctx.info.begin(), {"workload", a.workload});
    ctx.info.emplace_back("churn_permille", std::to_string(a.churn_permille));
    ecd::congest::write_profile_report(profile_out, *profiler, ctx);
    std::printf("wrote %s (ecd-profile-v1)\n", a.profile_path.c_str());
  }
  if (!a.timeline_path.empty()) {
    profiler->write_chrome_trace(timeline_out);
    std::printf("wrote %s (chrome trace, one tid per shard)\n",
                a.timeline_path.c_str());
  }
  return 0;
}

int cmd_decompose(const Options& o) {
  const Graph g = load(o.input);
  const auto p = ecd::core::partition_and_gather(g, o.eps, framework_options(o));
  std::printf("n=%d m=%d clusters=%d inter-cluster=%d (budget %.0f) phi=%.5f\n",
              g.num_vertices(), g.num_edges(), p.decomposition.num_clusters,
              p.decomposition.inter_cluster_edges,
              p.eps_effective * g.num_edges(), p.decomposition.phi);
  std::printf("%s", p.ledger.to_string().c_str());
  maybe_write_dot(o, g, p.decomposition.cluster_of);
  return 0;
}

int cmd_mis(const Options& o) {
  const Graph g = load(o.input);
  ecd::core::MisApproxOptions opt;
  opt.framework = framework_options(o);
  const auto r = ecd::core::mis_approx(g, o.eps, opt);
  std::printf("independent set: %zu vertices (%d clusters, %d exact, "
              "%d conflicts removed)\n",
              r.independent_set.size(), r.num_clusters, r.clusters_exact,
              r.conflicts_removed);
  std::printf("%s", r.ledger.to_string().c_str());
  return 0;
}

int cmd_mcm(const Options& o) {
  const Graph g = load(o.input);
  ecd::core::McmApproxOptions opt;
  opt.framework = framework_options(o);
  const auto r = ecd::core::mcm_planar_approx(g, o.eps, opt);
  std::printf("matching size: %d (%d vertices pruned by star elimination)\n",
              r.matching_size, r.removed_vertices);
  std::printf("%s", r.ledger.to_string().c_str());
  return 0;
}

int cmd_mwm(const Options& o) {
  const Graph g = load(o.input);
  ecd::core::MwmApproxOptions opt;
  opt.framework = framework_options(o);
  const auto r = ecd::core::mwm_approx(g, o.eps, opt);
  std::printf("matching weight: %lld (%d phases)\n",
              static_cast<long long>(r.weight), r.phases);
  std::printf("%s", r.ledger.to_string().c_str());
  return 0;
}

int cmd_correlate(const Options& o) {
  Graph g = load(o.input);
  if (!g.is_signed()) {
    // Unsigned inputs: treat every edge as positive (documented default).
    std::fprintf(stderr, "note: input unsigned; all edges treated positive\n");
  }
  ecd::core::CorrelationApproxOptions opt;
  opt.framework = framework_options(o);
  const auto r = ecd::core::correlation_approx(g, o.eps, opt);
  std::printf("agreement score: %lld / %d edges\n",
              static_cast<long long>(r.score), g.num_edges());
  std::printf("%s", r.ledger.to_string().c_str());
  return 0;
}

int cmd_test_planarity(const Options& o) {
  const Graph g = load(o.input);
  ecd::core::PropertyTestOptions opt;
  opt.framework = framework_options(o);
  const auto r =
      ecd::core::property_test(g, ecd::seq::planar_property(), o.eps, opt);
  std::printf("%s (%d clusters fail planarity, %d fail degree condition)\n",
              r.accept ? "ACCEPT" : "REJECT", r.clusters_failing_property,
              r.clusters_failing_degree_condition);
  std::printf("%s", r.ledger.to_string().c_str());
  return r.accept ? 0 : 3;
}

int cmd_ldd(const Options& o) {
  const Graph g = load(o.input);
  ecd::core::LddApproxOptions opt;
  opt.framework = framework_options(o);
  const auto r = ecd::core::ldd_approx(g, o.eps, opt);
  std::printf("clusters=%d cut=%d (%.1f%% of edges) max-diameter=%d "
              "(target O(1/eps)=%.0f)\n",
              r.num_clusters, r.cut_edges,
              g.num_edges() ? 100.0 * r.cut_edges / g.num_edges() : 0.0,
              r.max_diameter, 1.0 / o.eps);
  std::printf("%s", r.ledger.to_string().c_str());
  maybe_write_dot(o, g, r.cluster_of);
  return 0;
}

int cmd_triangles(const Options& o) {
  const Graph g = load(o.input);
  const auto r = ecd::core::count_triangles_distributed(g);
  std::printf("triangles: %lld (out-degree bound %d)\n%s",
              static_cast<long long>(r.triangles), r.out_degree_bound,
              r.ledger.to_string().c_str());
  return 0;
}

int cmd_sweep(int argc, char** argv) {
  std::string spec_path, jsonl_path, progress_path, out_path = "ecd_sweep.json";
  int workers = 1, top_k = 4, repeat = 1;
  int progress_interval_ms = 1000, stall_seconds = 30;
  bool cold = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--spec" && i + 1 < argc) {
      spec_path = argv[++i];
    } else if (arg == "--workers" && i + 1 < argc) {
      workers = std::atoi(argv[++i]);
    } else if (arg == "--jsonl" && i + 1 < argc) {
      jsonl_path = argv[++i];
    } else if (arg == "--progress" && i + 1 < argc) {
      progress_path = argv[++i];
    } else if (arg == "--progress-interval-ms" && i + 1 < argc) {
      progress_interval_ms = std::atoi(argv[++i]);
    } else if (arg == "--stall-seconds" && i + 1 < argc) {
      stall_seconds = std::atoi(argv[++i]);
    } else if (arg == "--out" && i + 1 < argc) {
      out_path = argv[++i];
    } else if (arg == "--top" && i + 1 < argc) {
      top_k = std::atoi(argv[++i]);
    } else if (arg == "--repeat" && i + 1 < argc) {
      repeat = std::atoi(argv[++i]);
    } else if (arg == "--cold") {
      cold = true;
    } else {
      usage();
    }
  }
  if (spec_path.empty() || repeat < 1) usage();
  std::ifstream spec_in(spec_path);
  if (!spec_in) {
    std::fprintf(stderr, "cannot open %s\n", spec_path.c_str());
    return 1;
  }
  std::ostringstream spec_text;
  spec_text << spec_in.rdbuf();
  try {
    const ecd::core::SweepSpec spec =
        ecd::core::parse_sweep_spec(spec_text.str());
    ecd::core::SweepEngine engine;
    ecd::core::SweepOptions opt;
    opt.workers = workers;
    opt.reuse = !cold;
    opt.report_top_edges = top_k;
    opt.progress_interval_ms = progress_interval_ms;
    opt.stall_seconds = stall_seconds;
    std::ofstream jsonl_out;
    if (!jsonl_path.empty()) {
      jsonl_out.open(jsonl_path);
      if (!jsonl_out) {
        std::fprintf(stderr, "cannot open %s\n", jsonl_path.c_str());
        return 1;
      }
    }
    // Progress heartbeats go to a file or, with "-", to stderr (where they
    // interleave with the pass summaries a human is already watching).
    std::ofstream progress_file;
    if (!progress_path.empty()) {
      if (progress_path == "-") {
        opt.progress = &std::cerr;
      } else {
        progress_file.open(progress_path);
        if (!progress_file) {
          std::fprintf(stderr, "cannot open %s\n", progress_path.c_str());
          return 1;
        }
        opt.progress = &progress_file;
      }
    }
    const ecd::core::SweepResult* result = nullptr;
    for (int pass = 0; pass < repeat; ++pass) {
      // Only the final pass streams JSONL — earlier passes exist to show
      // the warm-cache throughput, and duplicated report lines would make
      // the run ids ambiguous.
      ecd::core::SweepOptions pass_opt = opt;
      if (pass + 1 != repeat || jsonl_path.empty()) pass_opt.jsonl = nullptr;
      else pass_opt.jsonl = &jsonl_out;
      const ecd::core::SweepResult& r = engine.run(spec, pass_opt);
      std::printf(
          "pass %d: %zu runs in %.3f ms  (%.1f runs/s, graphs built %lld, "
          "networks built %lld, cache hits %lld)\n",
          pass + 1, r.records.size(), r.wall_ns / 1e6, r.runs_per_sec(),
          static_cast<long long>(r.graphs_built),
          static_cast<long long>(r.networks_built),
          static_cast<long long>(r.cache_hits));
      result = &r;
    }
    std::ofstream out(out_path);
    if (!out) {
      std::fprintf(stderr, "cannot open %s\n", out_path.c_str());
      return 1;
    }
    out << "{\"schema\":\"ecd-sweep-v1\",\"cells\":" << result->records.size()
        << ",\"workers\":" << workers << ",\"repeat\":" << repeat
        << ",\"cold\":" << (cold ? "true" : "false")
        << ",\"aggregate\":" << result->aggregate_json()
        << ",\"wall\":" << result->wall_json() << "}\n";
    std::printf("aggregate: %s\n", result->aggregate_json().c_str());
    if (!jsonl_path.empty()) std::printf("wrote %s\n", jsonl_path.c_str());
    std::printf("wrote %s\n", out_path.c_str());
  } catch (const std::exception& e) {
    std::fprintf(stderr, "sweep failed: %s\n", e.what());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  if (cmd == "gen") return cmd_gen(argc, argv);
  if (cmd == "run") return cmd_run(argc, argv);
  if (cmd == "sweep") return cmd_sweep(argc, argv);
  if (argc < 3) usage();
  const Options o = parse(argc, argv, 2);
  if (cmd == "decompose") return cmd_decompose(o);
  if (cmd == "mis") return cmd_mis(o);
  if (cmd == "mcm") return cmd_mcm(o);
  if (cmd == "mwm") return cmd_mwm(o);
  if (cmd == "correlate") return cmd_correlate(o);
  if (cmd == "test-planarity") return cmd_test_planarity(o);
  if (cmd == "ldd") return cmd_ldd(o);
  if (cmd == "triangles") return cmd_triangles(o);
  usage();
}
