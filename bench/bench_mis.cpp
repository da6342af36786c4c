// E5 — Theorem 1.2: (1-ε)-approximate MaxIS on minor-free networks,
// against the Luby maximal-IS baseline (which only guarantees 1/Δ).
//
// Counters:
//   ours        |I| from the framework
//   exact       optimum (branch & bound; -1 if the budget ran out)
//   ratio       ours / exact (>= 1 - eps expected)
//   luby        Luby maximal IS size
//   luby_ratio  luby / exact
//   measured_rounds / modeled_rounds  the two ledger columns
//
// BM_MisExact times the leader-side exact solver alone (DESIGN.md §20) on
// the clusters core::mis_approx hands it: nodes_per_sec counts
// branch-and-bound nodes, one per unit of the node budget.
#include <cmath>

#include "bench/bench_util.h"
#include "src/baselines/luby_mis.h"
#include "src/core/framework.h"
#include "src/core/mis.h"
#include "src/graph/splitmix.h"
#include "src/seq/mis.h"

namespace {

using namespace ecd;

void BM_Mis(benchmark::State& state) {
  const auto family = static_cast<bench::Family>(state.range(0));
  const int n = static_cast<int>(state.range(1));
  const double eps = bench::eps_from_arg(state.range(2));
  graph::Rng rng(55 + n);
  const graph::Graph g = bench::make_graph(family, n, rng);

  core::MisApproxResult r;
  for (auto _ : state) {
    r = core::mis_approx(g, eps);
  }
  // Optimum: closed-form for grids (checkerboard, alpha = ceil(n/2));
  // bounded branch-and-bound otherwise (-1 when the budget runs out).
  std::optional<std::size_t> exact;
  if (family == bench::Family::kGrid) {
    exact = static_cast<std::size_t>((g.num_vertices() + 1) / 2);
  } else if (const auto found = seq::max_independent_set_exact(g, 8'000'000)) {
    exact = found->size();
  }
  const auto luby = baselines::luby_mis(g, 3);

  state.SetLabel(bench::family_name(family));
  state.counters["n"] = g.num_vertices();
  state.counters["eps"] = eps;
  state.counters["ours"] = static_cast<double>(r.independent_set.size());
  state.counters["exact"] = exact ? static_cast<double>(*exact) : -1.0;
  state.counters["ratio"] =
      exact ? static_cast<double>(r.independent_set.size()) / *exact : -1.0;
  state.counters["luby"] = static_cast<double>(luby.independent_set.size());
  state.counters["luby_ratio"] =
      exact ? static_cast<double>(luby.independent_set.size()) / *exact : -1.0;
  state.counters["measured_rounds"] =
      static_cast<double>(r.ledger.measured_total());
  state.counters["modeled_rounds"] =
      static_cast<double>(r.ledger.modeled_total());
}

void MisArgs(benchmark::internal::Benchmark* b) {
  for (auto family : {bench::Family::kGrid, bench::Family::kRandomPlanar,
                      bench::Family::kOuterplanar, bench::Family::kTwoTree}) {
    for (int n : {144, 400}) {
      for (int eps_pm : {100, 200, 400}) {
        b->Args({static_cast<int>(family), n, eps_pm});
      }
    }
  }
}

BENCHMARK(BM_Mis)->Apply(MisArgs)->Iterations(1)->Unit(benchmark::kMillisecond);

// The clusters of four random_planar(n, 2n) graphs, partitioned as
// core::mis_approx partitions them at ε = 0.2.
std::vector<graph::Graph> mis_clusters(int n) {
  std::vector<graph::Graph> clusters;
  for (std::uint64_t i = 0; i < 4; ++i) {
    const std::uint64_t seed = graph::splitmix64(91 + i);
    graph::Rng rng(seed);
    const graph::Graph g = graph::random_planar(n, 2 * n, rng);
    core::FrameworkOptions options;
    options.seed = seed;
    options.density_bound = 1;
    const int d = std::max(1, static_cast<int>(std::ceil(g.edge_density())));
    core::Partition p = core::partition_and_gather(g, 0.2 / (2 * d + 1), options);
    for (core::Cluster& c : p.clusters) {
      clusters.push_back(std::move(c.subgraph.graph));
    }
  }
  return clusters;
}

// Search nodes one call spends: the whole budget when it runs out, else
// the smallest budget that still succeeds (found by bisection).
std::int64_t search_nodes(const graph::Graph& g, std::int64_t budget) {
  if (!seq::max_independent_set_exact(g, budget)) return budget;
  std::int64_t fails = 0;
  while (budget - fails > 1) {
    const std::int64_t mid = fails + (budget - fails) / 2;
    if (seq::max_independent_set_exact(g, mid)) {
      budget = mid;
    } else {
      fails = mid;
    }
  }
  return budget;
}

void BM_MisExact(benchmark::State& state) {
  const int n = static_cast<int>(state.range(0));
  const std::int64_t budget = state.range(1);
  const std::vector<graph::Graph> clusters = mis_clusters(n);
  std::int64_t nodes_per_pass = 0;
  int exact = 0;
  for (const graph::Graph& c : clusters) {
    nodes_per_pass += search_nodes(c, budget);
    exact += seq::max_independent_set_exact(c, budget).has_value();
  }
  std::int64_t nodes = 0;
  for (auto _ : state) {
    for (const graph::Graph& c : clusters) {
      benchmark::DoNotOptimize(seq::max_independent_set_exact(c, budget));
    }
    nodes += nodes_per_pass;
  }
  state.counters["clusters"] = static_cast<double>(clusters.size());
  state.counters["clusters_exact"] = exact;
  state.counters["nodes"] = static_cast<double>(nodes_per_pass);
  state.counters["nodes_per_sec"] = benchmark::Counter(
      static_cast<double>(nodes), benchmark::Counter::kIsRate);
}

BENCHMARK(BM_MisExact)
    ->ArgNames({"n", "budget"})
    ->Args({512, 250'000})
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

}  // namespace

ECD_BENCH_MAIN("mis");
