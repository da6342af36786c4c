#include "src/core/framework.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <unordered_map>

#include "src/congest/metrics.h"
#include "src/expander/distributed_decomposition.h"
#include "src/graph/metrics.h"
#include "src/graph/splitmix.h"

namespace ecd::core {

using congest::GatherOptions;
using congest::GatherToken;
using graph::EdgeId;
using graph::Graph;
using graph::VertexId;

namespace {

// Rebuilds G[V_i] exactly as the leader sees it: the vertex set is the union
// of token endpoints (plus the leader itself), edges and their attributes
// come from the token payloads [u, v, weight, sign].
graph::InducedSubgraph reconstruct_cluster(
    const Graph& g, VertexId leader,
    const std::vector<std::vector<std::int64_t>>& payloads) {
  graph::InducedSubgraph out;
  std::unordered_map<VertexId, VertexId> to_local;
  auto local_id = [&](VertexId parent) {
    auto [it, inserted] =
        to_local.try_emplace(parent, static_cast<VertexId>(out.to_parent.size()));
    if (inserted) out.to_parent.push_back(parent);
    return it->second;
  };
  local_id(leader);
  std::vector<graph::Edge> edges;
  std::vector<graph::Weight> weights;
  std::vector<graph::EdgeSign> signs;
  for (const auto& p : payloads) {
    if (p[1] < 0) {  // registration token: names a vertex, not an edge
      local_id(static_cast<VertexId>(p[0]));
      continue;
    }
    const VertexId u = local_id(static_cast<VertexId>(p[0]));
    const VertexId v = local_id(static_cast<VertexId>(p[1]));
    edges.push_back({u, v});
    weights.push_back(p[2]);
    signs.push_back(p[3] > 0 ? graph::EdgeSign::kPositive
                             : graph::EdgeSign::kNegative);
  }
  out.graph = Graph::from_edges(static_cast<int>(out.to_parent.size()),
                                std::move(edges));
  if (g.is_weighted()) out.graph = out.graph.with_weights(std::move(weights));
  if (g.is_signed()) out.graph = out.graph.with_signs(std::move(signs));
  // Recover parent edge ids for downstream bookkeeping.
  out.edge_to_parent.reserve(out.graph.num_edges());
  for (EdgeId e = 0; e < out.graph.num_edges(); ++e) {
    const graph::Edge ed = out.graph.edge(e);
    const EdgeId parent_edge =
        g.find_edge(out.to_parent[ed.u], out.to_parent[ed.v]);
    if (parent_edge == graph::kInvalidEdge) {
      throw std::logic_error("gathered token names a non-edge");
    }
    out.edge_to_parent.push_back(parent_edge);
  }
  return out;
}

}  // namespace

Partition partition_and_gather(const Graph& g, double eps,
                               const FrameworkOptions& options) {
  if (eps <= 0.0 || eps >= 1.0) throw std::invalid_argument("eps out of (0,1)");
  const int n = g.num_vertices();
  Partition out;

  // Theorem 2.6: ε' = ε / t with t the density bound of the class.
  const int t = options.density_bound > 0
                    ? options.density_bound
                    : std::max(1, static_cast<int>(std::ceil(g.edge_density())));
  out.eps_effective = eps / t;

  expander::DecompositionOptions dopt = options.decomposition;
  dopt.deterministic = options.deterministic;
  // Per-phase sub-seeds are splitmix-derived with distinct phase tags:
  // the old multiplicative mixes left the decomposition and gather streams
  // trivially correlated across nearby user seeds (seed=1 reuse).
  dopt.seed = graph::splitmix64(dopt.seed ^ graph::splitmix64(options.seed));

  congest::NetworkOptions control_net;  // bandwidth-1 control traffic
  control_net.trace = options.trace;
  control_net.trace_config = options.trace_config;
  control_net.metrics = options.metrics;
  control_net.profiler = options.profiler;
  control_net.num_threads = options.num_threads;
  control_net.sparse_serial_threshold = options.sparse_serial_threshold;

  {
    congest::MetricsPhase mphase(options.metrics, "phase:decomposition");
    if (options.decomposition_mode == DecompositionMode::kDistributed) {
      expander::DistributedDecompositionOptions ddopt;
      ddopt.phi = dopt.phi;
      ddopt.seed = dopt.seed;
      ddopt.max_retries = dopt.max_retries;
      ddopt.net = control_net;
      // The construction stays serial at every num_threads: its thousands
      // of short rounds (a few words per edge each) lose more to dispatch
      // and barriers than sharding wins back. Running it at 4 threads
      // raised the mcm_planar_dist_t4 pipeline benchmark's run_s from
      // 0.49-0.64 s to 0.69-0.81 s (4-CPU container, seeds 1-3, two
      // alternating pairs each).
      ddopt.net.num_threads = 1;
      const auto dd =
          expander::distributed_expander_decompose(g, out.eps_effective, ddopt);
      out.decomposition = dd.decomposition;
      out.ledger.add_measured("expander decomposition (distributed sweep)",
                              dd.stats);
    } else {
      out.decomposition =
          expander::expander_decompose(g, out.eps_effective, dopt);
      out.ledger.add_modeled(
          "expander decomposition (Thm 2.1/2.2)",
          congest::modeled_decomposition_rounds(n, out.eps_effective,
                                                options.deterministic));
    }
  }

  const auto& cluster_of = out.decomposition.cluster_of;

  // Leader election: the paper elects a maximum-cluster-degree vertex.
  congest::LeaderElectionResult election;
  {
    congest::MetricsPhase mphase(options.metrics, "phase:election");
    election = congest::elect_cluster_leaders(g, cluster_of, control_net);
  }
  out.leader_of = election.leader_of;
  out.ledger.add_measured("leader election (flooding)", election.stats);

  // Low-out-degree orientation (Barenboim–Elkin): the peel threshold is the
  // degeneracy, an O(1) constant of the H-minor-free class. Note: BE's
  // O(log n)-phase guarantee needs threshold >= (2+δ)·arboricity; at
  // exactly the degeneracy some families (grids: degeneracy 2 = arboricity)
  // peel in Θ(sqrt n) measured phases instead — visible in the ledger and
  // discussed in EXPERIMENTS.md E13.
  const int threshold = std::max(1, graph::degeneracy(g).degeneracy);
  congest::OrientationResult orientation;
  {
    congest::MetricsPhase mphase(options.metrics, "phase:orientation");
    orientation =
        congest::orient_cluster_edges(g, cluster_of, threshold, control_net);
  }
  out.ledger.add_measured("edge orientation (Barenboim-Elkin)",
                          orientation.stats);

  // Token per oriented intra-cluster edge: [u, v, weight, sign]; plus one
  // registration ("hello") token [v, -1, 0, 0] per vertex, which both
  // announces the vertex to the leader and pins a return path for the
  // reversed result delivery (Theorem 2.6's "exchange a distinct message
  // with each vertex").
  std::vector<std::vector<GatherToken>> tokens(n);
  out.hello_token_of.resize(n);
  std::int64_t next_token_id = 0;
  for (VertexId v = 0; v < n; ++v) {
    out.hello_token_of[v] = next_token_id++;
    tokens[v].push_back({v, {v, -1, 0, 0}});
    for (EdgeId e : orientation.owned[v]) {
      const graph::Edge ed = g.edge(e);
      ++next_token_id;
      tokens[v].push_back(
          {v,
           {ed.u, ed.v, g.weight(e),
            !g.is_signed() || g.sign(e) == graph::EdgeSign::kPositive ? 1
                                                                      : -1}});
    }
  }
  GatherOptions gopt;
  gopt.seed = graph::splitmix64(options.seed ^ 0x2545F4914F6CDD1DULL);
  gopt.net = control_net;
  gopt.net.bandwidth_tokens =
      options.walk_bandwidth > 0
          ? options.walk_bandwidth
          : std::max(1, static_cast<int>(std::ceil(std::log2(std::max(2, n)))));
  if (options.faults.enabled()) {
    congest::ReliableGatherOptions ropt;
    ropt.net = gopt.net;
    ropt.net.faults = options.faults;
    ropt.seed = gopt.seed;
    ropt.epoch_rounds = options.gather_epoch_rounds;
    congest::MetricsPhase mphase(options.metrics, "phase:gather");
    congest::ReliableGatherResult reliable = congest::reliable_walk_gather(
        g, cluster_of, out.leader_of, tokens, ropt);
    out.gather = std::move(reliable.gather);
    out.gather_retransmissions = reliable.retransmissions;
    out.gather_epochs = reliable.epochs;
    out.gather_reelections = reliable.reelections;
    if (options.metrics) {
      options.metrics->counter("gather.retransmissions")
          ->add(reliable.retransmissions);
      options.metrics->counter("gather.epochs")->add(reliable.epochs);
      options.metrics->counter("gather.reelections")->add(reliable.reelections);
    }
    // Crash-forced re-elections replace leaders mid-gather; downstream
    // phases (reconstruction, reversed delivery) must see the survivors.
    // Crashed vertices report no leader (-1) and keep their original entry.
    for (VertexId v = 0; v < n; ++v) {
      if (reliable.final_leader_of[v] >= 0) {
        out.leader_of[v] = reliable.final_leader_of[v];
      }
    }
    out.ledger.add_measured("topology gather (reliable walks, §12)",
                            out.gather.stats);
  } else {
    congest::MetricsPhase mphase(options.metrics, "phase:gather");
    out.gather = congest::random_walk_gather(g, cluster_of, out.leader_of,
                                             tokens, gopt);
    out.ledger.add_measured("topology gather (Lemma 2.4 random walks)",
                            out.gather.stats);
  }
  const auto& gather = out.gather;
  out.gather_complete = gather.complete;

  // Leader-side reconstruction.
  congest::MetricsPhase reconstruct_phase(options.metrics, "phase:reconstruct");
  const auto members = expander::cluster_members(out.decomposition);
  out.clusters.resize(out.decomposition.num_clusters);
  for (int c = 0; c < out.decomposition.num_clusters; ++c) {
    Cluster& cluster = out.clusters[c];
    cluster.members = members[c];
    cluster.leader = out.leader_of[members[c].front()];
    cluster.subgraph =
        reconstruct_cluster(g, cluster.leader, gather.delivered[c]);
    for (int i = 0; i < static_cast<int>(cluster.subgraph.to_parent.size());
         ++i) {
      if (cluster.subgraph.to_parent[i] == cluster.leader) {
        cluster.leader_local = i;
      }
    }
  }
  return out;
}

std::int64_t return_results(Partition& partition,
                            const std::vector<std::int64_t>& per_vertex_word,
                            const char* label) {
  // Attach each vertex's answer to its registration token and replay the
  // forward schedule backwards; the schedule is verified, not just charged.
  std::vector<std::vector<std::int64_t>> reply(partition.gather.traces.size());
  for (std::size_t v = 0; v < per_vertex_word.size(); ++v) {
    reply[partition.hello_token_of[v]] = {per_vertex_word[v]};
  }
  // Verified against the budget the forward walks actually ran at.
  const auto delivery = congest::reverse_delivery(
      static_cast<int>(per_vertex_word.size()), partition.gather, reply,
      partition.gather.bandwidth);
  if (!delivery.load_ok) {
    throw std::logic_error("reverse delivery violated the edge budget");
  }
  // Every vertex must have received exactly its own word back.
  for (std::size_t v = 0; v < per_vertex_word.size(); ++v) {
    if (delivery.received[v].size() != 1 ||
        delivery.received[v][0][0] != per_vertex_word[v]) {
      throw std::logic_error("reverse delivery dropped or mixed a reply");
    }
  }
  partition.ledger.add_measured(label, delivery.stats);
  return delivery.stats.rounds;
}

std::vector<HighDegreeDiagnostic> high_degree_diagnostics(
    const Partition& partition) {
  std::vector<HighDegreeDiagnostic> out;
  const double phi = partition.decomposition.phi;
  for (int c = 0; c < static_cast<int>(partition.clusters.size()); ++c) {
    const Cluster& cluster = partition.clusters[c];
    HighDegreeDiagnostic d;
    d.cluster = c;
    d.cluster_size = static_cast<int>(cluster.members.size());
    d.cluster_edges = cluster.subgraph.graph.num_edges();
    d.leader_degree = cluster.leader_local >= 0
                          ? cluster.subgraph.graph.degree(cluster.leader_local)
                          : 0;
    d.phi = phi;
    const double denom = phi * phi * d.cluster_size;
    d.ratio = denom > 0 ? d.leader_degree / denom : 0.0;
    out.push_back(d);
  }
  return out;
}

}  // namespace ecd::core
