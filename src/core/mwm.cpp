#include "src/core/mwm.h"

#include <algorithm>
#include <cmath>

#include "src/graph/subgraph.h"
#include "src/seq/mwm.h"

namespace ecd::core {

using graph::Graph;
using graph::VertexId;

MwmApproxResult mwm_approx(const Graph& g, double eps,
                           const MwmApproxOptions& options) {
  const int n = g.num_vertices();
  MwmApproxResult result;
  result.mates.assign(n, graph::kInvalidVertex);
  result.phases = options.phases > 0
                      ? options.phases
                      : static_cast<int>(std::ceil(4.0 / eps)) + 2;

  for (int phase = 0; phase < result.phases; ++phase) {
    FrameworkOptions fopt = options.framework;
    fopt.decomposition.weighted_volumes = options.weighted_decomposition;
    fopt.seed = options.framework.seed + 0x51ED2701ULL * (phase + 1);
    if (fopt.deterministic) {
      // Deterministic mode still needs phase-distinct decompositions; the
      // phase index is public information, so this stays deterministic.
      fopt.decomposition.seed += phase + 1;
    }
    Partition partition = partition_and_gather(g, eps, fopt);

    for (const Cluster& cluster : partition.clusters) {
      const auto& sub = cluster.subgraph;
      const int nc = sub.graph.num_vertices();
      // Freeze vertices matched across the cluster boundary; the matching
      // edges fully inside the cluster are up for replacement.
      std::vector<bool> available(nc, true);
      std::int64_t inside_weight = 0;
      {
        for (VertexId i = 0; i < nc; ++i) {
          const VertexId parent = sub.to_parent[i];
          const VertexId mate = result.mates[parent];
          if (mate == graph::kInvalidVertex) continue;
          if (partition.decomposition.cluster_of[mate] !=
              partition.decomposition.cluster_of[parent]) {
            available[i] = false;  // frozen: matched to another cluster
          }
        }
        for (VertexId i = 0; i < nc; ++i) {
          const VertexId parent = sub.to_parent[i];
          const VertexId mate = result.mates[parent];
          if (mate == graph::kInvalidVertex || mate < parent) continue;
          if (partition.decomposition.cluster_of[mate] ==
              partition.decomposition.cluster_of[parent]) {
            const graph::EdgeId e = g.find_edge(parent, mate);
            inside_weight += g.weight(e);
          }
        }
      }
      // Build the available-subgraph and solve.
      std::vector<VertexId> avail_vertices;
      for (VertexId i = 0; i < nc; ++i) {
        if (available[i]) avail_vertices.push_back(i);
      }
      if (avail_vertices.size() < 2) continue;
      const auto avail = graph::induced_subgraph(sub.graph, avail_vertices);
      seq::Mates local;
      if (avail.graph.num_vertices() <= options.exact_cluster_cap) {
        local = seq::max_weight_matching(avail.graph);
      } else {
        local = seq::greedy_weight_matching(avail.graph);
        ++result.clusters_greedy;
      }
      const std::int64_t new_weight = seq::matching_weight(avail.graph, local);
      if (new_weight < inside_weight) continue;  // keep-best: stay monotone
      // Clear current inside-cluster matches, then adopt the local solution.
      for (VertexId i = 0; i < nc; ++i) {
        const VertexId parent = sub.to_parent[i];
        const VertexId mate = result.mates[parent];
        if (mate != graph::kInvalidVertex &&
            partition.decomposition.cluster_of[mate] ==
                partition.decomposition.cluster_of[parent]) {
          result.mates[parent] = graph::kInvalidVertex;
          result.mates[mate] = graph::kInvalidVertex;
        }
      }
      for (VertexId a = 0; a < avail.graph.num_vertices(); ++a) {
        const VertexId b = local[a];
        if (b == graph::kInvalidVertex || b < a) continue;
        const VertexId pa = sub.to_parent[avail.to_parent[a]];
        const VertexId pb = sub.to_parent[avail.to_parent[b]];
        result.mates[pa] = pb;
        result.mates[pb] = pa;
      }
    }
    {
      std::vector<std::int64_t> words(n);
      for (VertexId v = 0; v < n; ++v) words[v] = result.mates[v];
      return_results(partition, words, "result return (reversed walks)");
    }
    result.ledger.merge(partition.ledger);
  }
  result.weight = seq::matching_weight(g, result.mates);
  return result;
}

}  // namespace ecd::core
