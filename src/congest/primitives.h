// Cluster-scoped CONGEST primitives (§2.2–2.3 of the paper).
//
// Every primitive is a real distributed algorithm executed on the
// simulator, restricted to intra-cluster edges, for all clusters in
// parallel; round counts returned are *measured*. They are the building
// blocks of Theorem 2.6: leader election, BFS trees, Barenboim–Elkin
// orientation, lazy-random-walk information gathering (Lemma 2.4), and
// leader broadcasts.
#pragma once

#include <cstdint>
#include <vector>

#include "src/congest/network.h"
#include "src/graph/graph.h"

namespace ecd::congest {

// --- Leader election ---------------------------------------------------------

struct LeaderElectionResult {
  // Per vertex: the elected leader of its cluster (max (cluster-degree, id)
  // pair, as in the proof of Theorem 2.6).
  std::vector<graph::VertexId> leader_of;
  RunStats stats;
};
LeaderElectionResult elect_cluster_leaders(const graph::Graph& g,
                                           const std::vector<int>& cluster_of,
                                           const NetworkOptions& net = {});

// --- BFS trees ----------------------------------------------------------------

struct BfsTreeResult {
  std::vector<graph::VertexId> parent;  // kInvalidVertex for roots
  std::vector<int> depth;               // 0 at roots
  int max_depth = 0;
  RunStats stats;
};
// Builds a BFS tree of every cluster rooted at its leader.
BfsTreeResult build_cluster_bfs_trees(const graph::Graph& g,
                                      const std::vector<int>& cluster_of,
                                      const std::vector<graph::VertexId>& leader_of,
                                      const NetworkOptions& net = {});

// --- Low-out-degree orientation (Barenboim–Elkin peeling, §2.2) ---------------

struct OrientationResult {
  // owned[v] = intra-cluster edge ids v is responsible for announcing.
  std::vector<std::vector<graph::EdgeId>> owned;
  int max_out_degree = 0;
  int peeling_phases = 0;
  RunStats stats;
};
// `peel_threshold` must be >= the maximum min-degree over subgraphs (the
// degeneracy); for H-minor-free graphs this is O(1), known from the class.
OrientationResult orient_cluster_edges(const graph::Graph& g,
                                       const std::vector<int>& cluster_of,
                                       int peel_threshold,
                                       const NetworkOptions& net = {});

// --- Random-walk gather (Lemma 2.4) -------------------------------------------

struct GatherToken {
  graph::VertexId origin = graph::kInvalidVertex;
  // <= kMaxMessageWords - 1 words: every walk message spends one word on
  // the token id. The gathers throw std::invalid_argument on a longer one.
  std::vector<std::int64_t> payload;
};

struct GatherOptions {
  NetworkOptions net;
  std::uint64_t seed = 1;
};

// Chronological loop erasure of one token's forward walk: a simple path
// from the origin to the leader (origin first) and, per hop, the round it
// happened (DESIGN.md §21). Each surviving hop is a real forward hop at its
// real round, so the rounds strictly increase and the path is what the
// reversed delivery replays. Kept as *local bookkeeping*: every vertex on
// the path remembers which way it last forwarded the token, which is what
// makes the reversed delivery below routable — no path ever travels in a
// message.
struct TokenTrace {
  graph::VertexId origin = graph::kInvalidVertex;
  int cluster = -1;
  std::vector<graph::VertexId> visited;  // origin ... leader, no repeats
  std::vector<std::int64_t> hop_round;   // round of each hop (size-1 entries)
};

// Position of each vertex on a TokenTrace's path, so that recording a hop
// costs O(1) amortized: a hop back onto the path erases the loop it closes.
// The positions into `visited` sit in an open-addressing table built at the
// token's first hop. Its memory is O(the longest path the token has held),
// never O(walk length). clear() drops the table when the trace is reset.
class TracePathIndex {
 public:
  // Records the token's hop to `to` at `round`. If `to` is on the path at
  // position k, the loop is erased: `visited` keeps k+1 entries and
  // `hop_round` k. Otherwise the hop is appended.
  void record_hop(TokenTrace& trace, graph::VertexId to, std::int64_t round);
  void clear();

 private:
  void rebuild(const std::vector<graph::VertexId>& visited);
  std::size_t home(graph::VertexId v) const;

  std::vector<std::int32_t> slots_;  // positions into visited; -1 is empty
};

struct GatherResult {
  // Per cluster: payloads absorbed by the leader (arbitrary order).
  std::vector<std::vector<std::vector<std::int64_t>>> delivered;
  // Token id of each delivered payload, aligned with `delivered`.
  std::vector<std::vector<std::int64_t>> delivered_ids;
  // Trace per token id (global numbering across all origins).
  std::vector<TokenTrace> traces;
  bool complete = false;  // all tokens absorbed before max_rounds
  RunStats stats;
  // Tokens per edge per round the walks ran at (net.bandwidth_tokens); the
  // reversed delivery verifies its mirrored schedule against it.
  int bandwidth = 1;
};
// Routes each token from its origin to the origin's cluster leader by lazy
// random walks; tokens queue when an edge's per-round budget is full (the
// paper instead batches O(log n) messages per edge into O(log n) rounds —
// the same total work, measured here directly).
GatherResult random_walk_gather(const graph::Graph& g,
                                const std::vector<int>& cluster_of,
                                const std::vector<graph::VertexId>& leader_of,
                                const std::vector<std::vector<GatherToken>>& tokens,
                                const GatherOptions& options = {});

// --- Reliable random-walk gather under faults (DESIGN.md §12) -------------------

struct ReliableGatherOptions {
  // net.faults carries the fault plan; crash rounds are interpreted on the
  // gather's own cumulative round timeline (re-election rounds included).
  NetworkOptions net;
  std::uint64_t seed = 1;
  // Rounds per epoch before walkers give up, after which the host checks
  // progress, re-elects leaders for clusters whose leader crash-stopped,
  // and re-seeds undelivered tokens at their origins.
  int epoch_rounds = 512;
  int max_epochs = 8;
  // Rounds a sender waits for an ack before retransmitting on the same
  // port; 0 derives 4 + 2 * max_delay_rounds from the fault plan.
  int ack_timeout = 0;
};

struct ReliableGatherResult {
  // Same shape as random_walk_gather's result; stats accumulate over all
  // epochs and re-elections. complete == true iff every non-orphaned token
  // was absorbed by a leader that was still alive at the last epoch
  // boundary. A token is orphaned when its origin crash-stops before
  // delivery: no live vertex can re-introduce it, so it drops out of the
  // completeness contract (and out of `delivered`) instead of wedging it.
  GatherResult gather;
  std::int64_t retransmissions = 0;  // token re-sends after ack timeout
  std::int64_t ack_messages = 0;     // ack messages sent (batched)
  int epochs = 0;
  int reelections = 0;
  // Leaders in effect when the gather finished (differs from the input
  // when a crash forced re-election).
  std::vector<graph::VertexId> final_leader_of;
};

// random_walk_gather hardened against the fault layer: every token hop
// carries a per-token sequence number, receivers acknowledge (acks batched,
// kMaxMessageWords ids per message) and deduplicate on (token, seq), and
// senders retransmit unacknowledged hops on the same port — so drops,
// duplicates, and delays cannot lose or double-deliver a token, and the
// recorded traces stay valid for reverse_delivery. Crash-stopped leaders
// are replaced by host-orchestrated re-election between epochs; tokens
// stranded at crashed or given-up walkers restart from their origins.
ReliableGatherResult reliable_walk_gather(
    const graph::Graph& g, const std::vector<int>& cluster_of,
    const std::vector<graph::VertexId>& leader_of,
    const std::vector<std::vector<GatherToken>>& tokens,
    const ReliableGatherOptions& options = {});

// --- Leader broadcast -----------------------------------------------------------

struct BroadcastResult {
  // value received by each vertex (the leader's word), -1 if unreachable.
  std::vector<std::int64_t> value;
  RunStats stats;
};
// Floods one O(log n)-bit word from each cluster leader to its cluster.
BroadcastResult broadcast_from_leaders(const graph::Graph& g,
                                       const std::vector<int>& cluster_of,
                                       const std::vector<graph::VertexId>& leader_of,
                                       const std::vector<std::int64_t>& leader_value,
                                       const NetworkOptions& net = {});

// --- Reversed-walk result delivery (§2.2, last paragraph) -----------------------

struct ReverseDeliveryResult {
  // Reply payload received by each origin vertex (one per token, in token
  // id order restricted to that origin).
  std::vector<std::vector<std::vector<std::int64_t>>> received;
  RunStats stats;
  // True iff the reverse schedule respected the per-edge budget every round
  // (it must: it mirrors the forward schedule hop by hop).
  bool load_ok = false;
};

// Delivers `reply[token_id]` from each cluster leader back to the token's
// origin by replaying the recorded forward schedule in reverse: the hop
// taken at forward round r is traversed backwards at round T - r, so
// per-edge congestion is identical to the forward run and the delivery
// takes exactly as many rounds. `bandwidth` is verified, not assumed.
ReverseDeliveryResult reverse_delivery(
    int num_vertices, const GatherResult& gather,
    const std::vector<std::vector<std::int64_t>>& reply, int bandwidth);

// --- Deterministic tree gather (the Lemma 2.5 role) ----------------------------

struct TreeGatherResult {
  std::vector<std::vector<std::vector<std::int64_t>>> delivered;  // per cluster
  bool complete = false;
  congest::RunStats stats;
};
// Deterministic alternative to the random-walk gather: tokens climb the
// cluster BFS tree one hop per round, `bandwidth` tokens per edge per
// round. Worst-case congestion at the root can make this slower than the
// walks on large clusters (Lemma 2.5 exists precisely to avoid that); the
// ablation bench compares the two.
TreeGatherResult tree_gather(const graph::Graph& g,
                             const std::vector<int>& cluster_of,
                             const std::vector<graph::VertexId>& leader_of,
                             const std::vector<graph::VertexId>& bfs_parent,
                             const std::vector<std::vector<GatherToken>>& tokens,
                             const NetworkOptions& net = {});

// --- Convergecast ----------------------------------------------------------------

enum class Fold { kSum, kMin, kMax };

struct ConvergecastResult {
  // Per cluster: fold of all vertices' values, available at the leader.
  std::vector<std::int64_t> sum;
  congest::RunStats stats;
};
// Folds one O(log n)-bit value per vertex up the BFS tree (each tree edge
// carries exactly one partial aggregate, so bandwidth 1 suffices).
ConvergecastResult convergecast_fold(const graph::Graph& g,
                                     const std::vector<int>& cluster_of,
                                     const std::vector<graph::VertexId>& leader_of,
                                     const std::vector<graph::VertexId>& bfs_parent,
                                     const std::vector<int>& depth,
                                     const std::vector<std::int64_t>& value,
                                     Fold fold, const NetworkOptions& net = {});

inline ConvergecastResult convergecast_sum(
    const graph::Graph& g, const std::vector<int>& cluster_of,
    const std::vector<graph::VertexId>& leader_of,
    const std::vector<graph::VertexId>& bfs_parent,
    const std::vector<int>& depth, const std::vector<std::int64_t>& value,
    const NetworkOptions& net = {}) {
  return convergecast_fold(g, cluster_of, leader_of, bfs_parent, depth, value,
                           Fold::kSum, net);
}

// --- Cluster diameter self-check (§2.3, failure detection) ---------------------

struct DiameterCheckResult {
  // Per vertex: true if its cluster verified diameter <= bound.
  std::vector<bool> within_bound;
  RunStats stats;
};
// The paper's *-marking protocol: each vertex computes the max id within
// distance `bound` in its cluster; disagreement with a neighbor marks the
// cluster as too wide. All vertices of a cluster agree on the outcome.
DiameterCheckResult check_cluster_diameter(const graph::Graph& g,
                                           const std::vector<int>& cluster_of,
                                           int bound,
                                           const NetworkOptions& net = {});

}  // namespace ecd::congest
