#include "src/congest/primitives.h"

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>

#include "src/graph/splitmix.h"

namespace ecd::congest {

using graph::EdgeId;
using graph::Graph;
using graph::kInvalidVertex;
using graph::VertexId;

// --- Loop-erased traces (DESIGN.md §21) -----------------------------------------

// Positions are inserted in path order and erased newest first, so erasing
// one restores the table the insertion found: linear probing needs no
// tombstones. rebuild() re-inserts in path order, which keeps that true.
void TracePathIndex::record_hop(TokenTrace& trace, VertexId to,
                                std::int64_t round) {
  std::vector<VertexId>& visited = trace.visited;
  if (slots_.empty()) rebuild(visited);
  const std::size_t mask = slots_.size() - 1;
  std::size_t i = home(to);
  while (slots_[i] >= 0 && visited[slots_[i]] != to) i = (i + 1) & mask;
  if (slots_[i] >= 0) {  // `to` closes a loop: erase it
    const std::size_t k = static_cast<std::size_t>(slots_[i]);
    for (std::size_t j = visited.size() - 1; j > k; --j) {
      std::size_t e = home(visited[j]);
      while (static_cast<std::size_t>(slots_[e]) != j) e = (e + 1) & mask;
      slots_[e] = -1;
    }
    visited.resize(k + 1);
    trace.hop_round.resize(k);
    return;
  }
  visited.push_back(to);
  trace.hop_round.push_back(round);
  if (2 * visited.size() > slots_.size()) {
    rebuild(visited);
  } else {
    slots_[i] = static_cast<std::int32_t>(visited.size() - 1);
  }
}

void TracePathIndex::clear() { std::vector<std::int32_t>().swap(slots_); }

// The smallest power of two above twice the path: a rebuild leaves the load
// at about 1/4, and the next comes when it would pass 1/2.
void TracePathIndex::rebuild(const std::vector<VertexId>& visited) {
  slots_.assign(std::bit_ceil(2 * visited.size() + 1), -1);
  const std::size_t mask = slots_.size() - 1;
  for (std::size_t k = 0; k < visited.size(); ++k) {
    std::size_t i = home(visited[k]);
    while (slots_[i] >= 0) i = (i + 1) & mask;
    slots_[i] = static_cast<std::int32_t>(k);
  }
}

std::size_t TracePathIndex::home(VertexId v) const {
  return graph::splitmix64(static_cast<std::uint64_t>(v)) & (slots_.size() - 1);
}

namespace {

// Ports of v whose neighbor lies in the same cluster.
std::vector<std::vector<int>> intra_cluster_ports(
    const Graph& g, const std::vector<int>& cluster_of) {
  std::vector<std::vector<int>> ports(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto nbrs = g.neighbors(v);
    for (int p = 0; p < static_cast<int>(nbrs.size()); ++p) {
      if (cluster_of[nbrs[p]] == cluster_of[v]) ports[v].push_back(p);
    }
  }
  return ports;
}

// --- Gather tokens --------------------------------------------------------------

// Largest GatherToken payload: a walk message spends one word on the id.
constexpr int kMaxTokenPayload = kMaxMessageWords - 1;

// A token as a gather walker holds it, payload inline: taking a token off
// a message, queueing it and putting it back on a message never touches
// the heap. check_payloads() keeps every payload within the array.
struct WalkToken {
  std::int64_t id = -1;
  std::array<std::int64_t, kMaxTokenPayload> words{};
  int size = 0;

  const std::int64_t* begin() const { return words.data(); }
  const std::int64_t* end() const { return words.data() + size; }
  void assign(const std::int64_t* first, const std::int64_t* last) {
    assert(last - first <= kMaxTokenPayload);
    size = static_cast<int>(last - first);
    std::copy(first, last, words.begin());
  }
  std::vector<std::int64_t> payload() const { return {begin(), end()}; }
  // `header` (the routing word) followed by the payload.
  Message message(std::int64_t header) const {
    Message m;
    m.tag = kTagWalkToken;
    m.words.push_back(header);
    m.words.insert(m.words.end(), begin(), end());
    return m;
  }
};

WalkToken make_token(std::int64_t id, const GatherToken& t) {
  WalkToken tok;
  tok.id = id;
  tok.assign(t.payload.data(), t.payload.data() + t.payload.size());
  return tok;
}

void check_payloads(const std::vector<std::vector<GatherToken>>& tokens) {
  for (std::size_t v = 0; v < tokens.size(); ++v) {
    for (const GatherToken& t : tokens[v]) {
      if (t.payload.size() > static_cast<std::size_t>(kMaxTokenPayload)) {
        throw std::invalid_argument(
            "gather token at origin " + std::to_string(v) + " carries " +
            std::to_string(t.payload.size()) + " payload words; at most " +
            std::to_string(kMaxTokenPayload) + " fit beside the token id");
      }
    }
  }
}

// --- Leader election ----------------------------------------------------------

class LeaderElectionAlgo final : public VertexAlgorithm {
 public:
  LeaderElectionAlgo(const std::vector<int>* intra, int intra_degree)
      : intra_(intra), intra_degree_(intra_degree) {}

  void round(Context& ctx) override {
    started_ = true;
    bool changed = false;
    if (ctx.round() == 0) {
      best_ = {intra_degree_, ctx.id()};
      changed = true;
    }
    for (int p : *intra_) {
      for (const Message& m : ctx.inbox(p)) {
        const std::pair<std::int64_t, std::int64_t> cand{m.words[0],
                                                         m.words[1]};
        if (cand > best_) {
          best_ = cand;
          changed = true;
        }
      }
    }
    sent_ = changed;
    if (changed) {
      for (int p : *intra_) {
        ctx.send(p, {{best_.first, best_.second}, kTagElection});
      }
    }
  }

  bool finished() const override { return started_ && !sent_; }

  VertexId leader() const { return static_cast<VertexId>(best_.second); }

 private:
  const std::vector<int>* intra_;
  int intra_degree_;
  std::pair<std::int64_t, std::int64_t> best_{-1, -1};
  bool started_ = false;
  bool sent_ = false;
};

// --- BFS tree -------------------------------------------------------------------

class BfsAlgo final : public VertexAlgorithm {
 public:
  BfsAlgo(const std::vector<int>* intra, bool is_root)
      : intra_(intra), is_root_(is_root) {}

  void round(Context& ctx) override {
    started_ = true;
    sent_ = false;
    if (ctx.round() == 0 && is_root_) {
      depth_ = 0;
      announce(ctx);
      return;
    }
    if (depth_ != -1) return;
    int best_depth = -1;
    VertexId best_parent = kInvalidVertex;
    for (int p : *intra_) {
      for (const Message& m : ctx.inbox(p)) {
        const int d = static_cast<int>(m.words[0]);
        const VertexId sender = ctx.neighbor(p);
        if (best_depth == -1 || d < best_depth ||
            (d == best_depth && sender < best_parent)) {
          best_depth = d;
          best_parent = sender;
        }
      }
    }
    if (best_depth != -1) {
      depth_ = best_depth + 1;
      parent_ = best_parent;
      announce(ctx);
    }
  }

  bool finished() const override { return started_ && !sent_; }

  int depth() const { return depth_; }
  VertexId parent() const { return parent_; }

 private:
  void announce(Context& ctx) {
    sent_ = true;
    for (int p : *intra_) ctx.send(p, {{depth_}, kTagBfs});
  }

  const std::vector<int>* intra_;
  bool is_root_;
  bool started_ = false;
  bool sent_ = false;
  int depth_ = -1;
  VertexId parent_ = kInvalidVertex;
};

// --- Barenboim–Elkin peeling orientation ----------------------------------------

class PeelAlgo final : public VertexAlgorithm {
 public:
  PeelAlgo(const std::vector<int>* intra, int threshold)
      : intra_(intra), threshold_(threshold) {}

  void round(Context& ctx) override {
    started_ = true;
    sent_ = false;
    if (ctx.round() == 0) {
      for (int p : *intra_) alive_port_.push_back(p);
    }
    // Process peel announcements from the previous round.
    std::vector<int> simultaneous;  // ports whose neighbor peeled with us
    for (auto it = alive_port_.begin(); it != alive_port_.end();) {
      const int p = *it;
      if (!ctx.inbox(p).empty()) {
        if (peel_round_ != -1 &&
            ctx.inbox(p)[0].words[0] == peel_round_) {
          simultaneous.push_back(p);
        }
        it = alive_port_.erase(it);
      } else {
        ++it;
      }
    }
    if (peel_round_ != -1 && !claimed_) {
      // Finalize ownership one round after peeling: we own edges to
      // neighbors that were still alive from our view, except simultaneous
      // peelers with a smaller id.
      claimed_ = true;
      for (int p : tentative_ports_) {
        const bool simultaneous_peer =
            std::find(simultaneous.begin(), simultaneous.end(), p) !=
            simultaneous.end();
        if (!simultaneous_peer || ctx.id() < ctx.neighbor(p)) {
          owned_ports_.push_back(p);
        }
      }
      return;
    }
    if (peel_round_ == -1 &&
        static_cast<int>(alive_port_.size()) <= threshold_) {
      peel_round_ = ctx.round();
      tentative_ports_ = alive_port_;
      sent_ = true;
      for (int p : alive_port_) ctx.send(p, {{peel_round_}, kTagOrientation});
    }
  }

  bool finished() const override { return started_ && claimed_ && !sent_; }

  const std::vector<int>& owned_ports() const { return owned_ports_; }
  std::int64_t peel_round() const { return peel_round_; }

 private:
  const std::vector<int>* intra_;
  int threshold_;
  bool started_ = false;
  bool sent_ = false;
  bool claimed_ = false;
  std::int64_t peel_round_ = -1;
  std::vector<int> alive_port_;
  std::vector<int> tentative_ports_;
  std::vector<int> owned_ports_;
};

// --- Random-walk gather -----------------------------------------------------------

// A gather's traces with one path index per token, both owned by the
// gather call. Only the vertex holding a token records its hops, as in
// the forward run itself, so walkers on different shards never write the
// same entry.
struct TraceBook {
  std::vector<TokenTrace> traces;
  std::vector<TracePathIndex> paths;

  void add(VertexId origin, int cluster) {
    TokenTrace& trace = traces.emplace_back();
    trace.origin = origin;
    trace.cluster = cluster;
    trace.visited = {origin};
    paths.emplace_back();
  }
  // Local bookkeeping for the reversed delivery (§2.2): which way the
  // token went and when, loop-erased as it goes.
  void record_hop(std::int64_t id, VertexId to, std::int64_t round) {
    paths[id].record_hop(traces[id], to, round);
  }
  // The token restarts at its origin (a re-seed): its path goes with it.
  void restart(std::int64_t id) {
    traces[id].visited = {traces[id].origin};
    traces[id].hop_round.clear();
    paths[id].clear();
  }
};

class WalkAlgo final : public VertexAlgorithm {
 public:
  WalkAlgo(const std::vector<int>* intra, bool is_leader,
           std::vector<WalkToken> initial_tokens, std::uint64_t seed,
           int bandwidth, TraceBook* traces)
      : intra_(intra),
        is_leader_(is_leader),
        rng_(seed),
        bandwidth_(bandwidth),
        traces_(traces),
        held_(std::move(initial_tokens)),
        port_load_(intra->size(), 0) {}

  void round(Context& ctx) override {
    started_ = true;
    sent_ = false;
    for (int p : *intra_) {
      for (const Message& m : ctx.inbox(p)) {
        WalkToken& t = held_.emplace_back();
        t.id = m.words[0];
        t.assign(m.words.begin() + 1, m.words.end());
      }
    }
    if (is_leader_) {
      absorbed_.insert(absorbed_.end(), held_.begin(), held_.end());
      held_.clear();
      return;
    }
    if (held_.empty() || intra_->empty()) return;
    // Lazy step per token, subject to the per-edge budget; blocked tokens
    // simply retry next round.
    std::fill(port_load_.begin(), port_load_.end(), 0);
    std::uniform_int_distribution<std::size_t> pick(0, intra_->size() - 1);
    std::bernoulli_distribution lazy(0.5);
    keep_.clear();
    for (const WalkToken& t : held_) {
      if (lazy(rng_)) {
        keep_.push_back(t);
        continue;
      }
      const std::size_t i = pick(rng_);
      if (port_load_[i] >= bandwidth_) {
        keep_.push_back(t);
        continue;
      }
      ++port_load_[i];
      sent_ = true;
      traces_->record_hop(t.id, ctx.neighbor((*intra_)[i]), ctx.round());
      ctx.send((*intra_)[i], t.message(t.id));
    }
    held_.swap(keep_);
  }

  bool finished() const override {
    return started_ && held_.empty() && !sent_;
  }

  std::vector<WalkToken>& absorbed() { return absorbed_; }

 private:
  const std::vector<int>* intra_;
  bool is_leader_;
  std::mt19937_64 rng_;
  int bandwidth_;
  TraceBook* traces_;
  bool started_ = false;
  bool sent_ = false;
  // Tokens to step this round, in arrival order; the ones that stay are
  // collected in keep_, which becomes next round's held_.
  std::vector<WalkToken> held_;
  std::vector<WalkToken> keep_;
  std::vector<int> port_load_;  // per intra index, this round
  std::vector<WalkToken> absorbed_;
};

// --- Reliable random-walk gather (DESIGN.md §12) ---------------------------------

// Set of non-negative keys by open addressing with linear probing. The
// table doubles in place of a node per key, so a vertex allocates
// O(log accepted) times over a run instead of once per accepted hop.
class FlatKeySet {
 public:
  // Adds `key` (>= 0); false if it was already present.
  bool insert(std::int64_t key) {
    assert(key >= 0);
    if (2 * (size_ + 1) > slots_.size()) grow();
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = graph::splitmix64(static_cast<std::uint64_t>(key)) & mask;
    for (;; i = (i + 1) & mask) {
      if (slots_[i] == key) return false;
      if (slots_[i] < 0) {
        slots_[i] = key;
        ++size_;
        return true;
      }
    }
  }

 private:
  void grow() {
    std::vector<std::int64_t> old(std::max<std::size_t>(16, 2 * slots_.size()),
                                  -1);
    old.swap(slots_);
    size_ = 0;
    for (const std::int64_t key : old) {
      if (key >= 0) insert(key);
    }
  }

  std::vector<std::int64_t> slots_;  // -1 marks an empty slot
  std::size_t size_ = 0;
};

// WalkAlgo hardened against message faults. Token hops carry a per-token
// sequence number packed into the routing word (id | seq << 44 — token ids
// stay well under 2^44 and a hop count under 2^19 keeps the word positive);
// receivers ack every copy they see and accept each (id, seq) once, senders
// retransmit un-acked hops on the same port after a timeout. Past the
// `deadline` round a vertex goes silent (still ingesting mail) so the run
// terminates even when a crashed leader makes delivery impossible; the
// host's epoch loop then re-elects and re-seeds.
class ReliableWalkAlgo final : public VertexAlgorithm {
 public:
  static constexpr int kSeqShift = 44;
  static constexpr std::int64_t kIdMask = (std::int64_t{1} << kSeqShift) - 1;

  struct Token : WalkToken {
    std::int64_t next_seq = 0;  // sequence number of the token's next hop
  };

  ReliableWalkAlgo(const std::vector<int>* intra,
                   const std::vector<int>* walk_index, bool is_leader,
                   std::vector<Token> initial, std::uint64_t seed,
                   int bandwidth, int timeout, std::int64_t deadline,
                   std::int64_t base_round, TraceBook* traces)
      : intra_(intra),
        walk_index_(walk_index),
        is_leader_(is_leader),
        rng_(seed),
        bandwidth_(bandwidth),
        timeout_(timeout),
        deadline_(deadline),
        base_round_(base_round),
        traces_(traces),
        ack_queue_(intra->size()),
        held_(std::move(initial)),
        port_load_(intra->size(), 0) {}

  void round(Context& ctx) override {
    started_ = true;
    sent_ = false;
    const int ports = static_cast<int>(intra_->size());
    // Ingest: acks clear pending retransmissions; token messages are acked
    // unconditionally (the sender may be retrying a hop whose first copy
    // made it) and accepted once per (id, seq).
    for (int i = 0; i < ports; ++i) {
      for (const Message& m : ctx.inbox((*intra_)[i])) {
        if (m.tag == kTagWalkAck) {
          for (const std::int64_t packed : m.words) clear_unacked(packed);
          continue;
        }
        const std::int64_t packed = m.words[0];
        ack_queue_[i].push_back(packed);
        if (!accepted_.insert(packed)) continue;  // dup/replay
        Token& t = (is_leader_ ? absorbed_ : held_).emplace_back();
        t.id = packed & kIdMask;
        t.next_seq = (packed >> kSeqShift) + 1;
        t.assign(m.words.begin() + 1, m.words.end());
      }
    }
    if (is_leader_ && !held_.empty()) {
      // A leader's own initial tokens are absorbed on the spot.
      absorbed_.insert(absorbed_.end(), held_.begin(), held_.end());
      held_.clear();
    }
    const std::int64_t r = ctx.round();
    if (r >= deadline_) {
      gave_up_ = true;
      return;  // silent: kept tokens are the host's problem now
    }
    if (ports == 0) return;
    // Per-port budget, spent in priority order: acks, retransmissions,
    // fresh hops. Acks ride the same intra-cluster edges as the walks.
    std::vector<int>& load = port_load_;
    std::fill(load.begin(), load.end(), 0);
    for (int i = 0; i < ports; ++i) {
      auto& queue = ack_queue_[i];
      std::size_t consumed = 0;
      while (consumed < queue.size() && load[i] < bandwidth_) {
        Message m;
        m.tag = kTagWalkAck;
        const std::size_t take = std::min<std::size_t>(
            queue.size() - consumed, static_cast<std::size_t>(kMaxMessageWords));
        for (std::size_t k = 0; k < take; ++k) {
          m.words.push_back(queue[consumed++]);
        }
        ++load[i];
        sent_ = true;
        ++ack_messages_;
        ctx.send((*intra_)[i], std::move(m));
      }
      queue.erase(queue.begin(),
                  queue.begin() + static_cast<std::ptrdiff_t>(consumed));
    }
    if (is_leader_) return;
    for (Pending& u : unacked_) {
      if (r - u.sent_round < timeout_ || load[u.port_index] >= bandwidth_) {
        continue;
      }
      ++load[u.port_index];
      ++retransmissions_;
      sent_ = true;
      u.sent_round = r;
      ctx.send((*intra_)[u.port_index], u.token.message(u.packed));
    }
    // Fresh hops go only to neighbors the host knows were alive at epoch
    // start (the crash-by-heartbeat assumption of DESIGN.md §12): a hop into
    // a crashed vertex is never acked and would pin the token in unacked_
    // for the rest of the epoch.
    if (held_.empty() || walk_index_->empty()) return;
    std::uniform_int_distribution<std::size_t> pick(0, walk_index_->size() - 1);
    std::bernoulli_distribution lazy(0.5);
    keep_.clear();
    for (Token& t : held_) {
      if (lazy(rng_)) {
        keep_.push_back(t);
        continue;
      }
      const std::size_t i = static_cast<std::size_t>((*walk_index_)[pick(rng_)]);
      if (load[i] >= bandwidth_) {
        keep_.push_back(t);
        continue;
      }
      ++load[i];
      sent_ = true;
      const std::int64_t seq = t.next_seq++;
      const std::int64_t packed = t.id | (seq << kSeqShift);
      // The hop is recorded once, at first transmission; retransmissions
      // re-send the identical hop, so the trace stays a faithful record of
      // the path and reverse_delivery remains routable.
      traces_->record_hop(t.id, ctx.neighbor((*intra_)[i]), base_round_ + r);
      ctx.send((*intra_)[i], t.message(packed));
      unacked_.push_back(Pending{packed, t, static_cast<int>(i), r});
    }
    held_.swap(keep_);
  }

  bool finished() const override {
    if (!started_ || sent_) return false;
    if (gave_up_) return true;
    if (!held_.empty() || !unacked_.empty()) return false;
    for (const auto& queue : ack_queue_) {
      if (!queue.empty()) return false;
    }
    return true;
  }

  std::vector<Token>& absorbed() { return absorbed_; }
  std::int64_t retransmissions() const { return retransmissions_; }
  std::int64_t ack_messages() const { return ack_messages_; }

 private:
  struct Pending {
    std::int64_t packed = -1;
    WalkToken token;
    int port_index = -1;
    std::int64_t sent_round = -1;
  };

  void clear_unacked(std::int64_t packed) {
    for (auto it = unacked_.begin(); it != unacked_.end(); ++it) {
      if (it->packed == packed) {
        unacked_.erase(it);
        return;
      }
    }
  }

  const std::vector<int>* intra_;
  const std::vector<int>* walk_index_;  // intra indices with live neighbors
  bool is_leader_;
  std::mt19937_64 rng_;
  int bandwidth_;
  int timeout_;
  std::int64_t deadline_;
  std::int64_t base_round_;
  TraceBook* traces_;
  std::vector<std::vector<std::int64_t>> ack_queue_;  // per intra index
  FlatKeySet accepted_;  // (id, seq) hops taken here
  std::vector<Pending> unacked_;
  bool started_ = false;
  bool sent_ = false;
  bool gave_up_ = false;
  std::int64_t retransmissions_ = 0;
  std::int64_t ack_messages_ = 0;
  std::vector<Token> held_;  // as in WalkAlgo: held_ steps, keep_ stays
  std::vector<Token> keep_;
  std::vector<int> port_load_;  // per intra index, this round
  std::vector<Token> absorbed_;
};

// --- Deterministic tree gather ---------------------------------------------------

class TreeClimbAlgo final : public VertexAlgorithm {
 public:
  TreeClimbAlgo(bool is_leader, int parent_port,
                const std::vector<GatherToken>& initial, int bandwidth)
      : is_leader_(is_leader), parent_port_(parent_port), bandwidth_(bandwidth) {
    for (const GatherToken& t : initial) held_.push_back(make_token(-1, t));
  }

  void round(Context& ctx) override {
    started_ = true;
    sent_ = false;
    for (int p = 0; p < ctx.num_ports(); ++p) {
      for (const Message& m : ctx.inbox(p)) {
        held_.emplace_back().assign(m.words.begin(), m.words.end());
      }
    }
    if (is_leader_) {  // a leader never sends, so head_ stays 0
      for (const WalkToken& t : held_) absorbed_.push_back(t.payload());
      held_.clear();
      return;
    }
    if (parent_port_ < 0) return;  // orphan (singleton handled as leader)
    // Tree messages carry the bare payload: no id rides along.
    for (int budget = bandwidth_; head_ < held_.size() && budget > 0;
         --budget) {
      sent_ = true;
      const WalkToken& t = held_[head_++];
      Message m;
      m.tag = kTagTreeToken;
      m.words.assign(t.begin(), t.end());
      ctx.send(parent_port_, std::move(m));
    }
    // FIFO over a vector: drop the sent prefix once it outweighs the rest.
    if (2 * head_ >= held_.size()) {
      held_.erase(held_.begin(),
                  held_.begin() + static_cast<std::ptrdiff_t>(head_));
      head_ = 0;
    }
  }

  bool finished() const override {
    return started_ && head_ == held_.size() && !sent_;
  }
  std::vector<std::vector<std::int64_t>>& absorbed() { return absorbed_; }

 private:
  bool is_leader_;
  int parent_port_;
  int bandwidth_;
  bool started_ = false;
  bool sent_ = false;
  std::vector<WalkToken> held_;  // queued from index head_ on
  std::size_t head_ = 0;
  std::vector<std::vector<std::int64_t>> absorbed_;
};

// --- Convergecast -----------------------------------------------------------------

class ConvergecastAlgo final : public VertexAlgorithm {
 public:
  ConvergecastAlgo(bool is_root, int parent_port, std::int64_t value,
                   Fold fold)
      : is_root_(is_root), parent_port_(parent_port), total_(value),
        fold_(fold) {}

  void round(Context& ctx) override {
    if (done_) return;
    if (ctx.round() == 0) {
      if (!is_root_ && parent_port_ >= 0) {
        ctx.send(parent_port_, {{kTagChild}, kTagConvergecast});
      }
      return;
    }
    if (ctx.round() == 1) {
      for (int p = 0; p < ctx.num_ports(); ++p) {
        for (const Message& m : ctx.inbox(p)) {
          if (m.words[0] == kTagChild) ++expected_children_;
        }
      }
    } else {
      for (int p = 0; p < ctx.num_ports(); ++p) {
        for (const Message& m : ctx.inbox(p)) {
          if (m.words[0] == kTagSum) {
            switch (fold_) {
              case Fold::kSum: total_ += m.words[1]; break;
              case Fold::kMin: total_ = std::min(total_, m.words[1]); break;
              case Fold::kMax: total_ = std::max(total_, m.words[1]); break;
            }
            ++received_children_;
          }
        }
      }
    }
    if (received_children_ == expected_children_) {
      if (!is_root_ && parent_port_ >= 0) {
        ctx.send(parent_port_, {{kTagSum, total_}, kTagConvergecast});
      }
      done_ = true;
    }
  }

  bool finished() const override { return done_; }
  std::int64_t total() const { return total_; }

 private:
  static constexpr std::int64_t kTagChild = 0;
  static constexpr std::int64_t kTagSum = 1;
  bool is_root_;
  int parent_port_;
  std::int64_t total_;
  Fold fold_;
  int expected_children_ = 0;
  int received_children_ = 0;
  bool done_ = false;
};

// --- Value flood --------------------------------------------------------------------

class FloodAlgo final : public VertexAlgorithm {
 public:
  FloodAlgo(const std::vector<int>* intra, bool is_source, std::int64_t value)
      : intra_(intra), value_(is_source ? value : -1) {}

  void round(Context& ctx) override {
    started_ = true;
    sent_ = false;
    if (ctx.round() == 0) {
      if (value_ != -1) forward(ctx);
      return;
    }
    if (value_ != -1) return;
    for (int p : *intra_) {
      if (!ctx.inbox(p).empty()) {
        value_ = ctx.inbox(p)[0].words[0];
        forward(ctx);
        return;
      }
    }
  }

  bool finished() const override { return started_ && !sent_; }
  std::int64_t value() const { return value_; }

 private:
  void forward(Context& ctx) {
    sent_ = true;
    for (int p : *intra_) ctx.send(p, {{value_}, kTagBroadcast});
  }

  const std::vector<int>* intra_;
  std::int64_t value_;
  bool started_ = false;
  bool sent_ = false;
};

// --- Diameter self-check ---------------------------------------------------------------

class DiameterCheckAlgo final : public VertexAlgorithm {
 public:
  DiameterCheckAlgo(const std::vector<int>* intra, int bound)
      : intra_(intra), bound_(bound) {}

  void round(Context& ctx) override {
    const std::int64_t r = ctx.round();
    if (r == 0) max_id_ = ctx.id();
    if (r < bound_) {
      // Flood phase: absorb neighbors' maxima, forward ours.
      for (int p : *intra_) {
        for (const Message& m : ctx.inbox(p)) {
          max_id_ = std::max(max_id_, m.words[0]);
        }
      }
      for (int p : *intra_) ctx.send(p, {{max_id_}, kTagDiameter});
    } else if (r == bound_) {
      // Final absorb, then exchange the settled value for comparison.
      for (int p : *intra_) {
        for (const Message& m : ctx.inbox(p)) {
          max_id_ = std::max(max_id_, m.words[0]);
        }
      }
      for (int p : *intra_) ctx.send(p, {{max_id_}, kTagDiameter});
    } else if (r == bound_ + 1) {
      for (int p : *intra_) {
        for (const Message& m : ctx.inbox(p)) {
          if (m.words[0] != max_id_) marked_ = true;
        }
      }
      for (int p : *intra_) ctx.send(p, {{marked_ ? 1 : 0}, kTagDiameter});
    } else if (r <= bound_ + 2 + 2 * bound_) {
      for (int p : *intra_) {
        for (const Message& m : ctx.inbox(p)) {
          if (m.words[0] == 1) marked_ = true;
        }
      }
      for (int p : *intra_) ctx.send(p, {{marked_ ? 1 : 0}, kTagDiameter});
      if (r == bound_ + 2 + 2 * bound_) done_ = true;
    } else {
      done_ = true;
    }
  }

  bool finished() const override { return done_; }
  bool marked() const { return marked_; }

 private:
  const std::vector<int>* intra_;
  int bound_;
  std::int64_t max_id_ = -1;
  bool marked_ = false;
  bool done_ = false;
};

}  // namespace

LeaderElectionResult elect_cluster_leaders(const Graph& g,
                                           const std::vector<int>& cluster_of,
                                           const NetworkOptions& net) {
  const auto intra = intra_cluster_ports(g, cluster_of);
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  algos.reserve(g.num_vertices());
  std::vector<LeaderElectionAlgo*> typed(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    auto a = std::make_unique<LeaderElectionAlgo>(
        &intra[v], static_cast<int>(intra[v].size()));
    typed[v] = a.get();
    algos.push_back(std::move(a));
  }
  Network network(g, net);
  LeaderElectionResult result;
  result.stats = network.run(algos);
  result.leader_of.resize(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    result.leader_of[v] = typed[v]->leader();
  }
  return result;
}

BfsTreeResult build_cluster_bfs_trees(const Graph& g,
                                      const std::vector<int>& cluster_of,
                                      const std::vector<VertexId>& leader_of,
                                      const NetworkOptions& net) {
  const auto intra = intra_cluster_ports(g, cluster_of);
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  std::vector<BfsAlgo*> typed(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    auto a = std::make_unique<BfsAlgo>(&intra[v], leader_of[v] == v);
    typed[v] = a.get();
    algos.push_back(std::move(a));
  }
  Network network(g, net);
  BfsTreeResult result;
  result.stats = network.run(algos);
  result.parent.resize(g.num_vertices());
  result.depth.resize(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    result.parent[v] = typed[v]->parent();
    result.depth[v] = typed[v]->depth();
    result.max_depth = std::max(result.max_depth, result.depth[v]);
  }
  return result;
}

OrientationResult orient_cluster_edges(const Graph& g,
                                       const std::vector<int>& cluster_of,
                                       int peel_threshold,
                                       const NetworkOptions& net) {
  const auto intra = intra_cluster_ports(g, cluster_of);
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  std::vector<PeelAlgo*> typed(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    auto a = std::make_unique<PeelAlgo>(&intra[v], peel_threshold);
    typed[v] = a.get();
    algos.push_back(std::move(a));
  }
  Network network(g, net);
  OrientationResult result;
  result.stats = network.run(algos);
  result.owned.resize(g.num_vertices());
  std::int64_t max_phase = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const auto eids = g.incident_edges(v);
    for (int port : typed[v]->owned_ports()) {
      result.owned[v].push_back(eids[port]);
    }
    result.max_out_degree = std::max(
        result.max_out_degree, static_cast<int>(result.owned[v].size()));
    max_phase = std::max(max_phase, typed[v]->peel_round());
  }
  result.peeling_phases = static_cast<int>(max_phase) + 1;
  return result;
}

GatherResult random_walk_gather(const Graph& g,
                                const std::vector<int>& cluster_of,
                                const std::vector<VertexId>& leader_of,
                                const std::vector<std::vector<GatherToken>>& tokens,
                                const GatherOptions& options) {
  check_payloads(tokens);
  const auto intra = intra_cluster_ports(g, cluster_of);
  GatherResult result;
  result.bandwidth = options.net.bandwidth_tokens;
  std::int64_t expected = 0;
  for (const auto& list : tokens) expected += static_cast<std::int64_t>(list.size());
  TraceBook book;
  book.traces.reserve(expected);
  book.paths.reserve(expected);

  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  std::vector<WalkAlgo*> typed(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    std::vector<WalkToken> initial;
    initial.reserve(tokens[v].size());
    for (const GatherToken& t : tokens[v]) {
      initial.push_back(
          make_token(static_cast<std::int64_t>(book.traces.size()), t));
      book.add(v, cluster_of[v]);
    }
    auto a = std::make_unique<WalkAlgo>(
        &intra[v], leader_of[v] == v, std::move(initial),
        options.seed ^ (0x9e3779b97f4a7c15ULL * (v + 1)),
        options.net.bandwidth_tokens, &book);
    typed[v] = a.get();
    algos.push_back(std::move(a));
  }
  Network network(g, options.net);
  result.stats = network.run(algos);
  result.traces = std::move(book.traces);
  int num_clusters = 0;
  for (int c : cluster_of) num_clusters = std::max(num_clusters, c + 1);
  result.delivered.resize(num_clusters);
  result.delivered_ids.resize(num_clusters);
  std::int64_t received = 0;
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    if (leader_of[v] != v) continue;
    auto& absorbed = typed[v]->absorbed();
    received += static_cast<std::int64_t>(absorbed.size());
    auto& payloads = result.delivered[cluster_of[v]];
    auto& ids = result.delivered_ids[cluster_of[v]];
    payloads.reserve(payloads.size() + absorbed.size());
    ids.reserve(ids.size() + absorbed.size());
    for (const WalkToken& t : absorbed) {
      ids.push_back(t.id);
      payloads.push_back(t.payload());
    }
    std::vector<WalkToken>().swap(absorbed);  // free it now, not at return
  }
  result.complete = (received == expected);
  return result;
}

ReliableGatherResult reliable_walk_gather(
    const Graph& g, const std::vector<int>& cluster_of,
    const std::vector<VertexId>& leader_of,
    const std::vector<std::vector<GatherToken>>& tokens,
    const ReliableGatherOptions& options) {
  check_payloads(tokens);
  const auto intra = intra_cluster_ports(g, cluster_of);
  const int n = g.num_vertices();
  const FaultPlan& base_plan = options.net.faults;
  const int delay_span =
      base_plan.delay_probability > 0.0 ? base_plan.max_delay_rounds : 0;
  const int timeout =
      options.ack_timeout > 0 ? options.ack_timeout : 4 + 2 * delay_span;

  ReliableGatherResult result;
  GatherResult& gather = result.gather;
  gather.bandwidth = options.net.bandwidth_tokens;
  TraceBook book;

  // Host-side token table: the authoritative record of where every token
  // is. Tokens in flight or stranded when an epoch ends are re-seeded at
  // their origins; only an absorption at a live leader is durable.
  struct TokenState {
    VertexId origin = kInvalidVertex;
    std::vector<std::int64_t> payload;
    VertexId absorbed_by = kInvalidVertex;
  };
  std::vector<TokenState> toks;
  for (VertexId v = 0; v < n; ++v) {
    for (const GatherToken& t : tokens[v]) {
      TokenState ts;
      ts.origin = v;
      ts.payload = t.payload;
      toks.push_back(std::move(ts));
      book.add(v, cluster_of[v]);
    }
  }

  std::vector<std::int64_t> crash_round(
      n, std::numeric_limits<std::int64_t>::max());
  for (const CrashEvent& c : base_plan.crashes) {
    crash_round[c.vertex] = std::min(crash_round[c.vertex], c.round);
  }
  // Epoch-relative view of the plan's crash schedule at cumulative round
  // `base`: already-fired crashes become round-0 crashes.
  const auto relative_crashes = [&](std::int64_t base) {
    std::vector<CrashEvent> out;
    for (const CrashEvent& c : base_plan.crashes) {
      out.push_back(CrashEvent{c.vertex, std::max<std::int64_t>(
                                             0, c.round - base)});
    }
    return out;
  };

  result.final_leader_of = leader_of;
  std::int64_t base_round = 0;
  bool all_absorbed = toks.empty();
  for (int epoch = 0; epoch < options.max_epochs; ++epoch) {
    // An absorption only survives while its leader does: a leader that has
    // crash-stopped by now takes its gathered payloads down with it.
    all_absorbed = true;
    for (std::size_t id = 0; id < toks.size(); ++id) {
      TokenState& ts = toks[id];
      if (ts.absorbed_by != kInvalidVertex &&
          crash_round[ts.absorbed_by] <= base_round) {
        ts.absorbed_by = kInvalidVertex;
      }
      if (ts.absorbed_by == kInvalidVertex) {
        if (crash_round[ts.origin] <= base_round) continue;  // orphaned
        all_absorbed = false;
        if (epoch > 0) {
          // Re-seed at the origin: whatever partial path the token walked
          // last epoch is void, and its trace restarts with it. A token
          // whose origin itself crash-stopped is orphaned instead — no live
          // vertex is responsible for re-introducing it, so it drops out of
          // the completeness contract rather than wedging it.
          book.restart(static_cast<std::int64_t>(id));
        }
      }
    }
    if (all_absorbed) break;

    // Re-elect when any current leader is dead (always re-check after the
    // first epoch: give-ups mean some cluster made no progress). Election
    // traffic is modeled crash-accurately but message-reliable — the §12
    // determinism contract treats the control plane as reliable, which is
    // also what keeps the election's own convergence guarantee intact.
    bool leader_dead = false;
    for (VertexId v = 0; v < n; ++v) {
      if (result.final_leader_of[v] == v && crash_round[v] <= base_round) {
        leader_dead = true;
        break;
      }
    }
    if (leader_dead) {
      NetworkOptions eopt = options.net;
      eopt.faults = FaultPlan{};
      eopt.faults.crashes = relative_crashes(base_round);
      const LeaderElectionResult elect =
          elect_cluster_leaders(g, cluster_of, eopt);
      result.final_leader_of = elect.leader_of;
      gather.stats += elect.stats;
      base_round += elect.stats.rounds;
      ++result.reelections;
    }

    NetworkOptions nopt = options.net;
    FaultPlan& plan = nopt.faults;
    plan.seed = epoch == 0 ? base_plan.seed
                           : graph::splitmix64(base_plan.seed + epoch);
    plan.crashes = relative_crashes(base_round);
    if (base_plan.first_faulty_round > 0 ||
        base_plan.last_faulty_round !=
            std::numeric_limits<std::int64_t>::max()) {
      plan.first_faulty_round =
          std::max<std::int64_t>(0, base_plan.first_faulty_round - base_round);
      plan.last_faulty_round =
          base_plan.last_faulty_round ==
                  std::numeric_limits<std::int64_t>::max()
              ? base_plan.last_faulty_round
              : base_plan.last_faulty_round - base_round;
      if (plan.last_faulty_round < 0) {
        plan.first_faulty_round = 1;  // window already closed: no faults
        plan.last_faulty_round = 0;
      }
    }
    // The give-up deadline bounds the run: after it nobody sends, so the
    // network drains within the residual delay span.
    nopt.max_rounds = options.epoch_rounds + delay_span + 8;

    // Fresh hops avoid neighbors known dead at epoch start (crashes the
    // plan has already fired — the heartbeat failure-detector assumption):
    // a hop into a crashed vertex is never acked, so without this a token
    // re-enters the dead port every epoch and never converges.
    std::vector<std::vector<int>> walk_index(n);
    for (VertexId v = 0; v < n; ++v) {
      const auto nbrs = g.neighbors(v);
      walk_index[v].reserve(intra[v].size());
      for (std::size_t i = 0; i < intra[v].size(); ++i) {
        if (crash_round[nbrs[intra[v][i]]] > base_round) {
          walk_index[v].push_back(static_cast<int>(i));
        }
      }
    }
    std::vector<std::unique_ptr<VertexAlgorithm>> algos;
    std::vector<ReliableWalkAlgo*> typed(n);
    std::vector<std::vector<ReliableWalkAlgo::Token>> initial(n);
    for (std::size_t id = 0; id < toks.size(); ++id) {
      if (toks[id].absorbed_by != kInvalidVertex) continue;
      if (crash_round[toks[id].origin] <= base_round) continue;  // orphaned
      ReliableWalkAlgo::Token t;
      t.id = static_cast<std::int64_t>(id);
      t.assign(toks[id].payload.data(),
               toks[id].payload.data() + toks[id].payload.size());
      initial[toks[id].origin].push_back(t);
    }
    for (VertexId v = 0; v < n; ++v) {
      auto a = std::make_unique<ReliableWalkAlgo>(
          &intra[v], &walk_index[v], result.final_leader_of[v] == v,
          std::move(initial[v]),
          graph::splitmix64(graph::splitmix64(options.seed + epoch) ^
                            (0x9e3779b97f4a7c15ULL * (v + 1))),
          options.net.bandwidth_tokens, timeout, options.epoch_rounds,
          base_round, &book);
      typed[v] = a.get();
      algos.push_back(std::move(a));
    }
    Network network(g, nopt);
    const RunStats stats = network.run(algos);
    gather.stats += stats;
    base_round += stats.rounds;
    ++result.epochs;
    for (VertexId v = 0; v < n; ++v) {
      result.retransmissions += typed[v]->retransmissions();
      result.ack_messages += typed[v]->ack_messages();
      // Walkers never rewrite a payload: the host copy stays the one to
      // deliver.
      for (const ReliableWalkAlgo::Token& t : typed[v]->absorbed()) {
        toks[t.id].absorbed_by = v;
      }
    }
    if (epoch + 1 == options.max_epochs) {
      // Last epoch ran without a trailing boundary check: apply it here so
      // `complete` means what it says.
      all_absorbed = true;
      for (TokenState& ts : toks) {
        const bool delivered = ts.absorbed_by != kInvalidVertex &&
                               crash_round[ts.absorbed_by] > base_round;
        if (delivered || crash_round[ts.origin] <= base_round) continue;
        all_absorbed = false;
        break;
      }
    }
  }
  // An absorption at a leader that has crashed by the end of the run is
  // lost with the leader; never report it as delivered.
  for (TokenState& ts : toks) {
    if (ts.absorbed_by != kInvalidVertex &&
        crash_round[ts.absorbed_by] <= base_round) {
      ts.absorbed_by = kInvalidVertex;
    }
  }

  gather.traces = std::move(book.traces);
  int num_clusters = 0;
  for (int c : cluster_of) num_clusters = std::max(num_clusters, c + 1);
  gather.delivered.resize(num_clusters);
  gather.delivered_ids.resize(num_clusters);
  for (std::size_t id = 0; id < toks.size(); ++id) {
    TokenState& ts = toks[id];
    if (ts.absorbed_by == kInvalidVertex) continue;
    const int c = cluster_of[ts.origin];
    gather.delivered_ids[c].push_back(static_cast<std::int64_t>(id));
    gather.delivered[c].push_back(std::move(ts.payload));
  }
  gather.complete = all_absorbed;
  return result;
}

ReverseDeliveryResult reverse_delivery(
    int num_vertices, const GatherResult& gather,
    const std::vector<std::vector<std::int64_t>>& reply, int bandwidth) {
  ReverseDeliveryResult result;
  result.received.resize(num_vertices);
  const std::int64_t horizon = gather.stats.rounds;
  // The hop taken at forward round r is traversed backwards at round
  // horizon - 1 - r: strictly increasing forward times become strictly
  // increasing reverse times along the reversed path, and the per-edge
  // per-round load is the mirror image of the forward run (DESIGN.md §19).
  //
  // The load check counting-sorts the reverse hops by round, one directed
  // edge per 64-bit key (from in the high 32 bits, to in the low), then
  // counts equal keys per round. Rounds outside [0, horizon) come only
  // from a malformed trace; they are checked the same way in a side list.
  const auto edge_key = [](VertexId from, VertexId to) {
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(from))
            << 32) |
           static_cast<std::uint32_t>(to);
  };
  const auto replied = [&](std::size_t id) {
    return id < reply.size() && !reply[id].empty();
  };
  const auto in_horizon = [&](std::int64_t r) { return r >= 0 && r < horizon; };
  // Pass 1: statistics, and offset[r + 1] = hops in reverse round r.
  std::vector<std::int64_t> offset(static_cast<std::size_t>(horizon) + 1, 0);
  std::vector<std::pair<std::int64_t, std::uint64_t>> stray;
  for (std::size_t id = 0; id < gather.traces.size(); ++id) {
    if (!replied(id)) continue;  // no reply due
    const TokenTrace& trace = gather.traces[id];
    for (const std::int64_t forward_round : trace.hop_round) {
      const std::int64_t reverse_round = horizon - 1 - forward_round;
      if (in_horizon(reverse_round)) {
        ++offset[reverse_round + 1];
      } else {
        stray.emplace_back(reverse_round, 0);
      }
      ++result.stats.messages_sent;
      result.stats.words_sent +=
          static_cast<std::int64_t>(reply[id].size()) + 1;
      result.stats.rounds = std::max(result.stats.rounds, reverse_round + 1);
    }
    result.received[trace.origin].push_back(reply[id]);
  }
  // Now offset[r] is where round r's bucket starts. Pass 2 advances it
  // past each hop it places, leaving offset[r] where the bucket ends.
  for (std::int64_t r = 0; r < horizon; ++r) offset[r + 1] += offset[r];
  std::vector<std::uint64_t> hops(offset[horizon]);
  std::size_t next_stray = 0;
  for (std::size_t id = 0; id < gather.traces.size(); ++id) {
    if (!replied(id)) continue;
    const TokenTrace& trace = gather.traces[id];
    for (std::size_t h = 0; h < trace.hop_round.size(); ++h) {
      const std::int64_t reverse_round = horizon - 1 - trace.hop_round[h];
      // Reverse hop: visited[h+1] -> visited[h].
      const std::uint64_t key =
          edge_key(trace.visited[h + 1], trace.visited[h]);
      if (in_horizon(reverse_round)) {
        hops[offset[reverse_round]++] = key;
      } else {
        stray[next_stray++].second = key;
      }
    }
  }
  // Every run of equal keys is one edge's load in one round.
  const auto check_runs = [&](auto first, auto last) {
    std::sort(first, last);
    int l = 0;
    for (auto it = first; it != last; ++it) {
      l = it != first && *it == *(it - 1) ? l + 1 : 1;
      if (l > bandwidth) result.load_ok = false;
      result.stats.max_edge_load = std::max(result.stats.max_edge_load, l);
    }
  };
  result.load_ok = true;
  for (std::int64_t r = 0; r < horizon; ++r) {
    check_runs(hops.begin() + (r == 0 ? 0 : offset[r - 1]),
               hops.begin() + offset[r]);
  }
  check_runs(stray.begin(), stray.end());
  if (!stray.empty() && stray.front().first < 0) result.load_ok = false;
  return result;
}

BroadcastResult broadcast_from_leaders(const Graph& g,
                                       const std::vector<int>& cluster_of,
                                       const std::vector<VertexId>& leader_of,
                                       const std::vector<std::int64_t>& leader_value,
                                       const NetworkOptions& net) {
  const auto intra = intra_cluster_ports(g, cluster_of);
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  std::vector<FloodAlgo*> typed(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    auto a = std::make_unique<FloodAlgo>(&intra[v], leader_of[v] == v,
                                         leader_value[v]);
    typed[v] = a.get();
    algos.push_back(std::move(a));
  }
  Network network(g, net);
  BroadcastResult result;
  result.stats = network.run(algos);
  result.value.resize(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    result.value[v] = typed[v]->value();
  }
  return result;
}

TreeGatherResult tree_gather(const Graph& g,
                             const std::vector<int>& cluster_of,
                             const std::vector<VertexId>& leader_of,
                             const std::vector<VertexId>& bfs_parent,
                             const std::vector<std::vector<GatherToken>>& tokens,
                             const NetworkOptions& net) {
  check_payloads(tokens);
  const int n = g.num_vertices();
  std::int64_t expected = 0;
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  std::vector<TreeClimbAlgo*> typed(n);
  for (VertexId v = 0; v < n; ++v) {
    int parent_port = -1;
    if (bfs_parent[v] != kInvalidVertex) {
      const auto nbrs = g.neighbors(v);
      for (int p = 0; p < static_cast<int>(nbrs.size()); ++p) {
        if (nbrs[p] == bfs_parent[v]) parent_port = p;
      }
    }
    expected += static_cast<std::int64_t>(tokens[v].size());
    auto a = std::make_unique<TreeClimbAlgo>(leader_of[v] == v, parent_port,
                                             tokens[v], net.bandwidth_tokens);
    typed[v] = a.get();
    algos.push_back(std::move(a));
  }
  Network network(g, net);
  TreeGatherResult result;
  result.stats = network.run(algos);
  int num_clusters = 0;
  for (int c : cluster_of) num_clusters = std::max(num_clusters, c + 1);
  result.delivered.resize(num_clusters);
  std::int64_t received = 0;
  for (VertexId v = 0; v < n; ++v) {
    if (leader_of[v] != v) continue;
    auto& absorbed = typed[v]->absorbed();
    received += static_cast<std::int64_t>(absorbed.size());
    result.delivered[cluster_of[v]] = std::move(absorbed);
  }
  result.complete = (received == expected);
  return result;
}

ConvergecastResult convergecast_fold(const Graph& g,
                                     const std::vector<int>& cluster_of,
                                     const std::vector<VertexId>& leader_of,
                                     const std::vector<VertexId>& bfs_parent,
                                     const std::vector<int>& depth,
                                     const std::vector<std::int64_t>& value,
                                     Fold fold, const NetworkOptions& net) {
  (void)depth;  // the child-announcement protocol needs no depth knowledge
  const int n = g.num_vertices();
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  std::vector<ConvergecastAlgo*> typed(n);
  for (VertexId v = 0; v < n; ++v) {
    int parent_port = -1;
    if (bfs_parent[v] != kInvalidVertex) {
      const auto nbrs = g.neighbors(v);
      for (int p = 0; p < static_cast<int>(nbrs.size()); ++p) {
        if (nbrs[p] == bfs_parent[v]) parent_port = p;
      }
    }
    auto a = std::make_unique<ConvergecastAlgo>(leader_of[v] == v, parent_port,
                                                value[v], fold);
    typed[v] = a.get();
    algos.push_back(std::move(a));
  }
  Network network(g, net);
  ConvergecastResult result;
  result.stats = network.run(algos);
  int num_clusters = 0;
  for (int c : cluster_of) num_clusters = std::max(num_clusters, c + 1);
  result.sum.assign(num_clusters, 0);
  for (VertexId v = 0; v < n; ++v) {
    if (leader_of[v] == v) result.sum[cluster_of[v]] = typed[v]->total();
  }
  return result;
}

DiameterCheckResult check_cluster_diameter(const Graph& g,
                                           const std::vector<int>& cluster_of,
                                           int bound,
                                           const NetworkOptions& net) {
  const auto intra = intra_cluster_ports(g, cluster_of);
  std::vector<std::unique_ptr<VertexAlgorithm>> algos;
  std::vector<DiameterCheckAlgo*> typed(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    auto a = std::make_unique<DiameterCheckAlgo>(&intra[v], bound);
    typed[v] = a.get();
    algos.push_back(std::move(a));
  }
  Network network(g, net);
  DiameterCheckResult result;
  result.stats = network.run(algos);
  result.within_bound.resize(g.num_vertices());
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    result.within_bound[v] = !typed[v]->marked();
  }
  return result;
}

}  // namespace ecd::congest
