#include "src/seq/mis.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <stdexcept>

namespace ecd::seq {

using graph::Graph;
using graph::VertexId;

namespace {

// Branch-and-bound state over a shrinking "alive" vertex set. A search node
// costs time in proportion to the vertices it removes and restores, not to
// n (DESIGN.md §20): removals go on one shared undo trail, the degree-0/1
// reductions drain a worklist in the order of repeated id-ordered passes,
// and the pivot comes from per-degree bitsets.
class MisSearch {
 public:
  MisSearch(const Graph& g, std::int64_t node_budget)
      : g_(g), budget_(node_budget), alive_(g.num_vertices(), 1),
        degree_(g.num_vertices()),
        words_(std::max(1, (g.num_vertices() + 63) / 64)),
        cap_(std::clamp(kMaxBucketWords / words_ - 1, 0, g.max_degree())),
        bits_(static_cast<std::size_t>(cap_ + 1) * words_, 0),
        count_(cap_ + 1, 0) {
    alive_count_ = g.num_vertices();
    trail_.reserve(g.num_vertices());
    current_.reserve(g.num_vertices());
    for (VertexId v = 0; v < g.num_vertices(); ++v) {
      degree_[v] = g.degree(v);
      link(v);
      if (degree_[v] <= 1) pass_.push_back(v);  // ascending, so a min-heap
    }
  }

  std::optional<std::vector<VertexId>> run() {
    best_.clear();
    current_.clear();
    ok_ = true;
    recurse();
    if (!ok_) return std::nullopt;
    return best_;
  }

 private:
  // Bound on the bucket bitsets' size; degrees at or above the resulting
  // cap share the top bucket.
  static constexpr int kMaxBucketWords = 1 << 16;

  int bucket(VertexId v) const { return std::min(degree_[v], cap_); }
  std::uint64_t& bucket_word(VertexId v) {
    return bits_[static_cast<std::size_t>(bucket(v)) * words_ + v / 64];
  }
  void link(VertexId v) {
    bucket_word(v) |= std::uint64_t{1} << (v % 64);
    ++count_[bucket(v)];
    top_ = std::max(top_, bucket(v));
  }
  void unlink(VertexId v) {
    bucket_word(v) &= ~(std::uint64_t{1} << (v % 64));
    --count_[bucket(v)];
  }

  void remove_vertex(VertexId v) {
    unlink(v);
    alive_[v] = 0;
    --alive_count_;
    trail_.push_back(v);
    for (VertexId u : g_.neighbors(v)) {
      if (!alive_[u]) continue;
      unlink(u);
      if (--degree_[u] == 1) enqueue(u);
      link(u);
    }
  }

  void restore_to(std::size_t marker) {
    while (trail_.size() > marker) {
      const VertexId v = trail_.back();
      trail_.pop_back();
      for (VertexId u : g_.neighbors(v)) {
        if (!alive_[u]) continue;
        unlink(u);
        ++degree_[u];
        link(u);
      }
      alive_[v] = 1;
      ++alive_count_;
      link(v);
    }
  }

  void take_vertex(VertexId v) {
    current_.push_back(v);
    remove_vertex(v);
    for (VertexId u : g_.neighbors(v)) {
      if (alive_[u]) remove_vertex(u);
    }
  }

  // A vertex whose residual degree fell to 1 becomes a reduction candidate:
  // in the current pass if it lies past the cursor, else in the next.
  void enqueue(VertexId v) {
    if (v > cursor_) {
      pass_.push_back(v);
      std::push_heap(pass_.begin(), pass_.end(), std::greater<>());
    } else {
      next_pass_.push_back(v);
    }
  }

  // Degree-0 and degree-1 vertices can always be taken. Takes them in the
  // order of repeated passes over the ids until a pass finds none. During
  // the reductions degrees only fall, so a candidate stays one until it is
  // taken or removed, and the worklist holds every candidate.
  void reduce() {
    for (;;) {
      if (pass_.empty()) {
        if (next_pass_.empty()) break;
        pass_.swap(next_pass_);
        std::make_heap(pass_.begin(), pass_.end(), std::greater<>());
        cursor_ = -1;
      }
      std::pop_heap(pass_.begin(), pass_.end(), std::greater<>());
      const VertexId v = pass_.back();
      pass_.pop_back();
      if (!alive_[v]) continue;
      cursor_ = v;
      take_vertex(v);
    }
    cursor_ = -1;
  }

  // The alive vertex of maximum residual degree, lowest id on ties.
  VertexId pivot() {
    while (count_[top_] == 0) --top_;
    const bool pooled = top_ == cap_ && cap_ < g_.max_degree();
    const std::uint64_t* row = &bits_[static_cast<std::size_t>(top_) * words_];
    VertexId best = graph::kInvalidVertex;
    for (int w = 0; w < words_; ++w) {
      for (std::uint64_t bits = row[w]; bits != 0; bits &= bits - 1) {
        const VertexId v = w * 64 + std::countr_zero(bits);
        if (!pooled) return v;
        if (best == graph::kInvalidVertex || degree_[v] > degree_[best]) {
          best = v;
        }
      }
    }
    return best;
  }

  void recurse() {
    if (!ok_) return;
    if (--budget_ < 0) {
      ok_ = false;
      return;
    }
    // Trivial upper bound: everything still alive joins the set.
    if (current_.size() + alive_count_ <= best_.size()) {
      pass_.clear();
      return;
    }

    const std::size_t trail_marker = trail_.size();
    const std::size_t taken_marker = current_.size();
    reduce();
    if (alive_count_ == 0) {
      if (current_.size() > best_.size()) best_ = current_;
    } else if (current_.size() + alive_count_ > best_.size()) {
      // Branch on a maximum-residual-degree vertex.
      const VertexId branch = pivot();
      const std::size_t branch_marker = trail_.size();
      take_vertex(branch);
      recurse();
      restore_to(branch_marker);
      current_.pop_back();
      remove_vertex(branch);
      recurse();
      restore_to(branch_marker);
    } else if (current_.size() > best_.size()) {
      best_ = current_;
    }
    restore_to(trail_marker);
    current_.resize(taken_marker);
  }

  const Graph& g_;
  std::int64_t budget_;
  std::vector<std::uint8_t> alive_;
  std::vector<int> degree_;
  int alive_count_ = 0;
  std::vector<VertexId> trail_;      // removed vertices, in removal order
  std::vector<VertexId> pass_;       // min-heap: this pass's candidates
  std::vector<VertexId> next_pass_;  // candidates at or before the cursor
  VertexId cursor_ = -1;             // last vertex taken in this pass
  // bits_ row b holds the alive vertices of residual degree b (row cap_:
  // degree >= cap_); count_[b] is its population, top_ >= the top nonempty row.
  int words_;
  int cap_;
  std::vector<std::uint64_t> bits_;
  std::vector<int> count_;
  int top_ = 0;
  std::vector<VertexId> current_;
  std::vector<VertexId> best_;
  bool ok_ = true;
};

}  // namespace

std::optional<std::vector<VertexId>> max_independent_set_exact(
    const Graph& g, std::int64_t node_budget) {
  return MisSearch(g, node_budget).run();
}

std::vector<VertexId> greedy_mis_min_degree(const Graph& g) {
  const int n = g.num_vertices();
  std::vector<bool> alive(n, true);
  std::vector<int> degree(n);
  for (VertexId v = 0; v < n; ++v) degree[v] = g.degree(v);
  std::vector<VertexId> result;
  int remaining = n;
  while (remaining > 0) {
    VertexId pick = graph::kInvalidVertex;
    for (VertexId v = 0; v < n; ++v) {
      if (alive[v] && (pick == graph::kInvalidVertex ||
                       degree[v] < degree[pick])) {
        pick = v;
      }
    }
    result.push_back(pick);
    auto kill = [&](VertexId v) {
      alive[v] = false;
      --remaining;
      for (VertexId u : g.neighbors(v)) {
        if (alive[u]) --degree[u];
      }
    };
    kill(pick);
    for (VertexId u : g.neighbors(pick)) {
      if (alive[u]) kill(u);
    }
  }
  return result;
}

std::vector<VertexId> mis_local_search(const Graph& g,
                                       std::vector<VertexId> initial,
                                       int max_iterations) {
  const int n = g.num_vertices();
  std::vector<bool> in_set(n, false);
  for (VertexId v : initial) in_set[v] = true;
  // (1,2)-swap: remove one vertex, insert two of its non-adjacent
  // ex-neighbors whose only conflict was the removed vertex.
  std::vector<int> conflicts(n, 0);
  auto recount = [&] {
    for (VertexId v = 0; v < n; ++v) {
      conflicts[v] = 0;
      for (VertexId u : g.neighbors(v)) {
        if (in_set[u]) ++conflicts[v];
      }
    }
  };
  recount();
  for (int iter = 0; iter < max_iterations; ++iter) {
    bool improved = false;
    // First, insert any free vertex.
    for (VertexId v = 0; v < n; ++v) {
      if (!in_set[v] && conflicts[v] == 0) {
        in_set[v] = true;
        for (VertexId u : g.neighbors(v)) ++conflicts[u];
        improved = true;
      }
    }
    for (VertexId v = 0; v < n && !improved; ++v) {
      if (!in_set[v]) continue;
      std::vector<VertexId> candidates;
      for (VertexId u : g.neighbors(v)) {
        if (!in_set[u] && conflicts[u] == 1) candidates.push_back(u);
      }
      for (std::size_t i = 0; i < candidates.size() && !improved; ++i) {
        for (std::size_t j = i + 1; j < candidates.size() && !improved; ++j) {
          if (!g.has_edge(candidates[i], candidates[j])) {
            in_set[v] = false;
            in_set[candidates[i]] = true;
            in_set[candidates[j]] = true;
            recount();
            improved = true;
          }
        }
      }
    }
    if (!improved) break;
  }
  std::vector<VertexId> result;
  for (VertexId v = 0; v < n; ++v) {
    if (in_set[v]) result.push_back(v);
  }
  return result;
}

MisResult best_effort_mis(const Graph& g, std::int64_t node_budget) {
  if (auto exact = max_independent_set_exact(g, node_budget)) {
    return {std::move(*exact), true};
  }
  return {mis_local_search(g, greedy_mis_min_degree(g)), false};
}

std::vector<VertexId> max_independent_set_bruteforce(const Graph& g) {
  const int n = g.num_vertices();
  if (n > 24) throw std::invalid_argument("bruteforce MIS limited to n <= 24");
  std::vector<std::uint32_t> nbr_mask(n, 0);
  for (const graph::Edge& e : g.edges()) {
    nbr_mask[e.u] |= 1u << e.v;
    nbr_mask[e.v] |= 1u << e.u;
  }
  std::uint32_t best = 0;
  int best_count = -1;
  for (std::uint32_t s = 0; s < (1u << n); ++s) {
    bool independent = true;
    for (int v = 0; v < n && independent; ++v) {
      if ((s >> v & 1u) && (s & nbr_mask[v])) independent = false;
    }
    if (independent && std::popcount(s) > best_count) {
      best = s;
      best_count = std::popcount(s);
    }
  }
  std::vector<VertexId> result;
  for (int v = 0; v < n; ++v) {
    if (best >> v & 1u) result.push_back(v);
  }
  return result;
}

bool is_independent_set(const Graph& g,
                        const std::vector<VertexId>& vertices) {
  std::vector<bool> in_set(g.num_vertices(), false);
  for (VertexId v : vertices) {
    if (v < 0 || v >= g.num_vertices() || in_set[v]) return false;
    in_set[v] = true;
  }
  for (const graph::Edge& e : g.edges()) {
    if (in_set[e.u] && in_set[e.v]) return false;
  }
  return true;
}

}  // namespace ecd::seq
