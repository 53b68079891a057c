// A sharded serial-lane queue: the dispatch fabric of the AdvisorService
// event loop (src/service/), at every worker count.
//
// One producer (the service's dispatcher) routes items into N lanes; a
// pool of consumer threads drains them under a per-lane LEASE discipline:
// PopLane() hands a consumer the oldest pending head across all idle
// lanes and leases that lane to it until Release(), so each lane is a
// strict serial FIFO (two consumers can never process the same lane
// concurrently) while distinct lanes drain in parallel. With a single
// consumer, "oldest head first" degenerates to exact global FIFO — the
// property that makes the service's workers = 1 loop handle events in
// exact submission order.
//
// PopMoreIf() lets the lease holder conditionally take further items off
// the front of ITS lane (event coalescing); WaitIdle() is the epoch
// barrier — it blocks the producer until every lane is empty and
// unleased, the quiescent point at which cross-lane operations are safe.
// Close() mirrors EventQueue: producers are refused from then on, but
// consumers keep draining everything already accepted.
//
// Deliberately minimal, like EventQueue and ThreadPool: one mutex, one
// condition variable, no lock-free cleverness to audit.
#ifndef VDBA_UTIL_SHARDED_QUEUE_H_
#define VDBA_UTIL_SHARDED_QUEUE_H_

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

#include "util/check.h"

namespace vdba {

template <typename T>
class ShardedQueue {
 public:
  explicit ShardedQueue(int num_lanes)
      : lanes_(static_cast<size_t>(num_lanes)) {
    VDBA_CHECK_GT(num_lanes, 0);
  }
  ShardedQueue(const ShardedQueue&) = delete;
  ShardedQueue& operator=(const ShardedQueue&) = delete;

  /// Enqueues one item on `lane`. \returns false iff the queue was
  /// already closed — `item` is NOT consumed in that case; items accepted
  /// before Close() are always delivered.
  bool Push(int lane, T&& item) {
    {
      std::lock_guard lock(mu_);
      if (closed_) return false;
      LaneAt(lane).items.emplace_back(next_seq_++, std::move(item));
    }
    cv_.notify_all();
    return true;
  }

  struct Popped {
    int lane = -1;
    T item;
  };

  /// Blocks until some unleased lane has a pending item, leases the lane
  /// whose head arrived EARLIEST, and pops that head. \returns nullopt
  /// once the stream has ended (closed with every lane drained). The
  /// caller owns the lane until Release(lane).
  std::optional<Popped> PopLane() {
    std::unique_lock lock(mu_);
    for (;;) {
      int lane = OldestReadyLane();
      if (lane >= 0) {
        Lane& l = lanes_[static_cast<size_t>(lane)];
        l.leased = true;
        Popped popped;
        popped.lane = lane;
        popped.item = std::move(l.items.front().second);
        l.items.pop_front();
        lock.unlock();
        // A pop may complete a drain another consumer or WaitIdle() is
        // blocked on.
        cv_.notify_all();
        return popped;
      }
      if (closed_ && AllEmpty()) return std::nullopt;
      cv_.wait(lock);
    }
  }

  /// While holding `lane`'s lease: pops that lane's next item iff
  /// `pred(item)` holds (non-blocking). This is the coalescing hook — the
  /// lease holder collapses a run of equivalent items into one unit of
  /// work without ever reordering the lane.
  template <typename Pred>
  std::optional<T> PopMoreIf(int lane, Pred pred) {
    std::unique_lock lock(mu_);
    Lane& l = LaneAt(lane);
    VDBA_CHECK(l.leased);
    if (l.items.empty() || !pred(l.items.front().second)) {
      return std::nullopt;
    }
    T item = std::move(l.items.front().second);
    l.items.pop_front();
    lock.unlock();
    cv_.notify_all();
    return item;
  }

  /// Returns `lane` to the schedulable pool.
  void Release(int lane) {
    {
      std::lock_guard lock(mu_);
      Lane& l = LaneAt(lane);
      VDBA_CHECK(l.leased);
      l.leased = false;
    }
    cv_.notify_all();
  }

  /// Blocks until every lane is empty AND unleased — the global-epoch
  /// barrier. Only meaningful from the producer (nothing refills the
  /// lanes while it waits here).
  void WaitIdle() {
    std::unique_lock lock(mu_);
    cv_.wait(lock, [this] { return AllEmpty() && leased_count() == 0; });
  }

  /// Refuses future pushes and wakes every consumer; already-accepted
  /// items remain poppable (Close() starts the drain, it does not drop).
  void Close() {
    {
      std::lock_guard lock(mu_);
      closed_ = true;
    }
    cv_.notify_all();
  }

  /// Items currently queued across all lanes (snapshot; racy by nature).
  size_t size() const {
    std::lock_guard lock(mu_);
    size_t n = 0;
    for (const Lane& l : lanes_) n += l.items.size();
    return n;
  }

 private:
  struct Lane {
    /// (arrival sequence, item) pairs in FIFO order.
    std::deque<std::pair<uint64_t, T>> items;
    bool leased = false;
  };

  Lane& LaneAt(int lane) {
    VDBA_CHECK_GE(lane, 0);
    VDBA_CHECK_LT(static_cast<size_t>(lane), lanes_.size());
    return lanes_[static_cast<size_t>(lane)];
  }

  /// The unleased non-empty lane with the earliest head, or -1. Requires
  /// mu_ held.
  int OldestReadyLane() const {
    int best = -1;
    uint64_t best_seq = 0;
    for (size_t i = 0; i < lanes_.size(); ++i) {
      const Lane& l = lanes_[i];
      if (l.leased || l.items.empty()) continue;
      if (best < 0 || l.items.front().first < best_seq) {
        best = static_cast<int>(i);
        best_seq = l.items.front().first;
      }
    }
    return best;
  }

  bool AllEmpty() const {
    for (const Lane& l : lanes_) {
      if (!l.items.empty()) return false;
    }
    return true;
  }

  int leased_count() const {
    int n = 0;
    for (const Lane& l : lanes_) n += l.leased ? 1 : 0;
    return n;
  }

  mutable std::mutex mu_;
  std::condition_variable cv_;
  std::vector<Lane> lanes_;
  uint64_t next_seq_ = 0;
  bool closed_ = false;
};

}  // namespace vdba

#endif  // VDBA_UTIL_SHARDED_QUEUE_H_
