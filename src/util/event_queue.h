// A thread-safe MPSC event queue: the front door of the resident
// AdvisorService (src/service/).
//
// Any number of producer threads Push events; one consumer drains them
// with WaitPop in exact arrival (FIFO) order. Close() ends the stream
// gracefully: producers are refused from that point on, while the
// consumer keeps draining whatever was already accepted — so "shutdown"
// never drops an in-flight event. Deliberately minimal, mirroring
// ThreadPool's philosophy: one mutex, one condition variable, no lock-free
// cleverness to audit.
#ifndef VDBA_UTIL_EVENT_QUEUE_H_
#define VDBA_UTIL_EVENT_QUEUE_H_

#include <condition_variable>
#include <deque>
#include <mutex>
#include <optional>
#include <utility>

namespace vdba {

template <typename T>
class EventQueue {
 public:
  EventQueue() = default;
  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Enqueues one event. \returns false iff the queue was already closed —
  /// in that case `event` is NOT consumed (the caller keeps it, e.g. to
  /// fail its completion promise); events accepted before Close() are
  /// always delivered.
  bool Push(T&& event) {
    {
      std::lock_guard lock(mu_);
      if (closed_) return false;
      items_.push_back(std::move(event));
    }
    ready_.notify_one();
    return true;
  }

  /// Blocks until an event is available or the queue is closed AND
  /// drained. \returns the oldest event in arrival order, or nullopt once
  /// the stream has ended (closed with nothing left to drain).
  std::optional<T> WaitPop() {
    std::unique_lock lock(mu_);
    ready_.wait(lock, [this] { return closed_ || !items_.empty(); });
    if (items_.empty()) return std::nullopt;
    T event = std::move(items_.front());
    items_.pop_front();
    return event;
  }

  /// Refuses future Push calls and wakes the consumer. Already-accepted
  /// events remain poppable — Close() starts the drain, it does not drop.
  void Close() {
    {
      std::lock_guard lock(mu_);
      closed_ = true;
    }
    ready_.notify_all();
  }

 private:
  std::mutex mu_;
  std::condition_variable ready_;
  std::deque<T> items_;
  bool closed_ = false;
};

}  // namespace vdba

#endif  // VDBA_UTIL_EVENT_QUEUE_H_
