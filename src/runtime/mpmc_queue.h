// Bounded multi-producer / multi-consumer ring queue — the backpressure
// primitive of the concurrent streaming runtime.  A fixed-capacity ring
// guarded by one mutex and two condition variables: producers block while
// the ring is full (so a burst on the wire translates into ingest
// backpressure, never unbounded memory growth), consumers block while it is
// empty.  close() wakes everyone; a closed queue rejects new items but
// drains the ones already queued.
//
// A mutex-based ring is deliberately chosen over a lock-free one: the
// runtime moves *batches* of transactions through the queue, so per-item
// synchronization cost is amortized far below the cost of the detector work
// behind it, and the simple implementation is trivially ThreadSanitizer-
// clean (the tier-1 TSan job runs the runtime tests over it).
#pragma once

#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <optional>
#include <utility>
#include <vector>

namespace dm::runtime {

template <typename T>
class MpmcRingQueue {
 public:
  explicit MpmcRingQueue(std::size_t capacity)
      : ring_(capacity == 0 ? 1 : capacity) {}

  MpmcRingQueue(const MpmcRingQueue&) = delete;
  MpmcRingQueue& operator=(const MpmcRingQueue&) = delete;

  /// Blocks while full; returns false (and drops `value`) if the queue was
  /// closed before space became available.
  bool push(T value) {
    std::unique_lock lock(mutex_);
    not_full_.wait(lock, [&] { return closed_ || count_ < ring_.size(); });
    if (closed_) return false;
    enqueue_locked(std::move(value));
    lock.unlock();
    not_empty_.notify_one();
    return true;
  }

  /// Non-blocking push; returns false when full or closed.
  bool try_push(T value) { return offer(value); }

  /// Non-blocking push that leaves `value` intact when the queue is full or
  /// closed — the overload-shedding primitive: the caller can pop a victim
  /// and re-offer the same value without losing it.
  bool offer(T& value) {
    {
      std::scoped_lock lock(mutex_);
      if (closed_ || count_ == ring_.size()) return false;
      enqueue_locked(std::move(value));
    }
    not_empty_.notify_one();
    return true;
  }

  /// Blocks while empty; returns nullopt once the queue is closed AND
  /// drained (the consumer's termination signal).
  std::optional<T> pop() {
    std::unique_lock lock(mutex_);
    not_empty_.wait(lock, [&] { return closed_ || count_ > 0; });
    if (count_ == 0) return std::nullopt;  // closed and drained
    T value = dequeue_locked();
    lock.unlock();
    not_full_.notify_one();
    return value;
  }

  /// Non-blocking pop; nullopt when currently empty.
  std::optional<T> try_pop() {
    std::optional<T> value;
    {
      std::scoped_lock lock(mutex_);
      if (count_ == 0) return std::nullopt;
      value = dequeue_locked();
    }
    not_full_.notify_one();
    return value;
  }

  /// Rejects further pushes and wakes all waiters; queued items remain
  /// poppable.  Idempotent.
  void close() {
    {
      std::scoped_lock lock(mutex_);
      closed_ = true;
    }
    not_full_.notify_all();
    not_empty_.notify_all();
  }

  bool closed() const {
    std::scoped_lock lock(mutex_);
    return closed_;
  }

  std::size_t size() const {
    std::scoped_lock lock(mutex_);
    return count_;
  }

  std::size_t capacity() const { return ring_.size(); }

  /// Deepest the queue has ever been — the observability hook for tuning
  /// capacity vs. burst size (StatsSnapshot reports the max over shards).
  std::size_t highwater() const {
    std::scoped_lock lock(mutex_);
    return highwater_;
  }

 private:
  void enqueue_locked(T value) {
    ring_[(head_ + count_) % ring_.size()] = std::move(value);
    ++count_;
    if (count_ > highwater_) highwater_ = count_;
  }

  T dequeue_locked() {
    T value = std::move(ring_[head_]);
    head_ = (head_ + 1) % ring_.size();
    --count_;
    return value;
  }

  mutable std::mutex mutex_;
  std::condition_variable not_full_;
  std::condition_variable not_empty_;
  std::vector<T> ring_;  // fixed ring storage; T must be default-constructible
  std::size_t head_ = 0;
  std::size_t count_ = 0;
  std::size_t highwater_ = 0;
  bool closed_ = false;
};

}  // namespace dm::runtime
