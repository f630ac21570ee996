#pragma once

/// \file trace.h
/// \brief In-memory spans for the traced run: name, start, end, parent and
/// a request id shared by the spans of one request. Spans are appended to
/// per-thread buffers (no lock on the hot path) and written out as JSON
/// lines when the run ends. With tracing off nothing is recorded.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root
  uint64_t request = 0;  ///< 0 = not part of a client request
};

class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  uint64_t NewId() { return next_id_.fetch_add(1) + 1; }

  /// A buffer owned by one thread; stable for the log's lifetime.
  std::vector<Span>* Buffer() {
    std::lock_guard<std::mutex> lock(mu_);
    buffers_.emplace_back();
    buffers_.back().reserve(1 << 14);
    return &buffers_.back();
  }

  /// All spans, in no particular order (call once the writers are done).
  std::vector<Span> All() {
    std::lock_guard<std::mutex> lock(mu_);
    std::vector<Span> out;
    for (const auto& b : buffers_) out.insert(out.end(), b.begin(), b.end());
    return out;
  }

 private:
  bool enabled_;
  std::atomic<uint64_t> next_id_{0};
  std::mutex mu_;
  std::deque<std::vector<Span>> buffers_;
};

/// Times one call into a layer and records it as a span.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::vector<Span>* buf, std::string name,
             uint64_t parent = 0, uint64_t request = 0)
      : log_(log), buf_(buf) {
    if (!log_->enabled()) return;
    span_.name = std::move(name);
    span_.id = log_->NewId();
    span_.parent = parent;
    span_.request = request;
    span_.start_ns = NowNs();
  }
  ~ScopedSpan() {
    if (!log_->enabled()) return;
    span_.end_ns = NowNs();
    buf_->push_back(std::move(span_));
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;
  uint64_t id() const { return span_.id; }

 private:
  SpanLog* log_;
  std::vector<Span>* buf_;
  Span span_;
};

}  // namespace perfbench
