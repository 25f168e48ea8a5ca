#pragma once

// In-memory span recorder for the benchmark's own code. Spans are recorded
// around the calls the benchmark makes into each library layer; nothing
// inside the library is instrumented. Off (the default) a span costs four
// clock reads and no allocation.

#include <time.h>

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

[[nodiscard]] inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// CPU time of the calling thread: the host time it ran, without the time
/// other processes or the hypervisor (steal) took its CPU away. Timings
/// of single-threaded work use it, so load elsewhere on a shared host
/// does not move them.
[[nodiscard]] inline std::uint64_t cpu_ns() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<std::uint64_t>(ts.tv_sec) * 1000000000ULL +
         static_cast<std::uint64_t>(ts.tv_nsec);
}

struct Span {
  std::string name;
  int id = 0;
  int parent = -1;  ///< -1: root
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
};

class Tracer {
 public:
  explicit Tracer(bool on = false) : on_(on) {}

  [[nodiscard]] bool on() const noexcept { return on_; }
  [[nodiscard]] const std::vector<Span>& spans() const noexcept {
    return spans_;
  }

  int open(const char* name, std::uint64_t start) {
    if (!on_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back(
        Span{name, id, stack_.empty() ? -1 : stack_.back(), start, start});
    stack_.push_back(id);
    return id;
  }
  void close(int id, std::uint64_t end) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_ns = end;
    stack_.pop_back();
  }

 private:
  bool on_;
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// Times one phase and, when tracing, records it as a span (on the wall
/// clock). `seconds()` is the calling thread's CPU time over the phase,
/// `wall_seconds()` the wall time; both are valid after `stop()`. The
/// destructor stops a running phase.
class Phase {
 public:
  Phase(Tracer& tr, const char* name)
      : tr_(tr),
        start_(now_ns()),
        id_(tr.open(name, start_)),
        cpu_start_(cpu_ns()) {}
  ~Phase() { stop(); }
  Phase(const Phase&) = delete;
  Phase& operator=(const Phase&) = delete;

  double stop() {
    if (!stopped_) {
      cpu_end_ = cpu_ns();
      end_ = now_ns();
      tr_.close(id_, end_);
      stopped_ = true;
    }
    return seconds();
  }
  [[nodiscard]] double seconds() const {
    return static_cast<double>(cpu_end_ - cpu_start_) * 1e-9;
  }
  [[nodiscard]] double wall_seconds() const {
    return static_cast<double>(end_ - start_) * 1e-9;
  }

 private:
  Tracer& tr_;
  std::uint64_t start_;
  std::uint64_t end_ = 0;
  int id_;
  std::uint64_t cpu_start_;
  std::uint64_t cpu_end_ = 0;
  bool stopped_ = false;
};

}  // namespace perfbench
