#pragma once

// Shared plumbing of the benchmark harness: wall clock, JSON helpers,
// process-shared memory for forked ranks, and the rank launcher.
//
// Every time the harness records is a steady-clock reading taken in the
// harness around a public library call; nothing here reaches into the
// library's internals.

#include <sys/mman.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <new>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/json.hpp"

namespace perfbench {

using dlcomp::JsonValue;

/// Seconds on the system-wide monotonic clock. Comparable across the
/// forked rank processes, which is what lets the parent line up their
/// timestamps.
inline double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline JsonValue num(double v) { return JsonValue(v); }

template <typename T>
JsonValue num_array(std::span<const T> values) {
  JsonValue out = JsonValue::array();
  for (const T& v : values) out.push_back(JsonValue(static_cast<double>(v)));
  return out;
}

template <typename T>
JsonValue num_array(const std::vector<T>& values) {
  return num_array(std::span<const T>(values));
}

/// Peak resident set of this process, in MiB (Linux reports KiB).
inline double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

/// A block of `count` default-constructed `T` in anonymous shared memory,
/// mapped before fork() so parent and children see the same bytes. `T`
/// must be trivially copyable: children write it, the parent reads it
/// after waitpid().
template <typename T>
class SharedArray {
 public:
  explicit SharedArray(std::size_t count) : count_(count) {
    void* p = mmap(nullptr, bytes(), PROT_READ | PROT_WRITE,
                   MAP_SHARED | MAP_ANONYMOUS, -1, 0);
    if (p == MAP_FAILED) throw std::runtime_error("mmap failed");
    data_ = static_cast<T*>(p);
    for (std::size_t i = 0; i < count_; ++i) new (data_ + i) T();
  }
  ~SharedArray() { munmap(data_, bytes()); }
  SharedArray(const SharedArray&) = delete;
  SharedArray& operator=(const SharedArray&) = delete;

  T& operator[](std::size_t i) { return data_[i]; }
  const T& operator[](std::size_t i) const { return data_[i]; }
  [[nodiscard]] std::size_t size() const noexcept { return count_; }

 private:
  [[nodiscard]] std::size_t bytes() const noexcept {
    return count_ * sizeof(T);
  }
  std::size_t count_;
  T* data_ = nullptr;
};

/// Outcome of one forked rank group.
struct LaunchResult {
  double fork_s = 0.0;            ///< steady clock just before the first fork
  std::vector<int> exit_codes;    ///< per rank; -1 when killed by a signal
  std::vector<double> peak_rss_mb;  ///< per rank (wait4 rusage)
};

/// Forks `world` rank processes over a TCP rendezvous: the parent binds
/// the listener first (ephemeral port, race-free), rank 0 inherits it,
/// the others learn the port. `body(rank, port, listen_fd)` runs in the
/// child and returns its exit code; an exception exits 1. The parent
/// must hold no running threads when calling this.
LaunchResult launch_ranks(
    int world,
    const std::function<int(int rank, std::uint16_t port, int listen_fd)>&
        body);

}  // namespace perfbench
