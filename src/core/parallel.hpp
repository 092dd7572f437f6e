// A small work-stealing-free thread pool for embarrassingly parallel
// batches (the distinct experiments of a campaign, chaos trials). Workers
// pull indexes from one shared cursor — no per-worker deques, no
// stealing — and the caller participates as a lane, so `jobs = 1` spawns
// no threads and is exactly the serial loop. Results must be written into
// pre-sized, index-addressed slots by the body; gathering by index is
// what keeps parallel output byte-identical to serial output.
#pragma once

#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace stabl::core {

/// Lanes to use by default: the hardware concurrency, at least 1.
unsigned default_jobs();

/// Wall-clock campaign progress reporter: "label: done/total runs
/// (pct) | rate runs/s | ETA", written to stderr as a carriage-return
/// line so multi-thousand-run campaigns are not silent. A run is one
/// distinct experiment of a pair batch (core::run_pairs) or one chaos
/// trial. Strictly a
/// human-facing side channel: output is wall-clock dependent and NEVER
/// part of any deterministic serializer (the same exclusion discipline as
/// ChaosTrial::wall_ms). Thread-safe — campaign workers tick it from pool
/// lanes; updates are rate-limited to one line per 250 ms of wall time,
/// plus a final newline-terminated line at completion.
class Heartbeat {
 public:
  /// A disabled heartbeat (enabled = false) makes tick() a no-op, so
  /// campaign code can tick unconditionally and drivers decide once
  /// (typically `isatty(stderr)` or an explicit flag).
  Heartbeat(std::string label, std::size_t total, bool enabled);
  ~Heartbeat();  ///< finishes an unfinished run's line, if one printed

  Heartbeat(const Heartbeat&) = delete;
  Heartbeat& operator=(const Heartbeat&) = delete;

  /// One unit of work finished.
  void tick();

 private:
  void print(std::size_t done, bool final_line);

  const std::string label_;
  const std::size_t total_;
  const bool enabled_;
  const std::chrono::steady_clock::time_point start_;
  std::mutex mutex_;
  std::size_t done_ = 0;
  std::chrono::steady_clock::time_point last_print_;
  bool printed_ = false;
};

class ThreadPool {
 public:
  /// `jobs` is the total number of lanes including the calling thread;
  /// values < 1 are clamped to 1 (serial, no threads spawned).
  explicit ThreadPool(unsigned jobs);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  [[nodiscard]] unsigned jobs() const {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Run body(i) for every i in [0, count), fanned across all lanes;
  /// blocks until every index completed. The first exception thrown by any
  /// body is rethrown here (remaining indexes are skipped best-effort).
  /// Reusable: parallel_for may be called repeatedly on the same pool, but
  /// not concurrently from several threads.
  void parallel_for(std::size_t count,
                    const std::function<void(std::size_t)>& body);

 private:
  void worker_loop();
  void drain();  // pull indexes until the cursor passes count_

  std::vector<std::thread> workers_;

  std::mutex mutex_;
  std::condition_variable work_cv_;   // workers wait for a new batch
  std::condition_variable done_cv_;   // caller waits for workers to finish
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t count_ = 0;
  std::size_t cursor_ = 0;      // next index to hand out (guarded by mutex_)
  std::size_t active_ = 0;      // workers still inside the current batch
  std::uint64_t generation_ = 0;
  bool stop_ = false;
  bool failed_ = false;         // short-circuits remaining indexes
  std::exception_ptr error_;
};

}  // namespace stabl::core
