#include "core/parallel.hpp"

#include <algorithm>
#include <cstdio>

namespace stabl::core {

unsigned default_jobs() {
  return std::max(1u, std::thread::hardware_concurrency());
}

Heartbeat::Heartbeat(std::string label, std::size_t total, bool enabled)
    : label_(std::move(label)),
      total_(total),
      enabled_(enabled),
      start_(std::chrono::steady_clock::now()),
      last_print_(start_) {}

Heartbeat::~Heartbeat() {
  // tick() already printed the final line once every unit finished.
  if (!enabled_ || !printed_ || done_ >= total_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  print(done_, /*final_line=*/true);
}

void Heartbeat::tick() {
  if (!enabled_) return;
  std::lock_guard<std::mutex> lock(mutex_);
  ++done_;
  const auto now = std::chrono::steady_clock::now();
  const bool last = done_ >= total_;
  if (!last && now - last_print_ < std::chrono::milliseconds(250)) return;
  last_print_ = now;
  print(done_, last);
}

void Heartbeat::print(std::size_t done, bool final_line) {
  const double elapsed_s =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
          .count();
  const double rate = elapsed_s > 0.0
                          ? static_cast<double>(done) / elapsed_s
                          : 0.0;
  const double pct = total_ == 0
                         ? 100.0
                         : 100.0 * static_cast<double>(done) /
                               static_cast<double>(total_);
  char eta[32];
  if (done >= total_ || rate <= 0.0) {
    std::snprintf(eta, sizeof(eta), "--");
  } else {
    const double remaining_s =
        static_cast<double>(total_ - done) / rate;
    std::snprintf(eta, sizeof(eta), "%.0fs", remaining_s);
  }
  std::fprintf(stderr, "\r%s: %zu/%zu runs (%.0f%%) | %.2f runs/s | ETA %s",
               label_.c_str(), done, total_, pct, rate, eta);
  if (final_line) std::fprintf(stderr, "\n");
  std::fflush(stderr);
  printed_ = true;
}

ThreadPool::ThreadPool(unsigned jobs) {
  const unsigned lanes = std::max(1u, jobs);
  workers_.reserve(lanes - 1);
  for (unsigned i = 0; i + 1 < lanes; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& worker : workers_) worker.join();
}

void ThreadPool::drain() {
  for (;;) {
    std::size_t index;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (failed_ || cursor_ >= count_) return;
      index = cursor_++;
    }
    try {
      (*body_)(index);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!failed_) {
        failed_ = true;
        error_ = std::current_exception();
      }
    }
  }
}

void ThreadPool::worker_loop() {
  std::uint64_t seen_generation = 0;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_cv_.wait(lock, [&] {
        return stop_ || generation_ != seen_generation;
      });
      if (stop_) return;
      seen_generation = generation_;
    }
    drain();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --active_;
    }
    done_cv_.notify_one();
  }
}

void ThreadPool::parallel_for(std::size_t count,
                              const std::function<void(std::size_t)>& body) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    body_ = &body;
    count_ = count;
    cursor_ = 0;
    failed_ = false;
    error_ = nullptr;
    active_ = workers_.size();
    ++generation_;
  }
  work_cv_.notify_all();

  drain();  // the caller is a lane too

  std::unique_lock<std::mutex> lock(mutex_);
  done_cv_.wait(lock, [&] { return active_ == 0; });
  body_ = nullptr;
  if (error_) {
    std::exception_ptr error = error_;
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(error);
  }
}

}  // namespace stabl::core
