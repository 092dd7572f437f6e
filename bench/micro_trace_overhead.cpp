// micro_trace_overhead — throughput of a TraceSink emission site in the
// three states the harness can be in: disabled (null sink — what every
// production run pays at every instrumented call site), enabled recording
// to memory, and enabled with the recording serialized to a file. The
// LifecycleRecorder's mark() site is measured the same way: disabled
// (null recorder) and enabled to memory.
//
// After the benchmark pass the binary gates the overhead contract shared
// by sim/trace.hpp and sim/lifecycle.hpp: each disabled path (one pointer
// test + predicted branch, inline at the call site) must cost < 2% over the
// same loop with no instrumentation at all. Exit status 1 when either gate
// fails, so CI can run this binary directly.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>

#include "core/trace.hpp"
#include "sim/lifecycle.hpp"
#include "sim/trace.hpp"

namespace {

using namespace stabl;

// A unit of simulated "real work" per event: a xorshift step, roughly the
// cost of the cheapest state updates between emission points in the DES.
inline std::uint64_t work_step(std::uint64_t x) {
  x ^= x << 13;
  x ^= x >> 7;
  x ^= x << 17;
  return x;
}

// The shape instrumented call sites compile to: the null test is inline in
// the caller (`if (auto* trace = simulation().trace())`) and only an
// enabled sink leaves the loop body. Every timed loop passes the pointer
// through DoNotOptimize first, so the compiler must test it on every
// iteration, as production code re-reads it from the Simulation, instead
// of hoisting the test out of the loop and timing the uninstrumented body.
__attribute__((noinline)) void emit_tick(sim::TraceSink* sink,
                                         std::uint64_t i) {
  sink->instant(static_cast<std::int32_t>(i & 7),
                sim::Time(static_cast<std::int64_t>(i)), "tick", "bench");
}

inline void emission_site(sim::TraceSink* sink, std::uint64_t i) {
  if (sink != nullptr) emit_tick(sink, i);
}

// The shape every lifecycle mark site compiles to (client, node,
// consensus commit paths): null-guarded pointer, first-reach mark.
__attribute__((noinline)) void mark_queued(sim::LifecycleRecorder* rec,
                                           std::uint64_t i) {
  rec->mark(i & 0xffff, sim::TxStage::kQueued,
            sim::Time(static_cast<std::int64_t>(i)));
}

inline void lifecycle_site(sim::LifecycleRecorder* rec, std::uint64_t i) {
  if (rec != nullptr) mark_queued(rec, i);
}

void uninstrumented(benchmark::State& state) {
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (auto _ : state) {
    x = work_step(x);
    benchmark::DoNotOptimize(x);
  }
  state.SetItemsProcessed(state.iterations());
}

void disabled(benchmark::State& state) {
  sim::TraceSink* sink = nullptr;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t i = 0;
  for (auto _ : state) {
    x = work_step(x);
    benchmark::DoNotOptimize(sink);
    emission_site(sink, i++);
    benchmark::DoNotOptimize(x);
  }
  state.SetItemsProcessed(state.iterations());
}

void enabled_memory(benchmark::State& state) {
  sim::TraceSink sink;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t i = 0;
  for (auto _ : state) {
    x = work_step(x);
    emission_site(&sink, i++);
    benchmark::DoNotOptimize(x);
    if (sink.size() >= 1u << 20) sink.clear();  // bound the arena
  }
  state.SetItemsProcessed(state.iterations());
}

void enabled_file(benchmark::State& state) {
  // Emission plus the end-of-run cost of rendering and writing the JSON,
  // amortized per event — what `stabl_cli --trace` actually pays.
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t events = 0;
  for (auto _ : state) {
    state.PauseTiming();
    sim::TraceSink sink;
    constexpr std::uint64_t kBatch = 100'000;
    state.ResumeTiming();
    for (std::uint64_t i = 0; i < kBatch; ++i) {
      x = work_step(x);
      emission_site(&sink, i);
      benchmark::DoNotOptimize(x);
    }
    const std::string json = core::trace_to_json(sink);
    std::FILE* out = std::fopen("micro_trace_overhead.trace.json", "wb");
    if (out != nullptr) {
      std::fwrite(json.data(), 1, json.size(), out);
      std::fclose(out);
    }
    events += kBatch;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(events));
}

void disabled_lifecycle(benchmark::State& state) {
  sim::LifecycleRecorder* rec = nullptr;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t i = 0;
  for (auto _ : state) {
    x = work_step(x);
    benchmark::DoNotOptimize(rec);
    lifecycle_site(rec, i++);
    benchmark::DoNotOptimize(x);
  }
  state.SetItemsProcessed(state.iterations());
}

void enabled_lifecycle_memory(benchmark::State& state) {
  sim::LifecycleRecorder recorder;
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t i = 0;
  for (auto _ : state) {
    x = work_step(x);
    lifecycle_site(&recorder, i++);
    benchmark::DoNotOptimize(x);
    if (recorder.size() >= 1u << 20) recorder.clear();  // bound the arena
  }
  state.SetItemsProcessed(state.iterations());
}

BENCHMARK(uninstrumented);
BENCHMARK(disabled);
BENCHMARK(enabled_memory);
BENCHMARK(enabled_file);
BENCHMARK(disabled_lifecycle);
BENCHMARK(enabled_lifecycle_memory);

/// Steady-clock measurement of the two hot loops, outside google-benchmark
/// so the gate compares medians of repeated identical batches.
double batch_seconds(sim::TraceSink* sink) {
  constexpr std::uint64_t kIters = 100'000'000;
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t i = 0; i < kIters; ++i) {
    x = work_step(x);
    benchmark::DoNotOptimize(sink);
    emission_site(sink, i);
    benchmark::DoNotOptimize(x);
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double uninstrumented_batch_seconds() {
  constexpr std::uint64_t kIters = 100'000'000;
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t i = 0; i < kIters; ++i) {
    x = work_step(x);
    benchmark::DoNotOptimize(x);
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

double lifecycle_batch_seconds(sim::LifecycleRecorder* rec) {
  constexpr std::uint64_t kIters = 100'000'000;
  const auto start = std::chrono::steady_clock::now();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  for (std::uint64_t i = 0; i < kIters; ++i) {
    x = work_step(x);
    benchmark::DoNotOptimize(rec);
    lifecycle_site(rec, i);
    benchmark::DoNotOptimize(x);
  }
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

int gate_disabled_overhead() {
  // Best-of-5 on every side damps scheduler noise; each gate allows < 2%.
  double base = 1e300;
  double trace_off = 1e300;
  double lifecycle_off = 1e300;
  for (int rep = 0; rep < 5; ++rep) {
    const double b = uninstrumented_batch_seconds();
    if (b < base) base = b;
    const double d = batch_seconds(nullptr);
    if (d < trace_off) trace_off = d;
    const double l = lifecycle_batch_seconds(nullptr);
    if (l < lifecycle_off) lifecycle_off = l;
  }
  int failed = 0;
  const struct {
    const char* name;
    double seconds;
  } gates[] = {{"trace", trace_off}, {"lifecycle", lifecycle_off}};
  std::printf("\n");
  for (const auto& gate : gates) {
    const double overhead = (gate.seconds - base) / base * 100.0;
    std::printf("%s overhead gate: uninstrumented %.3fs, disabled-path "
                "%.3fs -> %+.2f%% (gate < 2%%)\n",
                gate.name, base, gate.seconds, overhead);
    if (overhead >= 2.0) {
      std::printf("GATE FAILED: disabled-path %s overhead %.2f%% >= 2%%\n",
                  gate.name, overhead);
      failed = 1;
    }
  }
  if (failed == 0) std::printf("gates passed\n");
  return failed;
}

}  // namespace

int main(int argc, char** argv) {
  ::benchmark::Initialize(&argc, argv);
  if (::benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  ::benchmark::RunSpecifiedBenchmarks();
  const int gate = gate_disabled_overhead();
  ::benchmark::Shutdown();
  return gate;
}
