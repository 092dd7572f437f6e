// Workload shapes.
//
// The paper's campaign uses a constant 200 TPS of native transfers and
// names this as a limitation (§8: "not representative of realistic
// fluctuating workloads, request bursts or demanding workloads"). The
// workload module supplies the constant shape plus the fluctuating ones
// the paper points to, so the sensitivity harness can also score
// congestion behaviour (tests/test_workload.cpp).
#pragma once

#include <cstdint>

#include "sim/time.hpp"

namespace stabl::core {

enum class WorkloadShape {
  kConstant,  // the paper's workload: fixed inter-arrival gap
  kBursty,    // square wave: alternating high/low phases, same average
  kRamp,      // linear ramp from low to high over the run, same average
  kDiurnal,   // raised-cosine day/night cycle, same average
  kFlash,     // flash crowd: one multiplied window, same average
};

struct WorkloadConfig {
  WorkloadShape shape = WorkloadShape::kConstant;
  /// Average transactions per second over the whole run.
  double tps = 40.0;
  /// kBursty: phase length and the high:low rate ratio. A burst factor of
  /// 3 with average 40 TPS gives phases of 60 and 20 TPS.
  sim::Duration burst_period = sim::sec(20);
  double burst_factor = 3.0;
  /// kRamp: start fraction of the average rate (ends at 2 - start).
  double ramp_start_fraction = 0.2;
  /// kDiurnal: rate = tps * (1 - amplitude * cos(2*pi*t / period)); the
  /// trough sits at t = 0, the peak at half a period. Amplitude is clamped
  /// to [0, 1); a period of 0 means one full cycle over the run, which is
  /// also the only period that keeps the average exact for any duration.
  double diurnal_amplitude = 0.6;
  sim::Duration diurnal_period{0};
  /// kFlash: inside [flash_at, flash_at + flash_duration) the rate is
  /// flash_factor x the off-window base rate; the base rate is depressed
  /// so the whole run still averages tps.
  sim::Time flash_at = sim::sec(150);
  sim::Duration flash_duration = sim::sec(50);
  double flash_factor = 6.0;

  /// Identical profiles share one aggregate arrival process
  /// (core/arrivals.hpp groups enrolment cohorts by equality).
  friend bool operator==(const WorkloadConfig&,
                         const WorkloadConfig&) = default;
};

/// Smallest inter-tick gap an arrival process schedules. Below this the
/// timer overhead would dominate the simulated work; an aggregate process
/// preserves the configured average anyway by emitting several
/// transactions per tick (ArrivalStep::count below).
inline constexpr sim::Duration kMinArrivalGap = sim::us(100);

/// Stateless rate function: target TPS at time `at` within a run lasting
/// `duration`. Always averages to `config.tps` over the run.
double workload_rate(const WorkloadConfig& config, sim::Time at,
                     sim::Duration duration);

/// One step of an aggregate arrival process: emit `count` transactions
/// per enrolled generator now, schedule the next tick `interval` later.
/// When the raw gap (1/rate) falls below kMinArrivalGap the step batches
/// `count` arrivals per tick instead of clamping the rate, so the average
/// still honours config.tps; `clamped` reports that the floor bound (the
/// arrival scheduler surfaces it once through the metrics registry).
struct ArrivalStep {
  sim::Duration interval = kMinArrivalGap;
  int count = 1;
  bool clamped = false;
};

ArrivalStep workload_step(const WorkloadConfig& config, sim::Time at,
                          sim::Duration duration);

}  // namespace stabl::core
