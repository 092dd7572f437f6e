// Client-side resilience policies (the mitigation layer STABL evaluates).
//
// The paper's Diablo-style clients pin one endpoint forever: when that node
// is killed, every in-flight and future transaction from the client is
// silently lost. This layer gives a client the standard production
// defences so the harness can *study mitigations* instead of only
// reproducing failure curves:
//
//  * per-request commit timeouts with exponential backoff and
//    deterministic jitter (the ConnectionManager retry idiom);
//  * automatic endpoint failover across a candidate node list;
//  * a per-endpoint circuit breaker that quarantines an endpoint after
//    consecutive timeouts and probes it for recovery (half-open state);
//  * resubmission bookkeeping so the observer can report lost vs.
//    recovered vs. duplicate-committed transactions per run.
//  * hedged submissions: instead of waiting out the full commit timeout,
//    arm a second endpoint once the observed latency percentile elapses;
//  * an EWMA endpoint scorer steering failover (and hedge) target choice
//    toward the endpoints that have actually been answering fastest.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "net/message.hpp"
#include "sim/rng.hpp"
#include "sim/time.hpp"

namespace stabl::core {

struct RetryPolicy {
  /// How long a submission waits for a commit notification before the
  /// attempt counts as failed and the transaction is resubmitted.
  sim::Duration commit_timeout = sim::sec(10);
  /// Delay before the first resubmission; doubles per attempt up to the cap.
  sim::Duration backoff_base = sim::ms(500);
  double backoff_multiplier = 2.0;
  sim::Duration backoff_cap = sim::sec(30);
  /// Deterministic per-attempt jitter, as a fraction of the delay.
  double jitter_frac = 0.1;
  /// Submission attempts per transaction before it is abandoned (>= 1).
  int max_attempts = 8;

  /// Backoff before resubmission attempt `attempt` (1 = first retry).
  [[nodiscard]] sim::Duration backoff(int attempt, sim::Rng& rng) const;

  friend bool operator==(const RetryPolicy&, const RetryPolicy&) = default;
};

struct CircuitBreakerPolicy {
  /// Consecutive failures that trip the breaker open.
  int failure_threshold = 3;
  /// Quarantine span before a half-open probe is admitted.
  sim::Duration open_duration = sim::sec(20);

  friend bool operator==(const CircuitBreakerPolicy&,
                         const CircuitBreakerPolicy&) = default;
};

/// Per-endpoint breaker: closed (normal) -> open (quarantined) ->
/// half-open (one probe in flight) -> closed on success / open on failure.
class CircuitBreaker {
 public:
  enum class State : std::uint8_t { kClosed, kOpen, kHalfOpen };

  explicit CircuitBreaker(CircuitBreakerPolicy policy = {})
      : policy_(policy) {}

  /// True when traffic may be sent to the endpoint now. An open breaker
  /// whose quarantine elapsed moves to half-open and admits the probe.
  bool allow(sim::Time now);

  void on_success();
  /// Returns true when this failure newly opened (or re-opened) the breaker.
  bool on_failure(sim::Time now);

  [[nodiscard]] State state() const { return state_; }

 private:
  CircuitBreakerPolicy policy_;
  State state_ = State::kClosed;
  int consecutive_failures_ = 0;
  sim::Time open_until_{0};
};

/// Hedged submissions ("The Tail at Scale" defence): when a commit takes
/// longer than the recent `percentile` latency, send the transaction to a
/// second endpoint instead of waiting for the full commit timeout. The
/// first commit wins; the loser is a cheap duplicate the mempool dedups.
struct HedgePolicy {
  bool enabled = false;
  /// Latency percentile of recently observed commits at which the hedge
  /// fires.
  double percentile = 0.95;
  /// Clamp on the hedge delay, so a streak of fast commits cannot turn
  /// every submission into an instant double-send.
  sim::Duration min_delay = sim::ms(250);
  /// Clamp on the hedge delay; also the delay used before any commit has
  /// been observed.
  sim::Duration max_delay = sim::sec(8);

  friend bool operator==(const HedgePolicy&, const HedgePolicy&) = default;
};

/// EWMA endpoint scoring: score = (1 - alpha) * score + alpha * observed
/// cost, where cost is the commit latency in seconds, or failure_penalty_s
/// for a timeout/reset. Lower is better; unprobed endpoints score 0 so the
/// client still explores them.
struct EndpointScorePolicy {
  bool enabled = false;
  /// Weight of the newest observation.
  double alpha = 0.3;
  /// Seconds-equivalent cost blended in per failure (a timeout should
  /// outweigh many slow-but-successful commits).
  double failure_penalty_s = 30.0;

  friend bool operator==(const EndpointScorePolicy&,
                         const EndpointScorePolicy&) = default;
};

class EndpointScorer {
 public:
  EndpointScorer(std::size_t endpoints, EndpointScorePolicy policy);

  void on_latency(std::size_t index, double seconds);
  void on_failure(std::size_t index);

  [[nodiscard]] double score(std::size_t index) const {
    return scores_[index];
  }
  [[nodiscard]] std::size_t size() const { return scores_.size(); }

  /// Index with the lowest score among `allowed` (ties -> lowest index).
  /// Requires a non-empty candidate list.
  [[nodiscard]] std::size_t best(const std::vector<std::size_t>& allowed) const;

 private:
  EndpointScorePolicy policy_;
  std::vector<double> scores_;
};

/// Rotates a client's primary endpoint through a candidate list, skipping
/// quarantined endpoints via per-endpoint circuit breakers. With scoring
/// enabled, failover picks the best-scored admissible endpoint instead of
/// the next one in rotation.
class EndpointFailover {
 public:
  EndpointFailover(std::vector<net::NodeId> candidates,
                   CircuitBreakerPolicy policy,
                   EndpointScorePolicy score = {});

  /// Endpoint to submit to now: the current primary when its breaker
  /// admits traffic, else the next admissible candidate (the primary moves
  /// with the failover). With every breaker open the primary is returned
  /// unchanged — the client keeps trying rather than going silent.
  net::NodeId select(sim::Time now);

  [[nodiscard]] net::NodeId primary() const { return candidates_[primary_]; }
  /// Returns true when the endpoint's breaker newly opened.
  bool on_failure(net::NodeId id, sim::Time now);
  void on_success(net::NodeId id);
  /// Feed an observed commit latency to the scorer (no-op when scoring is
  /// off).
  void note_latency(net::NodeId id, double seconds);
  /// A second endpoint for a hedged submission: admissible, different from
  /// `exclude`; best-scored when scoring is on, else the next candidate in
  /// rotation. Does not move the primary. nullopt when no other endpoint
  /// is admissible.
  [[nodiscard]] std::optional<net::NodeId> hedge_target(net::NodeId exclude,
                                                        sim::Time now);
  [[nodiscard]] const CircuitBreaker& breaker(net::NodeId id) const;
  [[nodiscard]] std::uint64_t failovers() const { return failovers_; }
  /// Breakers currently not closed (open or half-open) — the gauge the
  /// metrics registry samples.
  [[nodiscard]] std::size_t open_breakers() const;
  /// The scorer, when scoring is enabled; nullptr otherwise.
  [[nodiscard]] const EndpointScorer* scorer() const {
    return scorer_.has_value() ? &*scorer_ : nullptr;
  }

 private:
  [[nodiscard]] std::size_t index_of(net::NodeId id) const;

  std::vector<net::NodeId> candidates_;
  std::vector<CircuitBreaker> breakers_;
  std::optional<EndpointScorer> scorer_;
  std::size_t primary_ = 0;
  std::uint64_t failovers_ = 0;
};

struct ResilienceConfig {
  bool enabled = false;
  RetryPolicy retry{};
  CircuitBreakerPolicy breaker{};
  HedgePolicy hedge{};
  EndpointScorePolicy score{};

  friend bool operator==(const ResilienceConfig&,
                         const ResilienceConfig&) = default;
};

/// Resubmission bookkeeping, per client (summed per run by the harness).
struct ResilienceStats {
  std::uint64_t timeouts = 0;        // attempts that hit commit_timeout
  std::uint64_t resets = 0;          // attempts answered by a TCP RST
  std::uint64_t resubmissions = 0;   // total retry submissions sent
  std::uint64_t failovers = 0;       // primary endpoint changes
  std::uint64_t circuit_opens = 0;   // breaker trips (incl. re-opens)
  std::uint64_t recovered = 0;       // committed after >= 1 resubmission
  std::uint64_t exhausted = 0;       // abandoned after max_attempts
  std::uint64_t duplicate_commits = 0;  // notifications after acceptance
  std::uint64_t hedges_armed = 0;     // hedge timers armed
  std::uint64_t hedges_won = 0;       // commits answered by the hedge
  std::uint64_t hedges_cancelled = 0;  // commit beat the hedge timer

  ResilienceStats& operator+=(const ResilienceStats& other);
};

}  // namespace stabl::core
