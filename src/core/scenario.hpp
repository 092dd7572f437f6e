// Declarative scenarios: one JSON document describing a complete stabl_cli
// invocation — chain + per-chain parameter overrides, fault schedule,
// workload, duration, seeds/jobs and observability outputs.
//
// The spec is data, not code (the usability gap the blockchain-simulator
// mapping study arXiv:2208.11202 calls out): checked-in files under
// examples/scenarios/ reproduce the paper's figure cells, CI replays them,
// and `stabl_cli --dump-scenario` emits the spec any flag combination
// resolves to. Validation is strict — unknown keys, unknown chains/faults
// and out-of-range values are errors, never silently ignored — and
// scenario_to_json/scenario_from_json round-trip byte-stably, so a dumped
// spec replayed through --scenario reproduces the flag run's report bytes
// exactly (tests assert this).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "chain/registry.hpp"
#include "core/experiment.hpp"
#include "core/traffic.hpp"
#include "net/message.hpp"

namespace stabl::core {

/// The declarative form of a run. Field defaults mirror stabl_cli's flag
/// defaults exactly, so an empty JSON object {} is the paper's default
/// Redbelly baseline and every checked-in spec only needs to state what
/// it changes.
struct ScenarioSpec {
  /// Free-form label, carried through for humans and file indexes.
  std::string name{};
  std::string chain = "redbelly";
  /// Per-chain parameter overrides (chain::ChainTraits::default_params
  /// keys). Unknown keys are rejected when the scenario resolves.
  chain::ChainParams chain_params{};
  /// Blockchain nodes, in [4, 1000]. Omitted from serialization at the
  /// paper's 10, so specs and dumps that predate the field stay
  /// byte-identical.
  std::int64_t n = 10;
  std::string fault = "none";
  /// Explicit target override; empty selects the paper's defaults.
  std::vector<net::NodeId> fault_targets{};
  /// Fault types composed onto the primary window (engine v2); every plan
  /// carries the knob values below.
  std::vector<std::string> extra_faults{};
  double loss_probability = 0.2;
  double throttle_bytes_per_s = 64.0 * 1024.0;
  double gray_delay_s = 2.0;
  /// kEclipse knobs: victim node, per-packet interception delay, and the
  /// probability an intercepted packet is silently dropped.
  std::int64_t eclipse_victim = 9;
  double eclipse_delay_s = 0.5;
  double eclipse_filter = 0.2;
  std::int64_t duration_s = 400;
  std::uint64_t seed = 42;
  std::int64_t num_seeds = 1;
  std::int64_t jobs = 1;
  /// Arrival shape (core/traffic.hpp workload_shape_names()); the traffic
  /// object's "shape", when present, takes precedence.
  std::string workload = "constant";
  /// Production traffic model (the "traffic" JSON object). Omitted from
  /// serialization while has_traffic is false, so specs and dumps that
  /// predate the traffic layer stay byte-identical.
  bool has_traffic = false;
  TrafficSpec traffic{};
  std::int64_t fanout = 1;
  std::int64_t matching = 0;
  double vcpus = 4.0;
  bool resilient = false;
  double commit_timeout_s = 10.0;
  /// Hedged submissions (needs resilient): arm a second endpoint after the
  /// observed hedge_percentile commit latency instead of waiting out the
  /// full commit timeout.
  bool hedge = false;
  double hedge_percentile = 0.95;
  double hedge_min_delay_s = 0.25;
  double hedge_max_delay_s = 8.0;
  /// EWMA endpoint scoring steering failover order (needs resilient).
  bool endpoint_scoring = false;
  std::int64_t chaos_trials = 0;
  bool shrink = false;
  /// Chaos campaigns sample the adversarial plan space too (equivocate,
  /// withhold, eclipse join the generated types).
  bool chaos_adversarial = false;
  /// Observability outputs; empty = disabled.
  std::string trace{};
  std::string metrics{};

  bool operator==(const ScenarioSpec&) const = default;
};

/// Range/consistency validation that needs no registry: duration >= 30 s,
/// n within its bounds, seeds/jobs >= 1, probability in (0, 1], known
/// workload shape, ...
/// Returns an empty string when well-formed, else a human-readable error.
/// Name lookups (chain, fault, chain_params keys) happen when the
/// scenario resolves, against whatever chains the binary registered.
[[nodiscard]] std::string validate_scenario(const ScenarioSpec& spec);

/// Pretty two-space-indented JSON with every field present in declaration
/// order, except "n" at its default and "traffic" while has_traffic is
/// false; doubles use shortest round-trip formatting. Byte-stable:
/// scenario_to_json(scenario_from_json(j)) == j for any j this emitted.
[[nodiscard]] std::string scenario_to_json(const ScenarioSpec& spec);

/// Strict parse: unknown or duplicate keys, malformed JSON, non-integral
/// integer fields and validate_scenario failures all throw
/// std::invalid_argument. Missing keys keep their defaults, so hand
/// written specs only state what they change.
[[nodiscard]] ScenarioSpec scenario_from_json(const std::string& json);

/// A spec lowered onto the experiment machinery: the ExperimentConfig plus
/// the driver-level knobs (sweep width, parallelism, chaos mode,
/// observability paths) that live outside ExperimentConfig.
struct ResolvedScenario {
  ExperimentConfig config{};
  std::size_t num_seeds = 1;
  unsigned jobs = 1;
  std::size_t chaos_trials = 0;
  bool shrink = false;
  bool chaos_adversarial = false;
  std::string trace_path{};
  std::string metrics_path{};
};

/// Validate + resolve. Fixes the fault window first (the duration's
/// integer thirds, or the burst anchor of `fault_phase: burst`), then
/// builds config.fault_schedule: the primary plan with fault_targets, then
/// one plan per extra fault, all on that window and carrying the spec's
/// knob values (left empty, standing for paper_plan, when the spec sets no
/// targets, knob or extra fault). Also applies apply_secure_client_geometry
/// (fanout 4 and 8 vCPUs unless the spec set a fanout), so a dumped spec
/// reproduces the flag run byte-for-byte. Throws std::invalid_argument on
/// validation failures, unknown chain/fault names, chain_params keys the
/// chain does not declare, a resolved plan the fault engine would reject
/// (validate(FaultPlan)), a resolved fanout above the min(clients, n)
/// entry nodes, or a matching degree above the resolved fanout.
[[nodiscard]] ResolvedScenario resolve_scenario(const ScenarioSpec& spec);

}  // namespace stabl::core
