// The STABL experiment runner (paper §3, "Experimental settings").
//
// Deployment geometry: n = 10 blockchain nodes and 5 client machines, each
// client sending native transfers at 40 TPS (200 TPS total) to one
// blockchain node (nodes 0-4). Failures are injected on the remaining
// nodes 5-9, "this way, faulty nodes never receive transactions they would
// otherwise lose". A run lasts 400 s; faults hit at 133 s and transient
// conditions clear at 266 s. The Byzantine-node-tolerance experiment (§7)
// instead connects every client to 4 = max(t_B)+1 nodes and doubles the
// VM size to 8 vCPUs.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "chain/registry.hpp"
#include "chain/types.hpp"
#include "core/fault.hpp"
#include "core/resilience.hpp"
#include "core/sensitivity.hpp"
#include "core/traffic.hpp"
#include "core/workload.hpp"
#include "net/network.hpp"
#include "sim/time.hpp"

namespace stabl::chain {
class BlockchainNode;
}  // namespace stabl::chain

namespace stabl::sim {
class LifecycleRecorder;
class TraceSink;
}  // namespace stabl::sim

namespace stabl::core {

class MetricsRegistry;

/// ChainKind is a thin alias over chain::Registry ids: the five paper
/// chains register at tier 0 and therefore always hold ids 0-4 in
/// alphabetical order — exactly these historical enum values. Extension
/// chains (e.g. the refbft reference plugin) get ids past the enum range;
/// every ChainKind consumer resolves through the registry, so those values
/// are just as valid.
enum class ChainKind { kAlgorand, kAptos, kAvalanche, kRedbelly, kSolana };

/// The paper's five chains. Campaign/bench defaults iterate this — not the
/// registry — so linking an extension chain never silently widens a
/// default campaign.
inline constexpr ChainKind kAllChains[] = {
    ChainKind::kAlgorand, ChainKind::kAptos, ChainKind::kAvalanche,
    ChainKind::kRedbelly, ChainKind::kSolana};

/// The process-wide chain registry, with the five built-in chains'
/// registration objects anchored (a plain chain::Registry::global() call
/// from a binary that never names a chain symbol would let the static
/// archive linker drop their translation units — and the registrations
/// with them).
const chain::Registry& chain_registry();

constexpr chain::ChainId chain_id(ChainKind chain) {
  return static_cast<chain::ChainId>(chain);
}
constexpr ChainKind chain_kind(chain::ChainId id) {
  return static_cast<ChainKind>(id);
}

/// Registry traits of a chain. Throws std::invalid_argument (listing the
/// registered chains) on an out-of-range value — the descriptive failure
/// an out-of-range ChainKind cast produces everywhere now.
const chain::ChainTraits& chain_traits(ChainKind chain);

/// Case-insensitive name -> ChainKind. Throws std::invalid_argument
/// listing the valid names when unknown.
ChainKind parse_chain_name(std::string_view name);

std::string to_string(ChainKind chain);

/// t_B: Algorand and Avalanche tolerate a 20% coalition (⌈n/5-1⌉); Aptos,
/// Redbelly and Solana tolerate less than a third (⌈n/3-1⌉). Paper §2.
std::size_t fault_tolerance(ChainKind chain, std::size_t n);

struct ExperimentConfig {
  ChainKind chain = ChainKind::kRedbelly;
  std::size_t n = 10;
  std::size_t clients = 5;
  double tps_per_client = 40.0;
  double vcpus = 4.0;
  /// Blockchain nodes each client submits to (1, or t_B+1 = 4 for the
  /// secure client).
  int client_fanout = 1;
  /// 0 = wait for all endpoints (paper's secure client); k > 0 = accept on
  /// k matching result hashes (credence.js-style verified client).
  std::size_t client_matching = 0;
  std::uint64_t seed = 42;
  sim::Duration duration = sim::sec(400);
  /// The run's cell: the fault it is named by in reports and campaign
  /// keys, and the window the recovery measurement and the oracles read.
  /// Faults hit at inject_at; transient conditions clear at recover_at.
  FaultType fault = FaultType::kNone;
  sim::Duration inject_at = sim::sec(133);
  sim::Duration recover_at = sim::sec(266);
  /// The complete fault schedule the run arms, primary plan first. Empty
  /// stands for paper_plan(*this). Plans with empty targets get the paper's
  /// default targets for their type (resolved_schedule); explicit targets
  /// may hit entry nodes, which is how the resilient client's failover is
  /// studied.
  FaultSchedule fault_schedule{};
  /// Client-side timeouts + failover + backoff + circuit breaker. When
  /// enabled, every client gets all entry nodes as failover candidates
  /// (rotated so client i starts at entry node i) and client_fanout is
  /// ignored — submissions go to one endpoint at a time.
  ResilienceConfig resilience{};
  /// Per-chain parameter overrides, merged over the chain's registered
  /// defaults (chain::ChainTraits::default_params). Strict: a key the chain
  /// did not declare throws std::invalid_argument. Scenario files
  /// (core/scenario.hpp) populate this.
  chain::ChainParams chain_params{};
  /// Submission shape (average rate stays tps_per_client). The paper uses
  /// the constant shape; the others quantify its §8 limitation.
  WorkloadConfig workload{};
  /// Production traffic population (core/traffic.hpp): accounts per
  /// client, Zipf skew, hot-key contention, regions. Inactive by default —
  /// the paper's one-account-per-client workload stays byte-for-byte.
  TrafficConfig traffic{};
  /// Capture per-replica ledger snapshots and the clients' submitted
  /// transaction ids into the result, so the invariant oracles
  /// (core/oracle.hpp) can audit the run. Off by default: a 400 s run
  /// snapshots ~10 x 80k transaction ids, too heavy to keep for every
  /// cell of a large seed-swept campaign.
  bool capture_replicas = false;
  /// Observability (core/trace.hpp, core/metrics.hpp). Both observe-only:
  /// attaching them never perturbs RNG draws or event ordering, so every
  /// report stays byte-identical with or without them (tests assert this).
  /// Not owned; null = disabled. A sink/registry must not be shared across
  /// concurrently running cells.
  sim::TraceSink* trace = nullptr;
  MetricsRegistry* metrics = nullptr;
  /// Sim-time sampling period of the metrics ticker.
  sim::Duration metrics_period = sim::sec(1);
  /// Per-transaction lifecycle recorder (sim/lifecycle.hpp). Same
  /// observe-only contract and ownership rules as trace/metrics; the
  /// attribution layer (core/attribution.hpp) attaches one per run.
  sim::LifecycleRecorder* lifecycle = nullptr;

  /// Member-wise, observer pointers included (same_experiment ignores
  /// them). Defaulted, so a field added later is part of the key that
  /// decides which runs of a batch are shared.
  friend bool operator==(const ExperimentConfig&,
                         const ExperimentConfig&) = default;
};

/// One committed block as the oracles see it: structure only, no payloads.
struct BlockSummary {
  std::uint64_t height = 0;
  std::uint64_t round = 0;
  double committed_at_s = 0.0;
  std::vector<chain::TxId> txs;
};

/// A replica's ledger at the end of the run, plus its process state.
struct ReplicaSnapshot {
  net::NodeId id = 0;
  bool alive_at_end = true;
  int restarts = 0;
  /// Ledger::content_hash() — fast whole-chain equality probe.
  std::uint64_t ledger_hash = 0;
  std::vector<BlockSummary> blocks;
};

/// Snapshot every node's ledger (tests and custom harnesses reuse this; the
/// chaos self-test snapshots its deliberately broken toy chain with it).
std::vector<ReplicaSnapshot> snapshot_replicas(
    const std::vector<chain::BlockchainNode*>& nodes);

struct ExperimentResult {
  std::vector<double> latencies;  // client-observed, seconds
  std::uint64_t submitted = 0;
  std::uint64_t committed = 0;
  std::vector<double> throughput;  // committed tx per 1 s bin (node 0)
  /// Whether transactions were still being committed at the end of the
  /// run; false means the chain lost liveness (infinite sensitivity).
  bool live_at_end = false;
  /// Seconds from recover_at to sustained throughput; negative if never
  /// (only meaningful for transient/partition runs).
  double recovery_seconds = -1.0;
  double mean_latency_s = 0.0;
  double p50_latency_s = 0.0;
  double p99_latency_s = 0.0;
  std::uint64_t blocks = 0;
  std::uint64_t events = 0;
  net::NetworkStats net_stats{};
  /// Resubmission bookkeeping summed over all clients: lost vs. recovered
  /// vs. duplicate-committed transactions (all zeros for naive clients).
  ResilienceStats resilience{};
  /// Transactions still awaiting a commit notification at the end.
  std::uint64_t in_flight_at_end = 0;
  /// Chain-specific diagnostic counters, summed over all nodes (the
  /// paper's log-derived quantities: "speculative_aborts",
  /// "throttled_dropped", "panicked", ...). Keys depend on the chain.
  std::map<std::string, double> chain_metrics;
  /// Only populated when ExperimentConfig::capture_replicas is set.
  std::vector<ReplicaSnapshot> replicas;
  /// Union of every client's generated transaction ids (capture_replicas
  /// only), for the committed-subset-of-submitted oracle.
  std::vector<chain::TxId> submitted_ids;
};

ExperimentResult run_experiment(const ExperimentConfig& config);

/// The paper's run window for a duration: faults hit at the first integer
/// third and clear at the second (400 s keeps 133 s / 266 s).
void apply_run_window(ExperimentConfig& config, std::int64_t duration_s);

/// The plan an empty fault_schedule stands for: type `fault` over
/// inject_at..recover_at with default knobs and empty targets.
FaultPlan paper_plan(const ExperimentConfig& config);

/// The §7 secure-client geometry: a secure-client config whose fanout is
/// still 1 (unset) submits to t_B+1 = 4 endpoints on 8-vCPU VMs. A pinned
/// fanout keeps its value and the config's vCPUs.
void apply_secure_client_geometry(ExperimentConfig& config);

/// The `fault` cell of a campaign grid built on `base`: sets `fault`, moves
/// the primary plan (when the schedule is non-empty) to that type so its
/// targets, knobs and composed plans apply to every cell, and applies
/// apply_secure_client_geometry.
ExperimentConfig paper_cell(ExperimentConfig base, FaultType fault);

/// The fault schedule run_experiment arms for a config: fault_schedule (or
/// paper_plan when it is empty) with every empty target list filled with
/// the paper's t or t+1 nodes right after the entry nodes, minus plans that
/// fault nothing (none, secure-client, zero targets). The invariant oracles
/// call this to learn exactly which windows and targets a run was
/// subjected to.
FaultSchedule resolved_schedule(const ExperimentConfig& config);

/// A baseline/altered pair and its sensitivity score. The baseline is the
/// altered config with no fault and fanout 1 (same chain, same resources,
/// same seed), exactly the paper's pairing.
struct SensitivityRun {
  ExperimentResult baseline;
  ExperimentResult altered;
  SensitivityScore score;
};

/// The fault-free twin of a config: no fault, no schedule, fanout 1 with
/// matching 0 (one endpoint, waited for), constant workload,
/// observability detached — the paper's pairing rule. A config that is
/// already all of these is its own twin (same_experiment).
ExperimentConfig baseline_of(const ExperimentConfig& altered_config);

/// The config with its observe-only pointers (trace, metrics, lifecycle)
/// cleared: what a fan-out runs, since one sink, registry or recorder
/// must not be shared by concurrent runs.
ExperimentConfig without_observers(ExperimentConfig config);

/// Whether two configs describe the same run: ExperimentConfig equality
/// with the observe-only pointers ignored.
[[nodiscard]] bool same_experiment(const ExperimentConfig& a,
                                   const ExperimentConfig& b);

/// The distinct experiments behind a list of sensitivity pairs: every
/// altered config and its baseline_of twin, deduplicated by
/// same_experiment in first-use order (each pair's twin, then its altered
/// run). Equal configs share one run whatever their fault, so the paper
/// matrix's crash, transient and partition cells of a chain share their
/// twin while secure-client's 8-vCPU twin stays its own.
struct PairPlan {
  /// Configs to run. A run takes the observers of the first altered
  /// config naming it that has any; a run that is only a twin has none.
  std::vector<ExperimentConfig> runs;
  /// Per pair, in input order: indexes into `runs`.
  std::vector<std::size_t> baseline;
  std::vector<std::size_t> altered;
};

PairPlan plan_pairs(const std::vector<ExperimentConfig>& altered_configs);

struct PairOptions {
  /// Worker lanes, including the calling thread; 1 = serial. Results are
  /// identical for any value.
  unsigned jobs = 1;
  /// Wall-clock progress on stderr (core::Heartbeat), one tick per run,
  /// each line prefixed with `label`.
  bool heartbeat = false;
  std::string label = "pairs";
  /// Runs plan.runs[run]; empty = run_experiment. Called concurrently from
  /// the pool's lanes, each run exactly once.
  std::function<ExperimentResult(const ExperimentConfig& config,
                                 std::size_t run)>
      run_one{};
};

struct PairResults {
  /// One scored pair per plan entry, in input order. A result shared by
  /// several pairs is copied into each and moved into the last.
  std::vector<SensitivityRun> pairs;
  /// Wall-clock ms per pair: each of its two runs' time divided by the
  /// number of pair sides that use the run, so the sum over pairs is the
  /// lane time of the whole batch. Machine-dependent; no serializer reads
  /// it.
  std::vector<double> wall_ms;
  /// Distinct experiments executed (plan.runs.size()).
  std::size_t experiments = 0;
};

/// Run every distinct experiment of `plan` once, in one fan-out over
/// options.jobs lanes, and score each pair while gathering in input order.
/// Deterministic: the pairs are identical for any jobs value.
PairResults run_pairs(const PairPlan& plan, const PairOptions& options = {});

/// One pair through run_pairs: a faulted config runs its twin and itself;
/// a fault-free config that is its own twin runs once, observers attached.
SensitivityRun run_sensitivity(const ExperimentConfig& altered_config);

}  // namespace stabl::core
