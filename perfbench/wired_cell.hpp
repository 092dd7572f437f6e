// One experiment run wired by the benchmark itself from the simulator's
// public constructors, in exactly the order core::run_experiment uses
// (src/core/experiment.cpp), so a run through it executes the same events,
// draws the same random numbers and produces the same counts.
//
// Owning the wiring lets the benchmark time what run_experiment cannot
// show from outside: the construction phases (set-up time) and, with
// run_profiled() re-attaching a timing Endpoint in front of every node and
// client, the time each payload kind spends in its handler. Everything
// here only observes the run.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <typeindex>
#include <unordered_map>
#include <vector>

#include "chain/node.hpp"
#include "chain/service.hpp"
#include "core/arrivals.hpp"
#include "core/client.hpp"
#include "core/experiment.hpp"
#include "core/observer.hpp"
#include "core/traffic.hpp"
#include "net/network.hpp"
#include "sim/simulation.hpp"

namespace stabl::perfbench {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point start);

/// Messages, bytes and handler time of one payload kind.
struct KindStats {
  std::uint64_t msgs = 0;
  std::uint64_t bytes = 0;
  double handler_s = 0.0;
};

/// Per-kind aggregates keyed by the payload's dynamic type.
using KindTally = std::unordered_map<std::type_index, KindStats>;

/// The class name of a payload type, demangled and with every namespace
/// stripped: "stabl::redbelly::(anonymous namespace)::EchoPayload" becomes
/// "EchoPayload".
std::string kind_name(std::type_index type);

/// A forwarding Endpoint that times each deliver() of the machine behind
/// it and adds the message to a tally. Aggregates only: no per-message
/// record is kept.
class TimedEndpoint final : public net::Endpoint {
 public:
  TimedEndpoint(net::Endpoint& inner, KindTally& tally)
      : inner_(inner), tally_(tally) {}

  void deliver(const net::Envelope& envelope) override;
  [[nodiscard]] bool endpoint_alive() const override {
    return inner_.endpoint_alive();
  }

 private:
  net::Endpoint& inner_;
  KindTally& tally_;
};

/// Wall time of the construction phases of one run, in seconds.
struct SetupTimes {
  double make_cluster_s = 0.0;  ///< ChainTraits::make_cluster
  double start_s = 0.0;         ///< start() of every node and client
  double total_s = 0.0;         ///< everything before the first event
};

/// The counts a traced run must share with run_experiment's result.
struct RunCounts {
  std::uint64_t events = 0;
  std::uint64_t submitted = 0;
  std::uint64_t committed = 0;
  net::NetworkStats net{};
};

RunCounts counts_of(const core::ExperimentResult& result);
bool same_counts(const RunCounts& a, const RunCounts& b);
std::string describe(const RunCounts& counts);

/// Depths sampled between run_until slices, and the handler tallies.
struct CellProfile {
  RunCounts counts;
  double run_s = 0.0;  ///< wall time of the event loop alone
  std::size_t pending_events_peak = 0;
  std::size_t mempool_depth_peak = 0;
  std::size_t in_flight_peak = 0;
  KindTally node_kinds;    ///< deliveries to blockchain nodes
  KindTally client_kinds;  ///< deliveries to client machines
};

class WiredCell {
 public:
  /// Builds and starts the cluster, clients, fault observers and chain
  /// services for `config`. The workloads set no legacy ChainTuning knob,
  /// so the chain parameters are the registered defaults merged with
  /// config.chain_params. Trace, metrics and lifecycle sinks are ignored.
  WiredCell(const core::ExperimentConfig& config, SetupTimes* times);

  WiredCell(const WiredCell&) = delete;
  WiredCell& operator=(const WiredCell&) = delete;

  /// Runs the whole experiment with every node and client behind a
  /// TimedEndpoint, advancing the clock in `slice` steps and sampling
  /// queue, mempool and in-flight depth after each step. Slicing does not
  /// change the run: Simulation::run_until only moves the clock to the
  /// deadline once no event at or before it is left.
  CellProfile run_profiled(sim::Duration slice);

 private:
  core::ExperimentConfig config_;
  sim::Simulation simulation_;
  net::Network network_;
  std::vector<std::unique_ptr<chain::BlockchainNode>> nodes_;
  std::vector<chain::BlockchainNode*> node_ptrs_;
  std::optional<core::ArrivalScheduler> arrivals_;
  std::optional<core::TrafficModel> traffic_model_;
  std::vector<std::unique_ptr<core::ClientMachine>> clients_;
  std::optional<core::Observers> observers_;
  std::vector<std::unique_ptr<chain::ChainService>> services_;
};

}  // namespace stabl::perfbench
