#include "wired_cell.hpp"

#include <cxxabi.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>
#include <typeinfo>

#include "chain/hash.hpp"
#include "chain/registry.hpp"

namespace stabl::perfbench {

double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string kind_name(std::type_index type) {
  int status = 0;
  char* demangled =
      abi::__cxa_demangle(type.name(), nullptr, nullptr, &status);
  std::string name = status == 0 && demangled != nullptr ? demangled
                                                         : type.name();
  std::free(demangled);
  const std::size_t colon = name.rfind("::");
  return colon == std::string::npos ? name : name.substr(colon + 2);
}

void TimedEndpoint::deliver(const net::Envelope& envelope) {
  const Clock::time_point start = Clock::now();
  inner_.deliver(envelope);
  const double spent = seconds_since(start);
  const net::Payload* payload = envelope.payload.get();
  KindStats& stats =
      tally_[payload != nullptr ? std::type_index(typeid(*payload))
                                : std::type_index(typeid(void))];
  ++stats.msgs;
  stats.bytes += envelope.bytes;
  stats.handler_s += spent;
}

RunCounts counts_of(const core::ExperimentResult& result) {
  return {result.events, result.submitted, result.committed,
          result.net_stats};
}

bool same_counts(const RunCounts& a, const RunCounts& b) {
  return a.events == b.events && a.submitted == b.submitted &&
         a.committed == b.committed && a.net.sent == b.net.sent &&
         a.net.delivered == b.net.delivered &&
         a.net.dropped_partition == b.net.dropped_partition &&
         a.net.dropped_loss == b.net.dropped_loss &&
         a.net.dropped_dead == b.net.dropped_dead &&
         a.net.throttled == b.net.throttled &&
         a.net.rst_sent == b.net.rst_sent;
}

std::string describe(const RunCounts& c) {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "events %llu submitted %llu committed %llu sent %llu "
                "delivered %llu dropped %llu/%llu/%llu throttled %llu "
                "rst %llu",
                static_cast<unsigned long long>(c.events),
                static_cast<unsigned long long>(c.submitted),
                static_cast<unsigned long long>(c.committed),
                static_cast<unsigned long long>(c.net.sent),
                static_cast<unsigned long long>(c.net.delivered),
                static_cast<unsigned long long>(c.net.dropped_partition),
                static_cast<unsigned long long>(c.net.dropped_loss),
                static_cast<unsigned long long>(c.net.dropped_dead),
                static_cast<unsigned long long>(c.net.throttled),
                static_cast<unsigned long long>(c.net.rst_sent));
  return buf;
}

WiredCell::WiredCell(const core::ExperimentConfig& config, SetupTimes* times)
    : config_(config),
      simulation_(config.seed),
      network_(simulation_, net::LatencyConfig{}) {
  const Clock::time_point setup_start = Clock::now();
  simulation_.reserve_events(16 * config_.n + 4 * config_.clients + 64);

  const chain::ChainTraits& traits = core::chain_traits(config_.chain);
  const chain::ChainParams params =
      chain::merge_params(traits, config_.chain_params);
  chain::NodeConfig node_config;
  node_config.n = config_.n;
  node_config.vcpus = config_.vcpus;
  node_config.network_seed = chain::mix64(config_.seed);
  Clock::time_point phase = Clock::now();
  nodes_ = traits.make_cluster(simulation_, network_, node_config, params);
  if (nodes_.size() != config_.n) {
    throw std::logic_error("make_cluster built the wrong number of nodes");
  }
  const double make_cluster_s = seconds_since(phase);
  phase = Clock::now();
  for (auto& node : nodes_) node->start();
  double start_s = seconds_since(phase);

  // Clients, traffic population and region delays exactly as
  // run_experiment sets them up.
  const std::size_t entry_nodes = std::min(config_.clients, config_.n);
  arrivals_.emplace(simulation_);
  traffic_model_.emplace(config_.traffic);
  if (config_.traffic.active() && config_.traffic.regions > 1 &&
      config_.traffic.region_spread.count() > 0) {
    std::vector<net::NodeId> cluster;
    for (std::size_t k = 0; k < config_.n; ++k) {
      cluster.push_back(static_cast<net::NodeId>(k));
    }
    for (std::size_t r = 1; r < config_.traffic.regions; ++r) {
      std::vector<net::NodeId> region_clients;
      for (std::size_t i = r; i < config_.clients;
           i += config_.traffic.regions) {
        region_clients.push_back(static_cast<net::NodeId>(config_.n + i));
      }
      if (region_clients.empty()) continue;
      const sim::Duration extra{
          config_.traffic.region_spread.count() *
          static_cast<std::int64_t>(r) /
          static_cast<std::int64_t>(config_.traffic.regions - 1)};
      network_.add_delay(std::move(region_clients), cluster, extra);
    }
  }
  for (std::size_t i = 0; i < config_.clients; ++i) {
    core::ClientConfig client_config;
    client_config.id = static_cast<net::NodeId>(config_.n + i);
    client_config.account = static_cast<chain::AccountId>(i);
    client_config.recipient = static_cast<chain::AccountId>(1000 + i);
    client_config.tps = config_.tps_per_client;
    client_config.workload = config_.workload;
    client_config.required_matching = config_.client_matching;
    client_config.stop_at = config_.duration;
    client_config.tx_seed = chain::mix64(config_.seed ^ 0xC11E57ull);
    client_config.resilience = config_.resilience;
    client_config.arrivals = &*arrivals_;
    if (config_.traffic.active()) {
      client_config.traffic = core::make_client_plan(
          config_.traffic, *traffic_model_, i, client_config.tx_seed);
    }
    const std::size_t fanout =
        config_.resilience.enabled
            ? entry_nodes
            : static_cast<std::size_t>(std::max(1, config_.client_fanout));
    for (std::size_t k = 0; k < fanout; ++k) {
      client_config.endpoints.push_back(
          static_cast<net::NodeId>((i + k) % entry_nodes));
    }
    clients_.push_back(std::make_unique<core::ClientMachine>(
        simulation_, network_, client_config));
    phase = Clock::now();
    clients_.back()->start();
    start_s += seconds_since(phase);
  }

  for (auto& node : nodes_) node_ptrs_.push_back(node.get());
  std::vector<net::NodeId> client_ids;
  for (std::size_t i = 0; i < config_.clients; ++i) {
    client_ids.push_back(static_cast<net::NodeId>(config_.n + i));
  }
  observers_.emplace(simulation_, network_, node_ptrs_,
                     std::move(client_ids));
  observers_->arm(core::resolved_schedule(config_));

  if (traits.make_services) {
    services_ = traits.make_services(
        simulation_, node_ptrs_,
        static_cast<sim::ProcessId>(config_.n + config_.clients), params);
  }
  for (auto& service : services_) service->start();

  if (times != nullptr) {
    times->make_cluster_s = make_cluster_s;
    times->start_s = start_s;
    times->total_s = seconds_since(setup_start);
  }
}

CellProfile WiredCell::run_profiled(sim::Duration slice) {
  CellProfile profile;
  // Network::attach overwrites the machine's entry, so every delivery now
  // goes through the wrapper first.
  std::vector<std::unique_ptr<TimedEndpoint>> wrappers;
  for (auto& node : nodes_) {
    wrappers.push_back(
        std::make_unique<TimedEndpoint>(*node, profile.node_kinds));
    network_.attach(node->node_id(), wrappers.back().get());
  }
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    wrappers.push_back(
        std::make_unique<TimedEndpoint>(*clients_[i], profile.client_kinds));
    network_.attach(static_cast<net::NodeId>(config_.n + i),
                    wrappers.back().get());
  }

  const Clock::time_point start = Clock::now();
  for (sim::Time until = slice;; until += slice) {
    const sim::Time deadline = std::min<sim::Time>(until, config_.duration);
    simulation_.run_until(deadline);
    profile.pending_events_peak =
        std::max(profile.pending_events_peak, simulation_.pending_events());
    std::size_t mempool = 0;
    for (const auto& node : nodes_) mempool += node->mempool().size();
    profile.mempool_depth_peak =
        std::max(profile.mempool_depth_peak, mempool);
    std::size_t in_flight = 0;
    for (const auto& client : clients_) in_flight += client->in_flight();
    profile.in_flight_peak = std::max(profile.in_flight_peak, in_flight);
    if (deadline >= config_.duration) break;
  }
  profile.run_s = seconds_since(start);

  // Hand the machines back to the network before the wrappers go away.
  for (auto& node : nodes_) network_.attach(node->node_id(), node.get());
  for (std::size_t i = 0; i < clients_.size(); ++i) {
    network_.attach(static_cast<net::NodeId>(config_.n + i),
                    clients_[i].get());
  }

  profile.counts.events = simulation_.events_processed();
  for (const auto& client : clients_) {
    profile.counts.submitted += client->submitted();
    profile.counts.committed += client->committed();
  }
  profile.counts.net = network_.stats();
  return profile;
}

}  // namespace stabl::perfbench
