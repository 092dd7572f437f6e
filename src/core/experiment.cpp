#include "core/experiment.hpp"

#include <algorithm>
#include <cassert>
#include <memory>
#include <stdexcept>

#include "chains/algorand/algorand.hpp"
#include "chains/aptos/aptos.hpp"
#include "chains/avalanche/avalanche.hpp"
#include "chains/nversion/nversion.hpp"
#include "chains/redbelly/redbelly.hpp"
#include "chains/solana/solana.hpp"
#include "core/arrivals.hpp"
#include "core/client.hpp"
#include "core/metrics.hpp"
#include "core/observer.hpp"
#include "core/parallel.hpp"
#include "core/throughput.hpp"
#include "core/trace.hpp"
#include "chain/hash.hpp"
#include "sim/lifecycle.hpp"

namespace stabl::core {
namespace {

/// The merged parameter map the cluster factory and any chain services
/// see: declared defaults with the config's overrides on top.
chain::ChainParams merged_chain_params(const ExperimentConfig& config) {
  return chain::merge_params(chain_traits(config.chain), config.chain_params);
}

std::vector<std::unique_ptr<chain::BlockchainNode>> make_chain_nodes(
    const ExperimentConfig& config, sim::Simulation& simulation,
    net::Network& network) {
  chain::NodeConfig node_config;
  node_config.n = config.n;
  node_config.vcpus = config.vcpus;
  node_config.network_seed = chain::mix64(config.seed);
  const chain::ChainTraits& traits = chain_traits(config.chain);
  return traits.make_cluster(simulation, network, node_config,
                             merged_chain_params(config));
}

/// Paper default fault size: t for crash-style faults, t+1 for the
/// transient/network conditions ("one more failure than tolerated").
std::size_t default_fault_count(FaultType fault, std::size_t t) {
  switch (fault) {
    case FaultType::kCrash:
    case FaultType::kChurn:
      return t;
    // Adversarial coalition within tolerance: the interesting question is
    // whether t compromised nodes can break safety, not whether t+1 can.
    case FaultType::kEquivocate:
    case FaultType::kWithhold:
      return t;
    case FaultType::kTransient:
    case FaultType::kPartition:
    case FaultType::kDelay:
    case FaultType::kLoss:
    case FaultType::kThrottle:
    case FaultType::kGray:
      return t + 1;
    // Eclipse: t+1 attackers suffice to dominate the victim's view.
    case FaultType::kEclipse:
      return t + 1;
    case FaultType::kNone:
    case FaultType::kSecureClient:
      return 0;
  }
  return 0;
}

/// Default targets for a plan: f nodes starting right after the entry
/// nodes, "this way, faulty nodes never receive transactions they would
/// otherwise lose" (paper §3).
std::vector<net::NodeId> default_targets(std::size_t f,
                                         std::size_t entry_nodes) {
  std::vector<net::NodeId> targets;
  targets.reserve(f);
  for (std::size_t k = 0; k < f; ++k) {
    targets.push_back(static_cast<net::NodeId>(entry_nodes + k));
  }
  return targets;
}

}  // namespace

const chain::Registry& chain_registry() {
  static const chain::Registry& registry = [] () -> const chain::Registry& {
    algorand::ensure_registered();
    aptos::ensure_registered();
    avalanche::ensure_registered();
    redbelly::ensure_registered();
    solana::ensure_registered();
    nversion::ensure_registered();
    return chain::Registry::global();
  }();
  return registry;
}

const chain::ChainTraits& chain_traits(ChainKind chain) {
  return chain_registry().traits(chain_id(chain));
}

ChainKind parse_chain_name(std::string_view name) {
  return chain_kind(chain_registry().id_of(name));
}

std::string to_string(ChainKind chain) {
  return chain_traits(chain).name;
}

std::size_t fault_tolerance(ChainKind chain, std::size_t n) {
  return chain_traits(chain).fault_tolerance(n);
}

void apply_run_window(ExperimentConfig& config, std::int64_t duration_s) {
  config.duration = sim::sec(duration_s);
  config.inject_at = sim::sec(duration_s / 3);
  config.recover_at = sim::sec(2 * duration_s / 3);
}

FaultPlan paper_plan(const ExperimentConfig& config) {
  FaultPlan plan;
  plan.type = config.fault;
  plan.inject_at = config.inject_at;
  plan.recover_at = config.recover_at;
  return plan;
}

void apply_secure_client_geometry(ExperimentConfig& config) {
  if (config.fault == FaultType::kSecureClient && config.client_fanout == 1) {
    config.client_fanout = 4;
    config.vcpus = 8.0;
  }
}

ExperimentConfig paper_cell(ExperimentConfig base, FaultType fault) {
  base.fault = fault;
  if (!base.fault_schedule.empty()) {
    base.fault_schedule.plans.front().type = fault;
  }
  apply_secure_client_geometry(base);
  return base;
}

FaultSchedule resolved_schedule(const ExperimentConfig& config) {
  const std::size_t entry_nodes = std::min(config.clients, config.n);
  const std::size_t t = fault_tolerance(config.chain, config.n);
  FaultSchedule plans = config.fault_schedule;
  if (plans.empty()) plans.add(paper_plan(config));
  FaultSchedule schedule;
  for (FaultPlan& plan : plans.plans) {
    if (plan.targets.empty()) {
      plan.targets =
          default_targets(default_fault_count(plan.type, t), entry_nodes);
    }
    if (plan.type == FaultType::kNone ||
        plan.type == FaultType::kSecureClient || plan.targets.empty()) {
      continue;
    }
    schedule.add(std::move(plan));
  }
  return schedule;
}

std::vector<ReplicaSnapshot> snapshot_replicas(
    const std::vector<chain::BlockchainNode*>& nodes) {
  std::vector<ReplicaSnapshot> snapshots;
  snapshots.reserve(nodes.size());
  for (const chain::BlockchainNode* node : nodes) {
    ReplicaSnapshot snapshot;
    snapshot.id = node->node_id();
    snapshot.alive_at_end = node->alive();
    snapshot.restarts = node->restarts();
    const chain::Ledger& ledger = node->ledger();
    snapshot.ledger_hash = ledger.content_hash();
    snapshot.blocks.reserve(ledger.blocks().size());
    for (const chain::Block& block : ledger.blocks()) {
      BlockSummary summary;
      summary.height = block.height;
      summary.round = block.round;
      summary.committed_at_s = sim::to_seconds(block.committed_at);
      summary.txs.reserve(block.txs.size());
      for (const chain::Transaction& tx : block.txs) {
        summary.txs.push_back(tx.id);
      }
      snapshot.blocks.push_back(std::move(summary));
    }
    snapshots.push_back(std::move(snapshot));
  }
  return snapshots;
}

ExperimentResult run_experiment(const ExperimentConfig& config) {
  sim::Simulation simulation(config.seed);
  if (config.trace != nullptr) {
    name_cluster_tracks(*config.trace, config.n, config.clients);
    simulation.set_trace(config.trace);
  }
  if (config.lifecycle != nullptr) {
    // Pre-size for the expected submission volume so recording never
    // reallocates on the hot path.
    config.lifecycle->reserve(static_cast<std::size_t>(
        static_cast<double>(config.clients) * config.tps_per_client *
        sim::to_seconds(config.duration)));
    simulation.set_lifecycle(config.lifecycle);
  }
  net::Network network(simulation, net::LatencyConfig{});

  // Size the event pool for the steady state up front: every node keeps a
  // handful of timers in flight (pacemakers, rebroadcast, per-message
  // deliveries fan out with the cluster), so one reservation here spares
  // the queue its growth reallocations during the run.
  simulation.reserve_events(16 * config.n + 4 * config.clients + 64);

  auto nodes = make_chain_nodes(config, simulation, network);
  assert(nodes.size() == config.n);
  for (auto& node : nodes) node->start();

  // Clients attach to nodes 0..clients-1, which are never faulted. All
  // clients enrol in one batched arrival scheduler: clients sharing an
  // entry node and workload shape ride a single aggregate arrival process
  // instead of one timer chain each.
  const std::size_t entry_nodes = std::min(config.clients, config.n);
  ArrivalScheduler arrivals(simulation, config.metrics);
  // The traffic model's shared state (the hot wallet's global nonce
  // sequencer) and the multi-region latency map. Region r's clients sit
  // r/(regions-1) of the configured spread away from the whole cluster —
  // permanent delay rules, installed before anything runs, so they stack
  // deterministically under whatever fault rules arrive later.
  TrafficModel traffic_model(config.traffic);
  if (config.traffic.active() && config.traffic.regions > 1 &&
      config.traffic.region_spread.count() > 0) {
    std::vector<net::NodeId> cluster;
    cluster.reserve(config.n);
    for (std::size_t k = 0; k < config.n; ++k) {
      cluster.push_back(static_cast<net::NodeId>(k));
    }
    for (std::size_t r = 1; r < config.traffic.regions; ++r) {
      std::vector<net::NodeId> region_clients;
      for (std::size_t i = r; i < config.clients;
           i += config.traffic.regions) {
        region_clients.push_back(static_cast<net::NodeId>(config.n + i));
      }
      const sim::Duration extra{
          config.traffic.region_spread.count() *
          static_cast<std::int64_t>(r) /
          static_cast<std::int64_t>(config.traffic.regions - 1)};
      // A spread under regions - 1 us rounds the nearest regions to zero
      // extra latency, which add_delay rejects; they need no rule.
      if (region_clients.empty() || extra == sim::Duration::zero()) continue;
      network.add_delay(std::move(region_clients), cluster, extra);
    }
  }
  std::vector<std::unique_ptr<ClientMachine>> clients;
  clients.reserve(config.clients);
  for (std::size_t i = 0; i < config.clients; ++i) {
    ClientConfig client_config;
    client_config.id = static_cast<net::NodeId>(config.n + i);
    client_config.account = static_cast<chain::AccountId>(i);
    client_config.recipient =
        static_cast<chain::AccountId>(1000 + i);  // sink account
    client_config.tps = config.tps_per_client;
    client_config.workload = config.workload;
    client_config.required_matching = config.client_matching;
    client_config.stop_at = config.duration;
    client_config.tx_seed = chain::mix64(config.seed ^ 0xC11E57ull);
    client_config.resilience = config.resilience;
    client_config.arrivals = &arrivals;
    if (config.traffic.active()) {
      client_config.traffic = make_client_plan(
          config.traffic, traffic_model, i, client_config.tx_seed);
    }
    // Resilient clients fail over across every entry node (rotated so
    // client i starts on its paper-default endpoint); naive/secure clients
    // submit to `fanout` endpoints in parallel.
    const std::size_t fanout =
        config.resilience.enabled
            ? entry_nodes
            : static_cast<std::size_t>(std::max(1, config.client_fanout));
    for (std::size_t k = 0; k < fanout; ++k) {
      client_config.endpoints.push_back(
          static_cast<net::NodeId>((i + k) % entry_nodes));
    }
    clients.push_back(std::make_unique<ClientMachine>(simulation, network,
                                                      client_config));
    clients.back()->start();
  }

  // Observers inject the faults on nodes that take no client traffic. The
  // client machine ids are handed over so that netfilter-style rules also
  // cover client RPC links to the targets, as tc/netem would.
  std::vector<chain::BlockchainNode*> node_ptrs;
  node_ptrs.reserve(nodes.size());
  for (auto& node : nodes) node_ptrs.push_back(node.get());
  std::vector<net::NodeId> client_ids;
  client_ids.reserve(clients.size());
  for (std::size_t i = 0; i < config.clients; ++i) {
    client_ids.push_back(static_cast<net::NodeId>(config.n + i));
  }
  Observers observers(simulation, network, node_ptrs,
                      std::move(client_ids));
  observers.arm(resolved_schedule(config));

  // Chain-scoped services (e.g. the nversion failover monitors) run next
  // to the cluster, with ProcessIds continuing after the clients'. Most
  // chains declare none, and this costs nothing.
  std::vector<std::unique_ptr<chain::ChainService>> services;
  {
    const chain::ChainTraits& traits = chain_traits(config.chain);
    if (traits.make_services) {
      services = traits.make_services(
          simulation, node_ptrs,
          static_cast<sim::ProcessId>(config.n + config.clients),
          merged_chain_params(config));
    }
  }
  for (auto& service : services) service->start();

  // Metrics ride the clock-observer hook, never the event queue, so a
  // sampled run executes exactly the same events as an unsampled one.
  std::optional<MetricsTicker> ticker;
  if (config.metrics != nullptr) {
    MetricsRegistry& registry = *config.metrics;
    registry.add_gauge("mempool_depth", [&node_ptrs] {
      double depth = 0.0;
      for (const chain::BlockchainNode* node : node_ptrs) {
        depth += static_cast<double>(node->mempool().size());
      }
      return depth;
    });
    registry.add_gauge("height", [&node_ptrs] {
      return static_cast<double>(node_ptrs.front()->ledger().height());
    });
    registry.add_gauge("pending_events", [&simulation] {
      return static_cast<double>(simulation.pending_events());
    });
    registry.add_counter("net_sent", [&network] {
      return static_cast<double>(network.stats().sent);
    });
    registry.add_counter("net_delivered", [&network] {
      return static_cast<double>(network.stats().delivered);
    });
    registry.add_counter("net_dropped", [&network] {
      const net::NetworkStats& s = network.stats();
      return static_cast<double>(s.dropped_partition + s.dropped_loss +
                                 s.dropped_dead);
    });
    registry.add_gauge("client_in_flight", [&clients] {
      double in_flight = 0.0;
      for (const auto& client : clients) {
        in_flight += static_cast<double>(client->in_flight());
      }
      return in_flight;
    });
    registry.add_counter("client_committed", [&clients] {
      double committed = 0.0;
      for (const auto& client : clients) {
        committed += static_cast<double>(client->committed());
      }
      return committed;
    });
    registry.add_gauge("breakers_open", [&clients] {
      double open = 0.0;
      for (const auto& client : clients) {
        open += static_cast<double>(client->open_breakers());
      }
      return open;
    });
    // Mitigation-layer probes are only registered when the layer is on,
    // so pre-existing --metrics outputs stay byte-identical.
    if (config.resilience.enabled && config.resilience.hedge.enabled) {
      registry.add_counter("hedges_armed", [&clients] {
        double armed = 0.0;
        for (const auto& client : clients) {
          armed += static_cast<double>(client->resilience_stats().hedges_armed);
        }
        return armed;
      });
      registry.add_counter("hedges_won", [&clients] {
        double won = 0.0;
        for (const auto& client : clients) {
          won += static_cast<double>(client->resilience_stats().hedges_won);
        }
        return won;
      });
      registry.add_counter("hedges_cancelled", [&clients] {
        double cancelled = 0.0;
        for (const auto& client : clients) {
          cancelled +=
              static_cast<double>(client->resilience_stats().hedges_cancelled);
        }
        return cancelled;
      });
    }
    if (config.resilience.enabled && config.resilience.score.enabled) {
      // Score trajectory of the first client's endpoints: one gauge per
      // endpoint, sampled on the shared metrics grid.
      for (std::size_t k = 0; k < entry_nodes; ++k) {
        registry.add_gauge("endpoint_score_" + std::to_string(k),
                           [&clients, k] {
                             return clients.front()->endpoint_score(k);
                           });
      }
    }
    ticker.emplace(registry, config.metrics_period, config.trace);
    simulation.set_time_observer(&*ticker);
  }

  simulation.run_until(config.duration);

  // Harvest results.
  ExperimentResult result;
  for (const auto& client : clients) {
    result.submitted += client->submitted();
    result.committed += client->committed();
    result.resilience += client->resilience_stats();
    result.in_flight_at_end += client->in_flight();
    result.latencies.insert(result.latencies.end(),
                            client->latencies().begin(),
                            client->latencies().end());
  }
  const chain::Ledger& ledger = nodes.front()->ledger();
  result.blocks = ledger.height();
  ThroughputSeries series(ledger, config.duration);
  result.throughput = series.bins();

  // Liveness: a transaction-carrying block within the final window
  // (45 s for the paper's 400 s runs; proportionally less for short runs).
  sim::Time last_tx_commit{0};
  for (const chain::Block& block : ledger.blocks()) {
    if (!block.txs.empty()) last_tx_commit = block.committed_at;
  }
  const sim::Duration window = std::min(sim::sec(45), config.duration / 8);
  result.live_at_end =
      result.committed > 0 && last_tx_commit >= config.duration - window;

  if (uses_recovery_window(config.fault)) {
    result.recovery_seconds = recovery_seconds(
        series, sim::to_seconds(config.recover_at),
        0.5 * config.tps_per_client * static_cast<double>(config.clients),
        /*window_s=*/3.0);
  }

  if (!result.latencies.empty()) {
    Ecdf ecdf(result.latencies);
    result.mean_latency_s = ecdf.mean();
    result.p50_latency_s = ecdf.quantile(0.5);
    result.p99_latency_s = ecdf.quantile(0.99);
  }
  result.events = simulation.events_processed();
  result.net_stats = network.stats();
  for (const auto& node : nodes) {
    for (const auto& [key, value] : node->metrics()) {
      result.chain_metrics[key] += value;
    }
    // Base-node adversarial counters (equivocations sent, misbehavior
    // reports/bans, ...). Zero values are elided so benign-run reports
    // stay byte-identical to builds that predate the adversarial family.
    for (const auto& [key, value] : node->adversarial_metrics()) {
      if (value != 0.0) result.chain_metrics[key] += value;
    }
  }
  // Service counters (failovers, heartbeat misses) use the same
  // elide-when-zero discipline as the adversarial metrics.
  for (const auto& service : services) {
    for (const auto& [key, value] : service->metrics()) {
      if (value != 0.0) result.chain_metrics[key] += value;
    }
  }
  if (config.capture_replicas) {
    result.replicas = snapshot_replicas(node_ptrs);
    for (const auto& client : clients) {
      result.submitted_ids.insert(result.submitted_ids.end(),
                                  client->submitted_ids().begin(),
                                  client->submitted_ids().end());
    }
  }
  if (config.metrics != nullptr) {
    Histogram& latency = config.metrics->histogram(
        "commit_latency_s",
        {0.25, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0});
    for (const double l : result.latencies) latency.observe(l);
    // The registry outlives this simulation; its probes must not.
    config.metrics->detach_probes();
  }
  return result;
}

ExperimentConfig baseline_of(const ExperimentConfig& altered_config) {
  ExperimentConfig baseline_config = altered_config;
  baseline_config.fault = FaultType::kNone;
  baseline_config.fault_schedule.plans.clear();
  baseline_config.client_fanout = 1;
  // A single-endpoint client can never collect k > 1 matching answers, so
  // the twin waits for its one endpoint like the paper's naive client.
  baseline_config.client_matching = 0;
  // With the traffic model active, the pairing question changes from "how
  // does the fault compare to a pristine lab run" to "what does the fault
  // cost under the SAME production traffic" — the baseline keeps the
  // shape and population so the score isolates the fault, not the burst.
  if (!altered_config.traffic.active()) {
    baseline_config.workload.shape = WorkloadShape::kConstant;
  }
  // The timeline of interest is the faulted run; tracing the pristine
  // baseline too would interleave two runs in one sink. The same holds
  // for the lifecycle recorder — the attribution layer, which needs both
  // twins recorded, attaches one recorder per run itself.
  return without_observers(std::move(baseline_config));
}

ExperimentConfig without_observers(ExperimentConfig config) {
  config.trace = nullptr;
  config.metrics = nullptr;
  config.lifecycle = nullptr;
  return config;
}

bool same_experiment(const ExperimentConfig& a, const ExperimentConfig& b) {
  return without_observers(a) == without_observers(b);
}

PairPlan plan_pairs(const std::vector<ExperimentConfig>& altered_configs) {
  PairPlan plan;
  // Equal configs share chain and seed, so only runs under the same pair
  // of values need comparing: large seed sweeps stay linear.
  std::map<std::pair<ChainKind, std::uint64_t>, std::vector<std::size_t>>
      by_chain_seed;
  const auto index_of = [&](const ExperimentConfig& config) {
    std::vector<std::size_t>& candidates =
        by_chain_seed[{config.chain, config.seed}];
    for (const std::size_t run : candidates) {
      if (same_experiment(plan.runs[run], config)) return run;
    }
    candidates.push_back(plan.runs.size());
    plan.runs.push_back(config);
    return plan.runs.size() - 1;
  };
  for (const ExperimentConfig& altered : altered_configs) {
    plan.baseline.push_back(index_of(baseline_of(altered)));
    const std::size_t run = index_of(altered);
    ExperimentConfig& config = plan.runs[run];
    if (config.trace == nullptr && config.metrics == nullptr &&
        config.lifecycle == nullptr) {
      config.trace = altered.trace;
      config.metrics = altered.metrics;
      config.lifecycle = altered.lifecycle;
    }
    plan.altered.push_back(run);
  }
  return plan;
}

PairResults run_pairs(const PairPlan& plan, const PairOptions& options) {
  const std::size_t count = plan.runs.size();
  std::vector<ExperimentResult> results(count);
  std::vector<double> run_wall_ms(count, 0.0);
  // No barrier between twins and faulted runs: a pair needs its twin only
  // to be scored, after the fan-out. Each run writes only its own slot.
  Heartbeat heartbeat(options.label, count, options.heartbeat);
  ThreadPool pool(options.jobs);
  pool.parallel_for(count, [&](std::size_t run) {
    const WallTimer timer;
    results[run] = options.run_one ? options.run_one(plan.runs[run], run)
                                   : run_experiment(plan.runs[run]);
    run_wall_ms[run] = timer.elapsed_ms();
    heartbeat.tick();
  });

  std::vector<std::size_t> uses(count, 0);
  for (std::size_t i = 0; i < plan.altered.size(); ++i) {
    ++uses[plan.baseline[i]];
    ++uses[plan.altered[i]];
  }
  std::vector<std::size_t> left = uses;
  const auto take = [&](std::size_t run) -> ExperimentResult {
    if (--left[run] == 0) return std::move(results[run]);
    return results[run];
  };
  const auto share_ms = [&](std::size_t run) {
    return run_wall_ms[run] / static_cast<double>(uses[run]);
  };
  PairResults out;
  out.experiments = count;
  out.pairs.reserve(plan.altered.size());
  out.wall_ms.reserve(plan.altered.size());
  for (std::size_t i = 0; i < plan.altered.size(); ++i) {
    SensitivityRun pair;
    pair.baseline = take(plan.baseline[i]);
    pair.altered = take(plan.altered[i]);
    pair.score = sensitivity(pair.baseline.latencies, pair.altered.latencies,
                             pair.altered.live_at_end);
    out.pairs.push_back(std::move(pair));
    out.wall_ms.push_back(share_ms(plan.baseline[i]) +
                          share_ms(plan.altered[i]));
  }
  return out;
}

SensitivityRun run_sensitivity(const ExperimentConfig& altered_config) {
  return std::move(run_pairs(plan_pairs({altered_config})).pairs.front());
}

}  // namespace stabl::core
