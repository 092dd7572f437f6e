#include "core/campaign.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <optional>
#include <sstream>

#include "core/chaos.hpp"
#include "core/metrics.hpp"
#include "core/radar.hpp"
#include "core/report.hpp"
#include "core/serialize.hpp"
#include "sim/rng.hpp"

namespace stabl::core {
namespace {

std::string sweep_csv_suffix(const SeedSweepStats& stats) {
  return csv_join({std::to_string(stats.seeds),
                   Table::num(stats.mean, 4), Table::num(stats.min, 4),
                   Table::num(stats.max, 4), Table::num(stats.stddev, 4),
                   std::to_string(stats.liveness_losses)});
}

std::string sweep_json(const SeedSweepStats& stats) {
  std::ostringstream out;
  out << "{\"seeds\":" << stats.seeds << ",\"finite\":" << stats.finite
      << ",\"liveness_losses\":" << stats.liveness_losses
      << ",\"invalid_baseline\":"
      << (stats.any_invalid_baseline ? "true" : "false")
      << ",\"score_mean\":" << Table::num(stats.mean, 6)
      << ",\"score_min\":" << Table::num(stats.min, 6)
      << ",\"score_max\":" << Table::num(stats.max, 6)
      << ",\"score_stddev\":" << Table::num(stats.stddev, 6) << '}';
  return out.str();
}

std::string sweep_cell_text(const SeedSweepStats& stats) {
  if (stats.seeds == stats.liveness_losses) {
    return "inf x" + std::to_string(stats.liveness_losses);
  }
  // ASCII "+-" keeps the fixed-width table aligned (no multi-byte glyphs).
  std::string text = Table::num(stats.mean, 2) + "+-" +
                     Table::num(stats.stddev, 2) + " [" +
                     Table::num(stats.min, 2) + ".." +
                     Table::num(stats.max, 2) + "]";
  if (stats.liveness_losses > 0) {
    text += " inf:" + std::to_string(stats.liveness_losses) + "/" +
            std::to_string(stats.seeds);
  }
  return text;
}

}  // namespace

std::vector<std::uint64_t> consecutive_seeds(std::uint64_t first,
                                             std::size_t count) {
  std::vector<std::uint64_t> seeds{first};
  for (std::size_t i = 1; i < count; ++i) {
    seeds.push_back(first + static_cast<std::uint64_t>(i));
  }
  return seeds;
}

SeedSweepStats aggregate_seed_sweep(const std::vector<SensitivityRun>& runs) {
  SeedSweepStats stats;
  stats.seeds = runs.size();
  double sum = 0.0;
  for (const SensitivityRun& run : runs) {
    if (run.score.invalid_baseline) stats.any_invalid_baseline = true;
    if (run.score.infinite) {
      ++stats.liveness_losses;
      continue;
    }
    if (stats.finite == 0) {
      stats.min = stats.max = run.score.value;
    } else {
      stats.min = std::min(stats.min, run.score.value);
      stats.max = std::max(stats.max, run.score.value);
    }
    ++stats.finite;
    sum += run.score.value;
  }
  if (stats.finite > 0) {
    stats.mean = sum / static_cast<double>(stats.finite);
  }
  if (stats.finite > 1) {
    double sq = 0.0;
    for (const SensitivityRun& run : runs) {
      if (run.score.infinite) continue;
      const double d = run.score.value - stats.mean;
      sq += d * d;
    }
    stats.stddev = std::sqrt(sq / static_cast<double>(stats.finite - 1));
  }
  return stats;
}

const SensitivityRun* CampaignResult::get(ChainKind chain,
                                          FaultType fault) const {
  const auto it = seed_runs.find({chain, fault});
  return it == seed_runs.end() ? nullptr : &it->second.front();
}

const SeedSweepStats* CampaignResult::sweep(ChainKind chain,
                                            FaultType fault) const {
  const auto it = sweeps.find({chain, fault});
  return it == sweeps.end() ? nullptr : &it->second;
}

std::string CampaignResult::radar_table() const {
  return core::radar_table(
      [this](ChainKind chain, FaultType fault) -> std::optional<std::string> {
        const SensitivityRun* run = get(chain, fault);
        if (run == nullptr) return std::nullopt;
        return format_score(run->score);
      });
}

std::string CampaignResult::sweep_table() const {
  return core::radar_table(
      [this](ChainKind chain, FaultType fault) -> std::optional<std::string> {
        const SeedSweepStats* stats = sweep(chain, fault);
        if (stats == nullptr) return std::nullopt;
        return sweep_cell_text(*stats);
      });
}

std::string CampaignResult::to_csv() const {
  std::ostringstream out;
  out << summary_csv_header()
      << ",seeds,score_mean,score_min,score_max,score_stddev,"
         "liveness_losses\n";
  for (const auto& [key, cell_runs] : seed_runs) {
    const SensitivityRun& run = cell_runs.front();
    out << summary_csv_row(key.first, key.second, run);
    const auto it = sweeps.find(key);
    out << ','
        << sweep_csv_suffix(it == sweeps.end()
                                ? aggregate_seed_sweep({run})
                                : it->second)
        << '\n';
  }
  return out.str();
}

std::string CampaignResult::to_json() const {
  std::ostringstream out;
  out << '[';
  bool first = true;
  for (const auto& [key, cell_runs] : seed_runs) {
    const SensitivityRun& run = cell_runs.front();
    if (!first) out << ',';
    first = false;
    std::string doc = stabl::core::to_json(key.first, key.second, run);
    doc.pop_back();  // reopen the cell document to append the aggregate
    out << doc << ",\"seed_sweep\":";
    const auto it = sweeps.find(key);
    out << sweep_json(it == sweeps.end() ? aggregate_seed_sweep({run})
                                         : it->second)
        << '}';
  }
  out << ']';
  return out.str();
}

std::string CampaignResult::timing_table() const {
  Table table({"chain", "fault", "seeds", "total_ms", "mean_ms", "per_seed_ms"});
  double campaign_ms = 0.0;
  for (const auto& [key, wall] : cell_wall_ms) {
    double total = 0.0;
    std::string per_seed;
    for (std::size_t i = 0; i < wall.size(); ++i) {
      total += wall[i];
      if (i > 0) per_seed += ' ';
      per_seed += Table::num(wall[i], 0);
    }
    campaign_ms += total;
    const double mean =
        wall.empty() ? 0.0 : total / static_cast<double>(wall.size());
    table.add_row({to_string(key.first), to_string(key.second),
                   std::to_string(wall.size()), Table::num(total, 0),
                   Table::num(mean, 0), per_seed});
  }
  table.add_row({"total", "-", "-",
                 Table::num(total_wall_ms > 0.0 ? total_wall_ms : campaign_ms,
                            0),
                 "-", "-"});
  return table.to_string();
}

CampaignResult run_campaign(const CampaignConfig& config) {
  const WallTimer campaign_timer;
  const std::vector<std::uint64_t> seeds =
      consecutive_seeds(config.base.seed, config.num_seeds);

  // Cells run concurrently; a sink/registry/recorder shared through base
  // would race. Per-cell tracing goes through stabl_cli's single-run path.
  const ExperimentConfig base = without_observers(config.base);
  std::vector<ExperimentConfig> cells;
  cells.reserve(config.chains.size() * config.faults.size() * seeds.size());
  for (const ChainKind chain : config.chains) {
    for (const FaultType fault : config.faults) {
      for (const std::uint64_t seed : seeds) {
        ExperimentConfig cell = paper_cell(base, fault);
        cell.chain = chain;
        cell.seed = seed;
        cells.push_back(std::move(cell));
      }
    }
  }

  PairOptions options;
  options.jobs = config.jobs;
  options.heartbeat = config.heartbeat;
  options.label = "campaign";
  PairResults pairs = run_pairs(plan_pairs(cells), options);

  CampaignResult result;
  result.seeds = seeds;
  result.experiments = pairs.experiments;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const CampaignResult::CellKey key{cells[i].chain, cells[i].fault};
    result.seed_runs[key].push_back(std::move(pairs.pairs[i]));
    result.cell_wall_ms[key].push_back(pairs.wall_ms[i]);
  }
  for (const auto& [key, cell_runs] : result.seed_runs) {
    result.sweeps.emplace(key, aggregate_seed_sweep(cell_runs));
  }
  result.total_wall_ms = campaign_timer.elapsed_ms();
  return result;
}

std::string sensitivity_panel(const CampaignConfig& config,
                              const CampaignResult& result, FaultType fault,
                              const std::string& title) {
  Table table({"chain", "f", "t", "sensitivity", "benefits", "recovery(s)",
               "committed", "live"});
  for (const ChainKind chain : config.chains) {
    const SensitivityRun& run = result.seed_runs.at({chain, fault}).front();
    ExperimentConfig cell = paper_cell(config.base, fault);
    cell.chain = chain;
    const FaultSchedule schedule = resolved_schedule(cell);
    const std::size_t f =
        schedule.empty() ? 0 : schedule.plans.front().targets.size();
    table.add_row(
        {to_string(chain), std::to_string(f),
         std::to_string(fault_tolerance(chain, config.base.n)),
         format_score(run.score), run.score.benefits ? "yes (striped)" : "-",
         run.altered.recovery_seconds >= 0.0
             ? Table::num(run.altered.recovery_seconds, 1)
             : "-",
         std::to_string(run.altered.committed) + "/" +
             std::to_string(run.altered.submitted),
         run.altered.live_at_end ? "yes" : "NO (inf)"});
  }
  return "\n=== " + title + " ===\n" + table.to_string();
}

std::vector<std::string> check_gate(const CampaignResult& result,
                                    const CampaignGate& gate) {
  std::vector<std::string> violations;
  const auto expects_infinite = [&](ChainKind chain, FaultType fault) {
    for (const auto& [c, f] : gate.expected_infinite) {
      if (c == chain && f == fault) return true;
    }
    return false;
  };
  for (const auto& [key, cell_runs] : result.seed_runs) {
    const SensitivityRun& run = cell_runs.front();
    const auto [chain, fault] = key;
    const std::string name =
        to_string(chain) + "/" + to_string(fault);
    const auto sweep_it = result.sweeps.find(key);
    const SeedSweepStats stats = sweep_it == result.sweeps.end()
                                     ? aggregate_seed_sweep({run})
                                     : sweep_it->second;
    const std::string worst =
        stats.seeds > 1 ? " (worst of " + std::to_string(stats.seeds) +
                              " seeds)"
                        : "";
    if (expects_infinite(chain, fault)) {
      // Gate on the worst seed: every seed must have lost liveness.
      if (stats.finite > 0) {
        violations.push_back(name + ": expected liveness loss, got score " +
                             Table::num(stats.max, 2) + worst);
      }
      continue;
    }
    if (stats.liveness_losses > 0) {
      if (gate.flag_unexpected_liveness_loss) {
        violations.push_back(
            name + ": unexpected liveness loss" +
            (stats.seeds > 1
                 ? " in " + std::to_string(stats.liveness_losses) + "/" +
                       std::to_string(stats.seeds) + " seeds"
                 : ""));
      }
      continue;
    }
    const auto limit = gate.max_score.find(fault);
    if (limit != gate.max_score.end() && stats.finite > 0 &&
        stats.max > limit->second) {
      violations.push_back(name + ": score " + Table::num(stats.max, 2) +
                           worst + " exceeds gate " +
                           Table::num(limit->second, 2));
    }
  }
  return violations;
}

// --------------------------------------------------------------------------
// Mitigation-evaluation campaign.
// --------------------------------------------------------------------------

namespace {

/// Score rendered for the delta table/CSV: number, "inf" or "invalid".
std::string mitigation_score_text(const SensitivityScore& score) {
  if (score.invalid_baseline) return "invalid";
  if (score.infinite) return "inf";
  return Table::num(score.value, 4);
}

/// Delta rendered for the CSV: finite number, "inf" (masked liveness
/// loss) or "-inf" (mitigation introduced one).
std::string mitigation_delta_text(double delta) {
  if (std::isinf(delta)) return delta > 0.0 ? "inf" : "-inf";
  return Table::num(delta, 4);
}

double chain_metric_or_zero(const ExperimentResult& result,
                            const std::string& key) {
  const auto it = result.chain_metrics.find(key);
  return it == result.chain_metrics.end() ? 0.0 : it->second;
}

std::string pair_verdict(const MitigationPair& pair) {
  const double delta = pair.delta();
  if (std::isinf(delta)) return delta > 0.0 ? "masked" : "lost";
  if (pair.unmitigated.score.invalid_baseline ||
      pair.mitigated.score.invalid_baseline) {
    return "invalid";
  }
  if (pair.unmitigated.score.infinite && pair.mitigated.score.infinite) {
    return "both-lost";
  }
  if (delta > 0.0) return "improved";
  if (delta < 0.0) return "regressed";
  return "even";
}

std::string mitigation_fault_text(const MitigationPair& pair) {
  return pair.chaos ? "chaos" : to_string(pair.fault);
}

}  // namespace

double MitigationPair::delta() const {
  if (unmitigated.score.invalid_baseline || mitigated.score.invalid_baseline) {
    return 0.0;
  }
  const bool u_inf = unmitigated.score.infinite;
  const bool m_inf = mitigated.score.infinite;
  if (u_inf && m_inf) return 0.0;
  if (u_inf) return std::numeric_limits<double>::infinity();
  if (m_inf) return -std::numeric_limits<double>::infinity();
  return unmitigated.score.value - mitigated.score.value;
}

bool MitigationPair::improved() const { return delta() > 0.0; }

std::size_t MitigationResult::improvements() const {
  std::size_t count = 0;
  for (const MitigationPair& pair : pairs) {
    if (pair.improved()) ++count;
  }
  return count;
}

std::size_t MitigationResult::regressions() const {
  std::size_t count = 0;
  for (const MitigationPair& pair : pairs) {
    if (pair.delta() < 0.0) ++count;
  }
  return count;
}

std::string MitigationResult::delta_table() const {
  Table table({"chain", "fault", "seed", "mitigated_as", "unmitigated",
               "mitigated", "delta", "verdict"});
  for (const MitigationPair& pair : pairs) {
    table.add_row({to_string(pair.chain), mitigation_fault_text(pair),
                   std::to_string(pair.seed), pair.mitigated_chain,
                   mitigation_score_text(pair.unmitigated.score),
                   mitigation_score_text(pair.mitigated.score),
                   mitigation_delta_text(pair.delta()), pair_verdict(pair)});
  }
  return table.to_string();
}

std::string MitigationResult::delta_csv() const {
  std::ostringstream out;
  out << "chain,fault,seed,chaos_trial,mitigated_chain,unmitigated_score,"
         "mitigated_score,delta,verdict,unmitigated_live,mitigated_live,"
         "failovers,version_failovers,hedges_armed,hedges_won\n";
  for (const MitigationPair& pair : pairs) {
    out << csv_join(
               {to_string(pair.chain), mitigation_fault_text(pair),
                std::to_string(pair.seed),
                pair.chaos ? std::to_string(pair.chaos_trial) : "-",
                pair.mitigated_chain,
                mitigation_score_text(pair.unmitigated.score),
                mitigation_score_text(pair.mitigated.score),
                mitigation_delta_text(pair.delta()), pair_verdict(pair),
                pair.unmitigated.altered.live_at_end ? "1" : "0",
                pair.mitigated.altered.live_at_end ? "1" : "0",
                std::to_string(pair.mitigated.altered.resilience.failovers),
                Table::num(chain_metric_or_zero(pair.mitigated.altered,
                                                "nversion_failovers"),
                           0),
                std::to_string(pair.mitigated.altered.resilience.hedges_armed),
                std::to_string(pair.mitigated.altered.resilience.hedges_won)})
        << '\n';
  }
  return out.str();
}

std::string MitigationResult::to_json() const {
  std::ostringstream out;
  // Every mitigated twin runs the whole stack (mitigated_config).
  out << "{\"layers\":{\"nversion\":true,\"hedging\":true,"
         "\"scoring\":true},\"improvements\":"
      << improvements()
      << ",\"regressions\":" << regressions() << ",\"pairs\":[";
  for (std::size_t i = 0; i < pairs.size(); ++i) {
    const MitigationPair& pair = pairs[i];
    if (i > 0) out << ',';
    const auto score_json = [](const SensitivityScore& score) {
      if (score.invalid_baseline) return std::string("\"invalid\"");
      if (score.infinite) return std::string("\"inf\"");
      return Table::num(score.value, 6);
    };
    const double delta = pair.delta();
    out << "{\"chain\":\"" << json_escape(to_string(pair.chain))
        << "\",\"fault\":\"" << json_escape(mitigation_fault_text(pair))
        << "\",\"chaos\":" << (pair.chaos ? "true" : "false");
    if (pair.chaos) {
      out << ",\"chaos_trial\":" << pair.chaos_trial
          << ",\"schedule\":" << schedule_to_json(pair.schedule);
    }
    out << ",\"seed\":" << pair.seed << ",\"mitigated_chain\":\""
        << json_escape(pair.mitigated_chain)
        << "\",\"unmitigated_score\":" << score_json(pair.unmitigated.score)
        << ",\"mitigated_score\":" << score_json(pair.mitigated.score)
        << ",\"delta\":"
        << (std::isinf(delta)
                ? std::string(delta > 0.0 ? "\"inf\"" : "\"-inf\"")
                : Table::num(delta, 6))
        << ",\"verdict\":\"" << pair_verdict(pair)
        << "\",\"unmitigated_live\":"
        << (pair.unmitigated.altered.live_at_end ? "true" : "false")
        << ",\"mitigated_live\":"
        << (pair.mitigated.altered.live_at_end ? "true" : "false")
        << ",\"failovers\":" << pair.mitigated.altered.resilience.failovers
        << ",\"version_failovers\":"
        << Table::num(chain_metric_or_zero(pair.mitigated.altered,
                                           "nversion_failovers"),
                      0)
        << ",\"hedges_armed\":"
        << pair.mitigated.altered.resilience.hedges_armed
        << ",\"hedges_won\":" << pair.mitigated.altered.resilience.hedges_won
        << '}';
  }
  out << "]}";
  return out.str();
}

ExperimentConfig mitigated_config(const ExperimentConfig& cell) {
  ExperimentConfig mitigated = cell;
  // The derived chain's default_params are a strict superset of the base
  // chain's, so any chain_params overrides carry over unchanged.
  mitigated.chain = parse_chain_name("nversion_" + to_string(cell.chain));
  mitigated.resilience.enabled = true;
  mitigated.resilience.hedge.enabled = true;
  mitigated.resilience.score.enabled = true;
  return mitigated;
}

MitigationResult run_mitigation_campaign(const MitigationConfig& config) {
  const std::vector<std::uint64_t> seeds =
      consecutive_seeds(config.base.seed, config.num_seeds);

  struct PairCell {
    ChainKind chain;
    FaultType fault;
    bool chaos;
    std::size_t chaos_trial;
    std::uint64_t seed;
    FaultSchedule schedule;
  };
  std::vector<PairCell> grid;
  grid.reserve(config.chains.size() *
                   (config.faults.size() * seeds.size() + config.chaos_pairs));
  for (const ChainKind chain : config.chains) {
    for (const FaultType fault : config.faults) {
      for (const std::uint64_t seed : seeds) {
        grid.push_back({chain, fault, false, 0, seed, {}});
      }
    }
  }
  if (config.chaos_pairs > 0) {
    // Chaos pairs reuse the chaos campaign's stream discipline: trial k of
    // chain c draws its experiment seed and schedule from
    // root.derive(c * 1'000'003 + k), so the same (seed, chain) always
    // yields the same paired schedule regardless of jobs or chain order.
    const ChaosGenConfig gen = adversarial_gen_for(config.base.duration);
    const sim::Rng root(config.base.seed);
    for (const ChainKind chain : config.chains) {
      for (std::size_t k = 0; k < config.chaos_pairs; ++k) {
        const std::uint64_t stream =
            static_cast<std::uint64_t>(chain) * 1'000'003ull +
            static_cast<std::uint64_t>(k);
        sim::Rng rng = root.derive(stream);
        const std::uint64_t experiment_seed = rng.next_u64();
        grid.push_back({chain, FaultType::kNone, true, k, experiment_seed,
                        generate_schedule(rng, gen)});
      }
    }
  }

  // Pairs run concurrently; a sink/registry/recorder shared through base
  // would race. Observability goes through stabl_cli's single-run path.
  // Each grid pair contributes its unmitigated, then its mitigated config.
  const ExperimentConfig base = without_observers(config.base);
  std::vector<ExperimentConfig> twins;
  twins.reserve(2 * grid.size());
  for (const PairCell& cell : grid) {
    ExperimentConfig unmitigated = paper_cell(base, cell.fault);
    unmitigated.chain = cell.chain;
    unmitigated.seed = cell.seed;
    if (cell.chaos) unmitigated.fault_schedule = cell.schedule;
    ExperimentConfig mitigated = mitigated_config(unmitigated);
    twins.push_back(std::move(unmitigated));
    twins.push_back(std::move(mitigated));
  }

  PairOptions options;
  options.jobs = config.jobs;
  options.heartbeat = config.heartbeat;
  options.label = "mitigation";
  PairResults runs = run_pairs(plan_pairs(twins), options);

  MitigationResult result;
  result.experiments = runs.experiments;
  result.pairs.reserve(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    const PairCell& cell = grid[i];
    MitigationPair pair;
    pair.chain = cell.chain;
    pair.fault = cell.fault;
    pair.chaos = cell.chaos;
    pair.chaos_trial = cell.chaos_trial;
    pair.seed = cell.seed;
    pair.mitigated_chain = to_string(twins[2 * i + 1].chain);
    pair.schedule = cell.schedule;
    pair.unmitigated = std::move(runs.pairs[2 * i]);
    pair.mitigated = std::move(runs.pairs[2 * i + 1]);
    result.pairs.push_back(std::move(pair));
  }
  return result;
}

}  // namespace stabl::core
