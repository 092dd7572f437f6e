// End-to-end reproduction checks of the paper's headline results, at the
// paper's full geometry (n = 10, 200 TPS, fault at 133 s, recovery at
// 266 s, 400 s runs). Each cell of the paper's matrix is computed on first
// use by run_campaign over that one cell, so it has exactly the campaign's
// geometry. ctest runs every case in its own process, so a case computes
// only the cells it reads. These are the slowest tests in the suite.
#include <gtest/gtest.h>

#include <map>

#include "core/campaign.hpp"

namespace stabl::core {
namespace {

const SensitivityRun& cached(ChainKind chain, FaultType fault) {
  static std::map<CampaignResult::CellKey, SensitivityRun> cells;
  const CampaignResult::CellKey key{chain, fault};
  auto it = cells.find(key);
  if (it == cells.end()) {
    CampaignConfig config;
    config.chains = {chain};
    config.faults = {fault};
    apply_run_window(config.base, 400);
    it = cells.emplace(key, run_campaign(config).runs.at(key)).first;
  }
  return it->second;
}

// ---------------------------------------------------------- §4 resilience

TEST(PaperResilience, RedbellyIsInsensitiveToCrashes) {
  const auto& run = cached(ChainKind::kRedbelly, FaultType::kCrash);
  EXPECT_TRUE(run.altered.live_at_end);
  EXPECT_LT(run.score.value, 1.0)
      << "leaderless DBFT: f = t crashes barely register";
}

TEST(PaperResilience, AllOtherChainsAreAffectedByCrashes) {
  for (const ChainKind chain :
       {ChainKind::kAlgorand, ChainKind::kAptos, ChainKind::kAvalanche,
        ChainKind::kSolana}) {
    const auto& run = cached(chain, FaultType::kCrash);
    EXPECT_TRUE(run.altered.live_at_end) << to_string(chain);
    EXPECT_GT(run.score.value,
              cached(ChainKind::kRedbelly, FaultType::kCrash).score.value *
                  4.0)
        << to_string(chain);
  }
}

TEST(PaperResilience, SolanaHasTheHighestCrashSensitivity) {
  const double solana =
      cached(ChainKind::kSolana, FaultType::kCrash).score.value;
  for (const ChainKind chain :
       {ChainKind::kAlgorand, ChainKind::kAptos, ChainKind::kAvalanche,
        ChainKind::kRedbelly}) {
    EXPECT_GT(solana, cached(chain, FaultType::kCrash).score.value)
        << to_string(chain);
  }
}

// ------------------------------------------------------ §5 recoverability

TEST(PaperRecoverability, AvalancheAndSolanaCannotRecover) {
  EXPECT_TRUE(cached(ChainKind::kAvalanche, FaultType::kTransient)
                  .score.infinite);
  EXPECT_TRUE(
      cached(ChainKind::kSolana, FaultType::kTransient).score.infinite);
}

TEST(PaperRecoverability, AlgorandAndRedbellyRecoverFast) {
  const auto& algorand = cached(ChainKind::kAlgorand, FaultType::kTransient);
  const auto& redbelly = cached(ChainKind::kRedbelly, FaultType::kTransient);
  EXPECT_TRUE(algorand.altered.live_at_end);
  EXPECT_TRUE(redbelly.altered.live_at_end);
  // Paper: ~9 s and ~7 s.
  EXPECT_GT(algorand.altered.recovery_seconds, 2.0);
  EXPECT_LT(algorand.altered.recovery_seconds, 20.0);
  EXPECT_GT(redbelly.altered.recovery_seconds, 2.0);
  EXPECT_LT(redbelly.altered.recovery_seconds, 15.0);
  // The backlog clears in a sharp peak: nearly everything commits.
  EXPECT_GT(algorand.altered.committed, 75000u);
  EXPECT_GT(redbelly.altered.committed, 75000u);
}

TEST(PaperRecoverability, AptosRecoversButCannotClearBacklog) {
  const auto& run = cached(ChainKind::kAptos, FaultType::kTransient);
  EXPECT_TRUE(run.altered.live_at_end) << "blocks are still being created";
  EXPECT_FALSE(run.score.infinite);
  // Degraded for the rest of the run: a large share never commits.
  EXPECT_LT(run.altered.committed, 70000u);
  // Worst finite recoverability of the three chains that do recover.
  EXPECT_GT(run.score.value,
            cached(ChainKind::kAlgorand, FaultType::kTransient).score.value);
  EXPECT_GT(run.score.value,
            cached(ChainKind::kRedbelly, FaultType::kTransient).score.value);
}

// --------------------------------------------------- §6 partition tolerance

TEST(PaperPartition, AvalancheAndSolanaCannotRecoverFromPartition) {
  EXPECT_TRUE(
      cached(ChainKind::kAvalanche, FaultType::kPartition).score.infinite);
  EXPECT_TRUE(
      cached(ChainKind::kSolana, FaultType::kPartition).score.infinite);
}

TEST(PaperPartition, TimeoutsSlowAlgorandAndRedbellyRecovery) {
  const auto& algorand = cached(ChainKind::kAlgorand, FaultType::kPartition);
  const auto& redbelly = cached(ChainKind::kRedbelly, FaultType::kPartition);
  // Paper: 9 s -> 99 s and 7 s -> 81 s.
  EXPECT_GT(algorand.altered.recovery_seconds, 80.0);
  EXPECT_LT(algorand.altered.recovery_seconds, 120.0);
  EXPECT_GT(redbelly.altered.recovery_seconds, 65.0);
  EXPECT_LT(redbelly.altered.recovery_seconds, 100.0);
  EXPECT_GT(
      algorand.altered.recovery_seconds,
      cached(ChainKind::kAlgorand, FaultType::kTransient)
              .altered.recovery_seconds +
          30.0);
  EXPECT_GT(
      redbelly.altered.recovery_seconds,
      cached(ChainKind::kRedbelly, FaultType::kTransient)
              .altered.recovery_seconds +
          30.0);
}

TEST(PaperPartition, AptosPartitionMatchesItsTransientSensitivity) {
  const double partition =
      cached(ChainKind::kAptos, FaultType::kPartition).score.value;
  const double transient =
      cached(ChainKind::kAptos, FaultType::kTransient).score.value;
  // 5 s connectivity probing: partition recovery is as quick as transient.
  EXPECT_NEAR(partition, transient, 0.35 * transient);
}

// ------------------------------------------- §7 Byzantine node tolerance

TEST(PaperByzantine, AlgorandAndSolanaRemainUnchanged) {
  const auto& algorand =
      cached(ChainKind::kAlgorand, FaultType::kSecureClient);
  const auto& solana = cached(ChainKind::kSolana, FaultType::kSecureClient);
  EXPECT_LT(algorand.score.value, 0.5);
  EXPECT_LT(solana.score.value, 0.5);
}

TEST(PaperByzantine, AptosDegradesFromSpeculativeExecution) {
  const auto& run = cached(ChainKind::kAptos, FaultType::kSecureClient);
  EXPECT_FALSE(run.score.infinite);
  EXPECT_FALSE(run.score.benefits);
  EXPECT_GT(run.altered.mean_latency_s, run.baseline.mean_latency_s * 1.5);
}

TEST(PaperByzantine, RedbellyAndAvalancheBenefit) {
  const auto& redbelly =
      cached(ChainKind::kRedbelly, FaultType::kSecureClient);
  const auto& avalanche =
      cached(ChainKind::kAvalanche, FaultType::kSecureClient);
  EXPECT_TRUE(redbelly.score.benefits) << "striped bar";
  EXPECT_TRUE(avalanche.score.benefits) << "striped bar";
  EXPECT_LT(redbelly.altered.mean_latency_s, redbelly.baseline.mean_latency_s);
  EXPECT_LT(avalanche.altered.mean_latency_s,
            avalanche.baseline.mean_latency_s);
  // Avalanche shows the largest improvement of the two.
  EXPECT_GT(avalanche.baseline.mean_latency_s -
                avalanche.altered.mean_latency_s,
            redbelly.baseline.mean_latency_s -
                redbelly.altered.mean_latency_s);
}

// -------------------------------------------------------- §8 discussion

TEST(PaperDiscussion, TransientSensitivityExceedsCrashSensitivity) {
  // "generally blockchains are more sensitive to transient failures than
  // permanent failures" — for every chain whose transient score is finite,
  // and trivially for the infinite ones.
  for (const ChainKind chain : kAllChains) {
    const auto& transient = cached(chain, FaultType::kTransient);
    if (transient.score.infinite) continue;
    EXPECT_GT(transient.score.value,
              cached(chain, FaultType::kCrash).score.value)
        << to_string(chain);
  }
}

TEST(PaperDiscussion, BaselineLatencyRanking) {
  // Solana fastest, then Aptos; Algorand slowest of the five baselines —
  // the context for "Solana experiencing higher sensitivity due to better
  // performance in the baseline condition".
  const double solana =
      cached(ChainKind::kSolana, FaultType::kCrash).baseline.mean_latency_s;
  const double aptos =
      cached(ChainKind::kAptos, FaultType::kCrash).baseline.mean_latency_s;
  const double redbelly =
      cached(ChainKind::kRedbelly, FaultType::kCrash).baseline.mean_latency_s;
  const double algorand =
      cached(ChainKind::kAlgorand, FaultType::kCrash).baseline.mean_latency_s;
  EXPECT_LT(solana, aptos);
  EXPECT_LT(aptos, redbelly);
  EXPECT_LT(redbelly, algorand);
}

}  // namespace
}  // namespace stabl::core
