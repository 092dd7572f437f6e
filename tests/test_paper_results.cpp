// End-to-end reproduction checks of the paper's headline results, at the
// paper's full geometry (n = 10, 200 TPS, fault at 133 s, recovery at
// 266 s, 400 s runs). Each case computes the cells it reads with one
// run_campaign over them (chains x faults), so the cells have exactly the
// campaign's geometry and cells of one chain share their fault-free twin.
// ctest runs every case in its own process. These are the slowest tests
// in the suite.
#include <gtest/gtest.h>

#include <iterator>
#include <utility>
#include <vector>

#include "core/campaign.hpp"

namespace stabl::core {
namespace {

const std::vector<ChainKind> kEveryChain(std::begin(kAllChains),
                                         std::end(kAllChains));

/// The paper-matrix cells chains x faults, from one campaign.
class Cells {
 public:
  Cells(std::vector<ChainKind> chains, std::vector<FaultType> faults) {
    CampaignConfig config;
    config.chains = std::move(chains);
    config.faults = std::move(faults);
    apply_run_window(config.base, 400);
    result_ = run_campaign(config);
  }

  [[nodiscard]] const SensitivityRun& operator()(ChainKind chain,
                                                 FaultType fault) const {
    return result_.seed_runs.at({chain, fault}).front();
  }

 private:
  CampaignResult result_;
};

// ---------------------------------------------------------- §4 resilience

TEST(PaperResilience, RedbellyIsInsensitiveToCrashes) {
  const Cells cells({ChainKind::kRedbelly}, {FaultType::kCrash});
  const auto& run = cells(ChainKind::kRedbelly, FaultType::kCrash);
  EXPECT_TRUE(run.altered.live_at_end);
  EXPECT_LT(run.score.value, 1.0)
      << "leaderless DBFT: f = t crashes barely register";
}

TEST(PaperResilience, AllOtherChainsAreAffectedByCrashes) {
  const Cells cells(kEveryChain, {FaultType::kCrash});
  for (const ChainKind chain :
       {ChainKind::kAlgorand, ChainKind::kAptos, ChainKind::kAvalanche,
        ChainKind::kSolana}) {
    const auto& run = cells(chain, FaultType::kCrash);
    EXPECT_TRUE(run.altered.live_at_end) << to_string(chain);
    EXPECT_GT(run.score.value,
              cells(ChainKind::kRedbelly, FaultType::kCrash).score.value *
                  4.0)
        << to_string(chain);
  }
}

TEST(PaperResilience, SolanaHasTheHighestCrashSensitivity) {
  const Cells cells(kEveryChain, {FaultType::kCrash});
  const double solana =
      cells(ChainKind::kSolana, FaultType::kCrash).score.value;
  for (const ChainKind chain :
       {ChainKind::kAlgorand, ChainKind::kAptos, ChainKind::kAvalanche,
        ChainKind::kRedbelly}) {
    EXPECT_GT(solana, cells(chain, FaultType::kCrash).score.value)
        << to_string(chain);
  }
}

// ------------------------------------------------------ §5 recoverability

TEST(PaperRecoverability, AvalancheAndSolanaCannotRecover) {
  const Cells cells({ChainKind::kAvalanche, ChainKind::kSolana},
                    {FaultType::kTransient});
  EXPECT_TRUE(cells(ChainKind::kAvalanche, FaultType::kTransient)
                  .score.infinite);
  EXPECT_TRUE(
      cells(ChainKind::kSolana, FaultType::kTransient).score.infinite);
}

TEST(PaperRecoverability, AlgorandAndRedbellyRecoverFast) {
  const Cells cells({ChainKind::kAlgorand, ChainKind::kRedbelly},
                    {FaultType::kTransient});
  const auto& algorand = cells(ChainKind::kAlgorand, FaultType::kTransient);
  const auto& redbelly = cells(ChainKind::kRedbelly, FaultType::kTransient);
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
  const Cells cells({ChainKind::kAlgorand, ChainKind::kAptos,
                     ChainKind::kRedbelly},
                    {FaultType::kTransient});
  const auto& run = cells(ChainKind::kAptos, FaultType::kTransient);
  EXPECT_TRUE(run.altered.live_at_end) << "blocks are still being created";
  EXPECT_FALSE(run.score.infinite);
  // Degraded for the rest of the run: a large share never commits.
  EXPECT_LT(run.altered.committed, 70000u);
  // Worst finite recoverability of the three chains that do recover.
  EXPECT_GT(run.score.value,
            cells(ChainKind::kAlgorand, FaultType::kTransient).score.value);
  EXPECT_GT(run.score.value,
            cells(ChainKind::kRedbelly, FaultType::kTransient).score.value);
}

// --------------------------------------------------- §6 partition tolerance

TEST(PaperPartition, AvalancheAndSolanaCannotRecoverFromPartition) {
  const Cells cells({ChainKind::kAvalanche, ChainKind::kSolana},
                    {FaultType::kPartition});
  EXPECT_TRUE(
      cells(ChainKind::kAvalanche, FaultType::kPartition).score.infinite);
  EXPECT_TRUE(
      cells(ChainKind::kSolana, FaultType::kPartition).score.infinite);
}

TEST(PaperPartition, TimeoutsSlowAlgorandAndRedbellyRecovery) {
  const Cells cells({ChainKind::kAlgorand, ChainKind::kRedbelly},
                    {FaultType::kTransient, FaultType::kPartition});
  const auto& algorand = cells(ChainKind::kAlgorand, FaultType::kPartition);
  const auto& redbelly = cells(ChainKind::kRedbelly, FaultType::kPartition);
  // Paper: 9 s -> 99 s and 7 s -> 81 s.
  EXPECT_GT(algorand.altered.recovery_seconds, 80.0);
  EXPECT_LT(algorand.altered.recovery_seconds, 120.0);
  EXPECT_GT(redbelly.altered.recovery_seconds, 65.0);
  EXPECT_LT(redbelly.altered.recovery_seconds, 100.0);
  EXPECT_GT(
      algorand.altered.recovery_seconds,
      cells(ChainKind::kAlgorand, FaultType::kTransient)
              .altered.recovery_seconds +
          30.0);
  EXPECT_GT(
      redbelly.altered.recovery_seconds,
      cells(ChainKind::kRedbelly, FaultType::kTransient)
              .altered.recovery_seconds +
          30.0);
}

TEST(PaperPartition, AptosPartitionMatchesItsTransientSensitivity) {
  const Cells cells({ChainKind::kAptos},
                    {FaultType::kTransient, FaultType::kPartition});
  const double partition =
      cells(ChainKind::kAptos, FaultType::kPartition).score.value;
  const double transient =
      cells(ChainKind::kAptos, FaultType::kTransient).score.value;
  // 5 s connectivity probing: partition recovery is as quick as transient.
  EXPECT_NEAR(partition, transient, 0.35 * transient);
}

// ------------------------------------------- §7 Byzantine node tolerance

TEST(PaperByzantine, AlgorandAndSolanaRemainUnchanged) {
  const Cells cells({ChainKind::kAlgorand, ChainKind::kSolana},
                    {FaultType::kSecureClient});
  const auto& algorand =
      cells(ChainKind::kAlgorand, FaultType::kSecureClient);
  const auto& solana = cells(ChainKind::kSolana, FaultType::kSecureClient);
  EXPECT_LT(algorand.score.value, 0.5);
  EXPECT_LT(solana.score.value, 0.5);
}

TEST(PaperByzantine, AptosDegradesFromSpeculativeExecution) {
  const Cells cells({ChainKind::kAptos}, {FaultType::kSecureClient});
  const auto& run = cells(ChainKind::kAptos, FaultType::kSecureClient);
  EXPECT_FALSE(run.score.infinite);
  EXPECT_FALSE(run.score.benefits);
  EXPECT_GT(run.altered.mean_latency_s, run.baseline.mean_latency_s * 1.5);
}

TEST(PaperByzantine, RedbellyAndAvalancheBenefit) {
  const Cells cells({ChainKind::kAvalanche, ChainKind::kRedbelly},
                    {FaultType::kSecureClient});
  const auto& redbelly =
      cells(ChainKind::kRedbelly, FaultType::kSecureClient);
  const auto& avalanche =
      cells(ChainKind::kAvalanche, FaultType::kSecureClient);
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
  const Cells cells(kEveryChain, {FaultType::kCrash, FaultType::kTransient});
  // "generally blockchains are more sensitive to transient failures than
  // permanent failures" — for every chain whose transient score is finite,
  // and trivially for the infinite ones.
  for (const ChainKind chain : kAllChains) {
    const auto& transient = cells(chain, FaultType::kTransient);
    if (transient.score.infinite) continue;
    EXPECT_GT(transient.score.value,
              cells(chain, FaultType::kCrash).score.value)
        << to_string(chain);
  }
}

TEST(PaperDiscussion, BaselineLatencyRanking) {
  const Cells cells({ChainKind::kAlgorand, ChainKind::kAptos,
                     ChainKind::kRedbelly, ChainKind::kSolana},
                    {FaultType::kCrash});
  // Solana fastest, then Aptos; Algorand slowest of the five baselines —
  // the context for "Solana experiencing higher sensitivity due to better
  // performance in the baseline condition".
  const double solana =
      cells(ChainKind::kSolana, FaultType::kCrash).baseline.mean_latency_s;
  const double aptos =
      cells(ChainKind::kAptos, FaultType::kCrash).baseline.mean_latency_s;
  const double redbelly =
      cells(ChainKind::kRedbelly, FaultType::kCrash).baseline.mean_latency_s;
  const double algorand =
      cells(ChainKind::kAlgorand, FaultType::kCrash).baseline.mean_latency_s;
  EXPECT_LT(solana, aptos);
  EXPECT_LT(aptos, redbelly);
  EXPECT_LT(redbelly, algorand);
}

}  // namespace
}  // namespace stabl::core
