// Extension: sensitivity to transient communication *delays* (tc-netem
// delay rather than loss). The paper observed that delays alone crash all
// of Solana's validators and that Avalanche "stops working when some
// messages arrive 2 minutes late"; this program scores all five chains
// under a 120 s delay injected on f = t+1 nodes for the middle third of the
// run, as one campaign over {delay}, and prints the Fig. 3-style panel.
#include "bench_common.hpp"

#include <cstdio>

#include "core/campaign.hpp"
#include "core/parallel.hpp"

int main() {
  using namespace stabl;
  core::CampaignConfig config;
  config.faults = {core::FaultType::kDelay};
  core::apply_run_window(config.base, bench::bench_duration_s());
  config.jobs = core::default_jobs();
  const core::CampaignResult result = core::run_campaign(config);
  std::printf(
      "%s",
      core::sensitivity_panel(
          config, result, core::FaultType::kDelay,
          "Extension: sensitivity to 120s communication delays on f=t+1 "
          "nodes")
          .c_str());
  return 0;
}
