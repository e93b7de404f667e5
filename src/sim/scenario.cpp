#include "sim/scenario.h"

#include <algorithm>
#include <cmath>
#include <iostream>

#include "channel/temporal.h"
#include "core/thread_pool.h"
#include "obs/metrics.h"

namespace mmw::sim {

CodebookPair make_scenario_codebooks(const Scenario& scenario) {
  const antenna::ArrayGeometry tx =
      antenna::ArrayGeometry::upa(scenario.tx_grid_x, scenario.tx_grid_y);
  const antenna::ArrayGeometry rx =
      antenna::ArrayGeometry::upa(scenario.rx_grid_x, scenario.rx_grid_y);
  auto make_codebook = [&](const antenna::ArrayGeometry& geo) {
    if (scenario.codebook == CodebookKind::kDft)
      return antenna::Codebook::dft(geo);
    return antenna::Codebook::angular_grid(
        geo, geo.grid_x(), geo.grid_y(), scenario.sector.az_min,
        scenario.sector.az_max, scenario.sector.el_min,
        scenario.sector.el_max);
  };
  return CodebookPair{make_codebook(tx), make_codebook(rx)};
}

channel::Link make_scenario_link(const Scenario& scenario,
                                 randgen::Rng& rng) {
  const antenna::ArrayGeometry tx =
      antenna::ArrayGeometry::upa(scenario.tx_grid_x, scenario.tx_grid_y);
  const antenna::ArrayGeometry rx =
      antenna::ArrayGeometry::upa(scenario.rx_grid_x, scenario.rx_grid_y);
  if (scenario.channel == ChannelKind::kSinglePath)
    return channel::make_single_path_link(tx, rx, rng, scenario.sector);
  return channel::make_nyc_multipath_link(tx, rx, rng, scenario.sector);
}

TrialContext make_trial(const Scenario& scenario, randgen::Rng& rng) {
  channel::Link link = make_scenario_link(scenario, rng);
  CodebookPair cbs = make_scenario_codebooks(scenario);
  core::PairGainOracle oracle(link, cbs.tx, cbs.rx);
  return TrialContext{std::move(link), std::move(cbs.tx), std::move(cbs.rx),
                      std::move(oracle)};
}

index_t rate_to_budget(real rate, index_t total) {
  MMW_REQUIRE_MSG(rate > 0.0 && rate <= 1.0, "rate must be in (0, 1]");
  return std::max<index_t>(1,
                           static_cast<index_t>(std::llround(rate * total)));
}

std::optional<TrialFaults> draw_trial_faults(const fault::FaultConfig& config,
                                             std::uint64_t seed,
                                             std::uint64_t entity,
                                             index_t trial,
                                             const channel::Link& link,
                                             index_t budget) {
  if (!config.any()) return std::nullopt;
  randgen::Rng rng = fault::fault_stream(seed, entity, trial);
  std::optional<TrialFaults> out;
  out.emplace(TrialFaults{
      fault::FaultPlan::draw(config, budget, link.paths().size(), rng),
      std::nullopt});
  if (out->plan.has_blockage())
    out->degraded = channel::blocked_link(link, out->plan.path_power_scale());
  return out;
}

ShardRun run_shards(index_t n, index_t threads, bool quarantine,
                    const char* counter, std::string_view what,
                    const std::function<void(index_t)>& shard) {
  // Registered up front so a clean run reports the counter as zero.
  const obs::Counter quarantined = obs::Registry::global().counter(counter);
  core::ThreadPool pool(std::min(core::resolve_thread_count(threads), n));
  ShardRun out;
  out.skip.assign(n, false);
  for (const core::IterationFailure& f : pool.run(n, shard, quarantine)) {
    out.quarantined.push_back(f.index);
    out.skip[f.index] = true;
  }
  if (!out.quarantined.empty()) {
    if (obs::enabled()) quarantined.add(out.quarantined.size());
    std::cerr << "[sim] quarantined " << out.quarantined.size() << "/" << n
              << ' ' << what << " after in-shard failures\n";
  }
  MMW_REQUIRE_MSG(out.quarantined.size() < n,
                  "every shard was quarantined — nothing to summarize");
  return out;
}

}  // namespace mmw::sim
