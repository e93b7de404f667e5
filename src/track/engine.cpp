#include "track/engine.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <optional>
#include <sstream>

#include "core/oracle.h"
#include "core/thread_pool.h"
#include "obs/digest.h"
#include "obs/metrics.h"
#include "randgen/keylanes.h"

namespace mmw::track {

namespace {

using randgen::lanes::kTrajectoryLane;
using randgen::lanes::temporal_lane;
using randgen::lanes::track_link_lane;
using randgen::lanes::track_measure_lane;

/// track.* telemetry, published once per run from the MERGED totals on the
/// calling thread (obs on/off cannot perturb results — DESIGN.md §7).
struct TrackMetrics {
  obs::Counter epochs;
  obs::Counter probes;
  obs::Counter realignments;
  obs::Counter outages;
  obs::Counter handovers;
  obs::Gauge mean_loss_db;
  static const TrackMetrics& get() {
    static const TrackMetrics m{
        obs::Registry::global().counter("track.epochs"),
        obs::Registry::global().counter("track.probes"),
        obs::Registry::global().counter("track.realignments"),
        obs::Registry::global().counter("track.outages"),
        obs::Registry::global().counter("track.handovers"),
        obs::Registry::global().gauge("track.loss.mean_db"),
    };
    return m;
  }
};

/// Per-shard accumulator, merged in flat (tracker, user) shard order.
struct Frame {
  std::uint64_t steady_epochs = 0;
  std::uint64_t realigns = 0;
  std::uint64_t outages = 0;
  std::uint64_t probes_steady = 0;
  std::uint64_t probes_total = 0;
  std::uint64_t handovers = 0;
  obs::QuantileDigest loss;

  void merge(const Frame& o) {
    steady_epochs += o.steady_epochs;
    realigns += o.realigns;
    outages += o.outages;
    probes_steady += o.probes_steady;
    probes_total += o.probes_total;
    handovers += o.handovers;
    loss.merge(o.loss);
  }
};

/// One (tracker, user) shard: the user's whole journey, sequential in
/// epochs (trackers are stateful), independent of every other shard.
void run_shard(const TrackingConfig& config, const sim::Topology& topology,
               const sim::CodebookPair& codebooks,
               const channel::EvolutionConfig& evolution, TrackerKind kind,
               index_t user, Frame& frame) {
  const sim::Scenario& sc = config.scenario;
  const antenna::ArrayGeometry tx_geom =
      antenna::ArrayGeometry::upa(sc.tx_grid_x, sc.tx_grid_y);
  const antenna::ArrayGeometry rx_geom =
      antenna::ArrayGeometry::upa(sc.rx_grid_x, sc.rx_grid_y);

  const sim::Trajectory trajectory(topology, config.mobility.speed_mps,
                                   config.mobility.epoch_seconds, sc.seed,
                                   user);
  std::unique_ptr<Tracker> tracker = make_tracker(kind);

  const auto evolution_for = [&](index_t site) {
    randgen::Rng link_rng =
        randgen::Rng::stream(sc.seed, track_link_lane(site), user, 0);
    const channel::Link base = sim::make_scenario_link(sc, link_rng);
    return channel::LinkEvolution(tx_geom, rx_geom, base.paths(), evolution,
                                  sc.seed, temporal_lane(site), user);
  };

  index_t site = sim::nearest_site(topology, trajectory.position_at(0));
  std::optional<channel::LinkEvolution> evo(evolution_for(site));

  for (index_t epoch = 0; epoch < config.epochs; ++epoch) {
    const sim::UserPlacement pos = trajectory.position_at(epoch);
    const index_t next_site = sim::select_serving_site(
        topology, pos, site, config.mobility.hysteresis_db);
    if (next_site != site) {
      // Handover: the beam-space state is the only survivor (the codec
      // round-trip the serving engine's resident sessions perform).
      const BeamState carried = tracker->export_state();
      site = next_site;
      evo.emplace(evolution_for(site));
      tracker->import_state(carried);
      ++frame.handovers;
    }
    evo->seek(epoch);
    const channel::Link link = evo->current();

    randgen::Rng rng = randgen::Rng::stream(
        sc.seed, track_measure_lane(static_cast<std::uint64_t>(kind)), user,
        epoch);
    TrackerContext ctx;
    ctx.link = &link;
    ctx.tx_codebook = &codebooks.tx;
    ctx.rx_codebook = &codebooks.rx;
    ctx.gamma = sc.gamma * topology.pathloss_gain(site, pos);
    ctx.fades = sc.fades_per_measurement;
    ctx.rng = &rng;
    const TrackerReport report = tracker->step(ctx);

    frame.probes_total += report.probes;
    if (epoch < config.warmup_epochs) continue;
    const real best =
        core::best_mean_pair_gain(link, codebooks.tx, codebooks.rx);
    const real claimed =
        link.mean_pair_gain(codebooks.tx.codeword(report.tx_beam),
                            codebooks.rx.codeword(report.rx_beam));
    // Cap the loss at 60 dB (a zero-gain claim would otherwise be −inf).
    const real loss_db =
        10.0 * std::log10(best / std::max(claimed, best * 1e-6));
    frame.loss.add(loss_db);
    ++frame.steady_epochs;
    frame.probes_steady += report.probes;
    if (report.realigned) ++frame.realigns;
    if (report.outage) ++frame.outages;
  }
}

}  // namespace

TrackingResult run_tracking(const TrackingConfig& config,
                            const std::vector<TrackerKind>& kinds) {
  MMW_REQUIRE(config.users >= 1 && config.epochs >= 1);
  MMW_REQUIRE_MSG(config.warmup_epochs < config.epochs,
                  "warmup must leave at least one steady epoch");
  MMW_REQUIRE(!kinds.empty());

  const sim::Topology topology = sim::Topology::build(config.topology);
  const sim::CodebookPair codebooks =
      sim::make_scenario_codebooks(config.scenario);
  channel::EvolutionConfig evolution = config.evolution;
  evolution.speed_mps = config.mobility.speed_mps;
  evolution.epoch_seconds = config.mobility.epoch_seconds;

  const index_t n_shards = kinds.size() * config.users;
  std::vector<Frame> frames(n_shards);
  const auto body = [&](index_t shard) {
    const TrackerKind kind = kinds[shard / config.users];
    const index_t user = shard % config.users;
    run_shard(config, topology, codebooks, evolution, kind, user,
              frames[shard]);
  };
  core::ThreadPool(config.scenario.threads).run(n_shards, body);

  TrackingResult result;
  result.users = config.users;
  result.epochs = config.epochs;
  result.warmup_epochs = config.warmup_epochs;
  Frame grand_total;
  for (index_t k = 0; k < kinds.size(); ++k) {
    Frame total;  // merged in ascending user order — the flat shard order
    for (index_t u = 0; u < config.users; ++u)
      total.merge(frames[k * config.users + u]);
    TrackerCaseResult r;
    r.name = tracker_name(kinds[k]);
    r.steady_epochs = total.steady_epochs;
    if (total.steady_epochs > 0) {
      const real n = static_cast<real>(total.steady_epochs);
      r.mean_loss_db = total.loss.sum() / n;
      r.p50_loss_db = total.loss.quantile(0.5);
      r.p90_loss_db = total.loss.quantile(0.9);
      r.p99_loss_db = total.loss.quantile(0.99);
      r.max_loss_db = total.loss.max_value();
      r.realign_rate = static_cast<real>(total.realigns) / n;
      r.outage_rate = static_cast<real>(total.outages) / n;
      r.probes_per_epoch = static_cast<real>(total.probes_steady) / n;
    }
    r.probes_total = total.probes_total;
    if (k == 0)
      result.handovers_per_user =
          static_cast<real>(total.handovers) / config.users;
    result.trackers.push_back(std::move(r));
    grand_total.merge(total);
  }

  if (obs::enabled()) {
    const TrackMetrics& m = TrackMetrics::get();
    m.epochs.add(static_cast<std::uint64_t>(config.epochs) * config.users *
                 kinds.size());
    m.probes.add(grand_total.probes_total);
    m.realignments.add(grand_total.realigns);
    m.outages.add(grand_total.outages);
    m.handovers.add(grand_total.handovers);
    if (grand_total.steady_epochs > 0)
      m.mean_loss_db.set(grand_total.loss.sum() /
                         static_cast<real>(grand_total.steady_epochs));
  }
  return result;
}

std::string render_tracking_csv(const std::string& x_label,
                                const std::vector<real>& xs,
                                const std::vector<TrackingResult>& results) {
  MMW_REQUIRE(xs.size() == results.size());
  MMW_REQUIRE(!results.empty());
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(6);
  os << x_label;
  for (const TrackerCaseResult& t : results.front().trackers)
    os << ',' << t.name << "_loss_db," << t.name << "_p99_loss_db,"
       << t.name << "_realign_rate," << t.name << "_probes_per_epoch";
  os << ",handovers_per_user\n";
  for (index_t i = 0; i < xs.size(); ++i) {
    const TrackingResult& r = results[i];
    MMW_REQUIRE_MSG(r.trackers.size() == results.front().trackers.size(),
                    "every row must cover the same trackers");
    os << xs[i];
    for (const TrackerCaseResult& t : r.trackers)
      os << ',' << t.mean_loss_db << ',' << t.p99_loss_db << ','
         << t.realign_rate << ',' << t.probes_per_epoch;
    os << ',' << r.handovers_per_user << '\n';
  }
  return os.str();
}

}  // namespace mmw::track
