#include "sim/multicell.h"

#include <algorithm>
#include <cmath>
#include <iostream>
#include <optional>
#include <sstream>

#include "channel/temporal.h"
#include "core/thread_pool.h"
#include "fault/context.h"
#include "linalg/decompositions.h"
#include "linalg/factored.h"
#include "obs/clock.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "sim/evaluation.h"

namespace mmw::sim {

namespace {

/// sim.multicell.* telemetry (DESIGN.md §9): shard/session volume, the
/// interference histogram, and per-shard busy time. Busy time is the one
/// wall-clock-dependent metric; it never feeds back into the simulation,
/// so the determinism contract is untouched.
struct MultiCellMetrics {
  obs::Counter cells;     ///< one per (cell, trial) shard simulated
  obs::Counter sessions;  ///< one per (cell, user, trial, strategy) run
  obs::Histogram interference_power;  ///< per-user mean I (linear)
  obs::Histogram shard_busy_us;
  static const MultiCellMetrics& get() {
    static const MultiCellMetrics m{
        obs::Registry::global().counter("sim.multicell.cells"),
        obs::Registry::global().counter("sim.multicell.sessions"),
        obs::Registry::global().histogram(
            "sim.multicell.interference_power",
            obs::HistogramBuckets::exponential(1e-3, 10.0, 9)),
        obs::Registry::global().histogram(
            "sim.multicell.shard_busy_us",
            obs::HistogramBuckets::exponential(100.0, 4.0, 12)),
    };
    return m;
  }
};

index_t rate_to_budget(real rate, index_t total) {
  MMW_REQUIRE_MSG(rate > 0.0 && rate <= 1.0,
                  "search rate must be in (0, 1]");
  return std::max<index_t>(1,
                           static_cast<index_t>(std::llround(rate * total)));
}

/// Key spaces of the engine's three-key streams. A run uses
/// Rng::stream(seed, key_a, user, trial) with key_a partitioned as:
///   [0, n_cells)              serving link + user drop + session forks
///   [n_cells, 2·n_cells)      cross-link realizations seen by that victim
///   [2·n_cells, 3·n_cells)    the interferer's active TX beam (key_b = 0 —
///                             one beam per (interferer, trial), shared by
///                             every victim in the trial)
/// Any shard can rebuild any of these without shared state, which is what
/// keeps (cell × trial) shards order- and thread-count-independent.
constexpr std::uint64_t serving_key(index_t cell) { return cell; }
std::uint64_t cross_key(index_t cell, index_t n_cells) {
  return static_cast<std::uint64_t>(n_cells) + cell;
}
std::uint64_t beam_key(index_t interferer, index_t n_cells) {
  return 2 * static_cast<std::uint64_t>(n_cells) + interferer;
}

/// Factored cross covariance Q_u = E[(Hu)(Hu)ᴴ] of an interfering link for
/// one active TX beam: Q_u = S Sᴴ with S's columns the RX steering vectors
/// scaled by √(NM·p_l)·|a_tx,lᴴu|. A thin QR of S (= B R) yields the
/// B (R Rᴴ) Bᴴ factor directly, so the RX codebook is scored through the
/// O(|V|·N·r) factored path instead of the dense O(|V|·N²) form. Falls
/// back to the dense lift when the path count reaches N (QR needs a tall
/// matrix; at that point the factor saves nothing anyway).
linalg::FactoredHermitian cross_covariance_factored(
    const channel::Link& link, const linalg::Vector& u) {
  const index_t n = link.rx_size();
  const real nm =
      static_cast<real>(link.rx_size()) * static_cast<real>(link.tx_size());
  const auto& paths = link.paths();

  std::vector<real> weight(paths.size());
  real w_max = 0.0;
  for (index_t l = 0; l < paths.size(); ++l) {
    weight[l] = std::sqrt(nm * paths[l].power) *
                std::abs(linalg::dot(link.tx_steering(l), u));
    w_max = std::max(w_max, weight[l]);
  }
  std::vector<index_t> kept;
  for (index_t l = 0; l < paths.size(); ++l)
    if (weight[l] > 1e-12 * w_max) kept.push_back(l);

  if (kept.empty())  // beam orthogonal to every path: zero interference
    return linalg::FactoredHermitian::from_dense(linalg::Matrix(n, n));
  if (kept.size() >= n)
    return linalg::FactoredHermitian::from_dense(
        link.rx_covariance_for_beam(u));

  linalg::Matrix s(n, kept.size());
  for (index_t k = 0; k < kept.size(); ++k) {
    const linalg::Vector& a = link.rx_steering(kept[k]);
    const cx w{weight[kept[k]], 0.0};
    for (index_t i = 0; i < n; ++i) s(i, k) = w * a[i];
  }
  linalg::QrResult qr = linalg::qr_decompose(s);
  return linalg::FactoredHermitian(std::move(qr.q),
                                   qr.r * qr.r.adjoint());
}

/// Per-(cell, user, trial) outputs, one slot per strategy.
struct UserOutcome {
  std::vector<real> loss_db;
  std::vector<real> required_rate;
  real interference_over_noise_db = 0.0;
};

}  // namespace

MultiCellResult run_multicell(
    const MultiCellConfig& config,
    const std::vector<const core::AlignmentStrategy*>& strategies) {
  MMW_REQUIRE(!strategies.empty());
  MMW_REQUIRE(config.scenario.trials >= 1);
  MMW_REQUIRE_MSG(config.search_rate > 0.0 &&
                      config.search_rate <= config.budget_rate &&
                      config.budget_rate <= 1.0,
                  "need 0 < search_rate <= budget_rate <= 1");
  MMW_REQUIRE_MSG(config.interference_scale >= 0.0,
                  "interference scale must be non-negative");

  const Scenario& sc = config.scenario;
  const Topology topo = Topology::build(config.topology);
  const index_t n_cells = topo.n_cells();
  const index_t users = config.topology.users_per_cell;

  obs::TraceScope span("sim.run_multicell", "sim");
  span.arg("cells", static_cast<double>(n_cells));
  span.arg("users_per_cell", static_cast<double>(users));
  span.arg("trials", static_cast<double>(sc.trials));

  // Codebooks are scenario-determined and read-only: build once, share
  // across every shard.
  const CodebookPair cbs = make_scenario_codebooks(sc);
  const index_t total = cbs.tx.size() * cbs.rx.size();
  const index_t budget = rate_to_budget(config.budget_rate, total);
  const index_t grade_budget = rate_to_budget(config.search_rate, total);
  const bool interfering = config.interference_scale > 0.0 && n_cells > 1;

  // One shard per (cell, trial); each owns its slot, reduced in shard-index
  // order afterwards so parallel output == serial output.
  const index_t n_shards = n_cells * sc.trials;
  std::vector<std::vector<UserOutcome>> per_shard(n_shards);

  const auto run_shard = [&](index_t shard) {
    MMW_TRACE_SCOPE("sim.multicell.shard", "sim");
    const obs::WallTimer shard_timer;
    const index_t trial = shard / n_cells;
    const index_t cell = shard % n_cells;

    auto& mine = per_shard[shard];
    mine.reserve(users);
    for (index_t user = 0; user < users; ++user) {
      randgen::Rng rng =
          randgen::Rng::stream(sc.seed, serving_key(cell), user, trial);
      const UserPlacement drop = topo.place_user(cell, rng);
      const channel::Link link = make_scenario_link(sc, rng);

      // Interference profile: every other BS dwells on its trial-fixed
      // active beam; fold the coupled per-RX-beam powers into one vector.
      std::vector<real> interference;
      std::vector<real> cross_scores(cbs.rx.size());
      real mean_interference = 0.0;
      if (interfering) {
        interference.assign(cbs.rx.size(), 0.0);
        randgen::Rng cross_rng = randgen::Rng::stream(
            sc.seed, cross_key(cell, n_cells), user, trial);
        for (index_t other = 0; other < n_cells; ++other) {
          if (other == cell) continue;
          const channel::Link cross = make_scenario_link(sc, cross_rng);
          randgen::Rng beam_rng = randgen::Rng::stream(
              sc.seed, beam_key(other, n_cells), 0, trial);
          const index_t active_beam = static_cast<index_t>(
              beam_rng.uniform_int(0, cbs.tx.size() - 1));
          const linalg::FactoredHermitian q_cross =
              cross_covariance_factored(cross,
                                        cbs.tx.codeword(active_beam));
          cbs.rx.covariance_scores_into(q_cross, cross_scores);
          const real coupled = config.interference_scale *
                               topo.coupling(other, cell, drop);
          for (index_t v = 0; v < interference.size(); ++v)
            interference[v] += coupled * cross_scores[v];
        }
        for (const real p : interference) mean_interference += p;
        mean_interference /= static_cast<real>(interference.size());
      }

      // Fault plan for this (cell, user, trial): entity key
      // cell·users + user of the reserved fault range, so enabling faults
      // perturbs no serving/cross/beam stream and each user fails
      // independently of cell count and thread count.
      std::optional<fault::FaultPlan> plan;
      std::optional<channel::Link> degraded;
      if (sc.faults.any()) {
        randgen::Rng fault_rng = fault::fault_stream(
            sc.seed, static_cast<std::uint64_t>(cell) * users + user, trial);
        plan.emplace(fault::FaultPlan::draw(sc.faults, budget,
                                            link.paths().size(), fault_rng));
        if (plan->has_blockage())
          degraded = channel::blocked_link(link, plan->path_power_scale());
      }

      const core::PairGainOracle oracle(link, cbs.tx, cbs.rx);
      UserOutcome out;
      out.interference_over_noise_db =
          10.0 * std::log10(1.0 + sc.gamma * mean_interference);
      out.loss_db.reserve(strategies.size());
      out.required_rate.reserve(strategies.size());
      for (const auto* strategy : strategies) {
        randgen::Rng run_rng = rng.fork();
        mac::Session session(link, cbs.tx, cbs.rx, sc.gamma, budget,
                             run_rng, sc.fades_per_measurement);
        if (interfering) session.set_interference(interference);
        fault::TrialFaultState fault_state;
        std::optional<fault::ScopedTrialFaults> fault_guard;
        if (plan) {
          session.arm_faults(&*plan, degraded ? &*degraded : nullptr);
          fault_state.plan = &*plan;
          fault_guard.emplace(fault_state);
        }
        strategy->run(session);
        const index_t graded = std::min<index_t>(
            grade_budget, session.records().size());
        out.loss_db.push_back(
            loss_after(oracle, session.records(), graded));
        const auto needed = measurements_to_reach(
            oracle, session.records(), config.target_loss_db);
        out.required_rate.push_back(
            needed ? static_cast<real>(*needed) / static_cast<real>(total)
                   : 1.0);
      }
      if (obs::enabled()) {
        const MultiCellMetrics& m = MultiCellMetrics::get();
        m.sessions.add(static_cast<std::uint64_t>(strategies.size()));
        m.interference_power.record(mean_interference);
      }
      mine.push_back(std::move(out));
    }
    if (obs::enabled()) {
      const MultiCellMetrics& m = MultiCellMetrics::get();
      m.cells.add();
      m.shard_busy_us.record(
          static_cast<real>(shard_timer.elapsed_us()));
    }
  };

  core::ThreadPool pool(
      std::min(core::resolve_thread_count(sc.threads), n_shards));
  std::vector<index_t> quarantined;
  for (const core::IterationFailure& f :
       pool.run(n_shards, run_shard, sc.faults.quarantine_trials))
    quarantined.push_back(f.index);
  if (!quarantined.empty()) {
    static const obs::Counter quarantined_counter =
        obs::Registry::global().counter("sim.multicell.shards_quarantined");
    if (obs::enabled()) quarantined_counter.add(quarantined.size());
    std::cerr << "[sim] quarantined " << quarantined.size() << "/"
              << n_shards << " multicell shards after in-shard failures\n";
  }
  MMW_REQUIRE_MSG(quarantined.size() < n_shards,
                  "every shard was quarantined — nothing to summarize");

  // Reduce in shard-index order: parallel output == serial output.
  // Quarantined shards hold partial data and are skipped identically at
  // every thread count (the set is a function of the seed alone).
  std::vector<bool> skip(n_shards, false);
  for (const index_t s : quarantined) skip[s] = true;
  std::vector<std::vector<real>> loss(strategies.size());
  std::vector<std::vector<real>> rate(strategies.size());
  std::vector<real> inr_db;
  for (index_t s = 0; s < n_shards; ++s) {
    if (skip[s]) continue;
    for (const UserOutcome& out : per_shard[s]) {
      for (index_t k = 0; k < strategies.size(); ++k) {
        loss[k].push_back(out.loss_db[k]);
        rate[k].push_back(out.required_rate[k]);
      }
      inr_db.push_back(out.interference_over_noise_db);
    }
  }

  MultiCellResult result;
  result.cells = n_cells;
  result.sessions_per_strategy = (n_shards - quarantined.size()) * users;
  result.quarantined_shards = std::move(quarantined);
  for (index_t k = 0; k < strategies.size(); ++k) {
    const std::string name(strategies[k]->name());
    result.loss_db.emplace(name, summarize(loss[k]));
    result.required_rate.emplace(name, summarize(rate[k]));
  }
  result.interference_over_noise_db = summarize(inr_db);
  return result;
}

std::string render_multicell_csv(const std::string& x_label,
                                 const std::vector<real>& xs,
                                 const std::vector<MultiCellResult>& results) {
  MMW_REQUIRE(xs.size() == results.size());
  MMW_REQUIRE(!results.empty());
  std::ostringstream os;
  os.setf(std::ios::fixed);
  os.precision(6);
  os << x_label;
  for (const auto& [name, summary] : results.front().loss_db)
    os << ',' << name << "_loss_db";
  for (const auto& [name, summary] : results.front().required_rate)
    os << ',' << name << "_required_rate";
  os << ",interference_over_noise_db\n";
  for (index_t i = 0; i < xs.size(); ++i) {
    const MultiCellResult& r = results[i];
    MMW_REQUIRE_MSG(r.loss_db.size() == results.front().loss_db.size(),
                    "every row must cover the same strategies");
    os << xs[i];
    for (const auto& [name, summary] : r.loss_db) os << ',' << summary.mean;
    for (const auto& [name, summary] : r.required_rate)
      os << ',' << summary.mean;
    os << ',' << r.interference_over_noise_db.mean << '\n';
  }
  return os.str();
}

}  // namespace mmw::sim
