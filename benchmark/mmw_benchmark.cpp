// The benchmark driver: one workload per process, at one seed, for a fixed
// measuring time.
//
//   mmw_benchmark --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//                 [--smoke] [--out DIR] [--repo-root DIR]
//
// Untraced (--trace 0, library defaults: obs off) it reports the
// end-to-end metrics; traced (--trace 1: obs on, TraceCollector capturing)
// the per-layer ones. Either way it checks the workload's outputs — the
// committed golden CSVs at the default seed, invariants at every seed —
// and prints one JSON object as its last stdout line:
//   {"correct": …, "attempted": …, "failed": …, "metrics": {…}}
// Times are scaled to a nominal host speed (host_speed.h).
// With --out it also writes <workload>.json (metrics, deterministic values,
// failed checks, measured and scaled step times, host calibration) and,
// traced, <workload>.trace.json (the
// first timed round), <workload>.metrics.json (library metrics snapshot)
// and <workload>.layers.json.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"
#include "host_speed.h"
#include "linalg/kernels.h"
#include "obs/json.h"
#include "obs/manifest.h"
#include "obs/obs.h"

namespace {

using namespace mmwb;
namespace obs = mmw::obs;

constexpr int kSetupRepeats = 3;

struct WorkloadDef {
  const char* name;
  std::uint64_t default_seed;
  std::unique_ptr<Workload> (*make)(const Options&);
};

const WorkloadDef kWorkloads[] = {
    {"serve_steady", 2016, make_serve_steady},
    {"serve_realign_ml", 2016, make_serve_realign_ml},
    {"paper_figs", 2016, make_paper_figs},
    {"track_mobility", 20160610, make_track_mobility},
};

/// The declared metrics (BENCHMARK.json), with units. A run must set every
/// time-valued one; a count or ratio a workload never produces reads 0.
const std::vector<std::pair<const char*, const char*>> kEndToEnd = {
    {"setup_s", "s"},
    {"ops_per_s", "1/s"},
    {"round_p50_ms", "ms"},
    {"peak_rss_mb", "MB"},
};

const std::vector<std::pair<const char*, const char*>> kPerLayer = {
    {"bench.timed_s", "s"},
    {"bench.rounds", "count"},
    {"bench.allocs_per_round", "count"},
    {"bench.allocs_per_op", "count"},
    {"obs.trace_overhead_frac", "ratio"},
    {"layers.unattributed_frac", "ratio"},
    {"trace.self_time_coverage", "ratio"},
    {"serve.align_frac", "ratio"},
    {"serve.bytes_per_session", "B"},
    {"serve.track_step_us", "us"},
    {"serve.track_frac", "ratio"},
    {"channel.link_regen_us", "us"},
    {"channel.link_regen_allocs", "count"},
    {"channel.pair_gain_scan_us", "us"},
    {"channel.evolve_us", "us"},
    {"channel.frac", "ratio"},
    {"mac.probe_us", "us"},
    {"mac.probe_allocs", "count"},
    {"mac.probes", "count"},
    {"mac.frac", "ratio"},
    {"antenna.scoring_us", "us"},
    {"antenna.scored_codewords", "count"},
    {"antenna.frac", "ratio"},
    {"estimation.ml_solve_us", "us"},
    {"estimation.ml_allocs_per_solve", "count"},
    {"estimation.ml_solves", "count"},
    {"estimation.ml_iterations_mean", "count"},
    {"estimation.ml_nonconverged_frac", "ratio"},
    {"estimation.nll_evals", "count"},
    {"estimation.ml_self_frac", "ratio"},
    {"estimation.ml_frac", "ratio"},
    {"estimation.codec_expand_us", "us"},
    {"estimation.codec_compress_us", "us"},
    {"estimation.codec_merge_us", "us"},
    {"estimation.codec_allocs", "count"},
    {"estimation.codec_frac", "ratio"},
    {"linalg.eig_jacobi_calls", "count"},
    {"linalg.eig_ql_calls", "count"},
    {"linalg.eig_sweeps_mean", "count"},
    {"core.strategy_slots", "count"},
    {"core.strategy_slot_self_frac", "ratio"},
    {"sim.trials", "count"},
    {"sim.trial_self_frac", "ratio"},
    {"sim.make_trial_us", "us"},
    {"sim.frac", "ratio"},
    {"track.cold_start_frac", "ratio"},
    {"track.warm_ml_frac", "ratio"},
    {"track.neighborhood_frac", "ratio"},
    {"track.bandit_ucb_frac", "ratio"},
    {"track.probes", "count"},
    {"track.realignments", "count"},
    {"track.handovers", "count"},
    {"randgen.stream_ns", "ns"},
    {"randgen.frac", "ratio"},
    {"obs.digest_add_ns", "ns"},
    {"obs.digest_merge_us", "us"},
    {"obs.frac", "ratio"},
};

bool is_time_unit(std::string_view unit) {
  return unit == "s" || unit == "ms" || unit == "us" || unit == "ns";
}

/// Host calibration recorded next to every result; no scaling number is
/// derived from it.
struct Host {
  unsigned nproc = 1;
  double calibration_ms = 0.0;        ///< one single-core busy loop
  double effective_parallelism = 0.0;  ///< nproc loops at once vs one
};

double busy_loop_s() {
  const double t0 = now_s();
  volatile double x = 1.0;
  double acc = 0.0;
  for (int i = 0; i < 20'000'000; ++i) acc = acc * 0.999999 + x;
  x = acc;
  return now_s() - t0;
}

Host calibrate() {
  Host h;
  h.nproc = std::max(1u, std::thread::hardware_concurrency());
  std::vector<double> one;
  for (int i = 0; i < 3; ++i) one.push_back(busy_loop_s());
  h.calibration_ms = median(one) * 1e3;
  const double t0 = now_s();
  {
    std::vector<std::jthread> threads;
    for (unsigned i = 0; i < h.nproc; ++i)
      threads.emplace_back([] { busy_loop_s(); });
  }
  const double all = now_s() - t0;
  h.effective_parallelism = all > 0 ? h.nproc * median(one) / all : 0.0;
  return h;
}

/// Emits the JSON object of one metric list: {"name": {"value", "unit"}}.
void write_metrics(obs::JsonWriter& w, const std::vector<Metric>& metrics) {
  w.begin_object();
  for (const Metric& m : metrics) {
    w.key(m.name);
    w.begin_object();
    w.key("value");
    w.number(m.value);
    w.key("unit");
    w.string(m.unit);
    w.end_object();
  }
  w.end_object();
}

/// Keeps exactly the declared metrics of this mode, in declared order.
std::vector<Metric> declared(const Report& report,
                             const std::vector<std::pair<const char*,
                                                         const char*>>& table,
                             std::vector<std::string>& missing) {
  std::vector<Metric> out;
  for (const auto& [name, unit] : table) {
    const auto it =
        std::find_if(report.metrics().begin(), report.metrics().end(),
                     [&](const Metric& m) { return m.name == name; });
    if (it != report.metrics().end()) {
      out.push_back({name, it->value, unit});
    } else {
      if (is_time_unit(unit)) missing.push_back(name);
      out.push_back({name, 0.0, unit});
    }
  }
  return out;
}

struct Run {
  Report report;
  std::vector<StepTime> setups;
  std::vector<StepTime> rounds;
  std::vector<double> round_ops;
  std::string trace_sample;
  std::string metrics_snapshot;
  Attribution attribution;
};

void traced_layers(Run& run, Workload& w, const SpanTimes& spans,
                   const obs::MetricsSnapshot& snap, std::uint64_t ops,
                   std::uint64_t timed_allocs) {
  Report& rep = run.report;
  double timed = 0.0;
  for (const StepTime& t : run.rounds) timed += t.measured_s;
  const double rounds = static_cast<double>(run.rounds.size());

  // [R]: replay with obs off, so counters and trace stay as the run left
  // them.
  obs::set_enabled(false);
  const ReplayCosts c = w.replay(rep);
  const Attribution at = w.layers(rep, timed, snap, c);
  run.attribution = at;

  rep.metric("bench.timed_s", timed, "s");
  rep.metric("bench.rounds", rounds, "count");
  rep.metric("bench.allocs_per_round",
             rounds > 0 ? static_cast<double>(timed_allocs) / rounds : 0,
             "count");
  rep.metric("bench.allocs_per_op",
             ops ? static_cast<double>(timed_allocs) / static_cast<double>(ops)
                 : 0,
             "count");

  rep.metric("randgen.stream_ns", c.stream_ns, "ns");
  rep.metric("channel.link_regen_us", c.link_regen_us, "us");
  rep.metric("channel.link_regen_allocs", c.link_regen_allocs, "count");
  rep.metric("channel.pair_gain_scan_us", c.pair_gain_scan_us, "us");
  rep.metric("channel.evolve_us", c.evolve_us, "us");
  rep.metric("mac.probe_us", c.probe_us, "us");
  rep.metric("mac.probe_allocs", c.probe_allocs, "count");
  rep.metric("antenna.scoring_us", c.scoring_us, "us");
  rep.metric("estimation.codec_expand_us", c.expand_us, "us");
  rep.metric("estimation.codec_compress_us", c.compress_us, "us");
  rep.metric("estimation.codec_merge_us", c.merge_us, "us");
  rep.metric("estimation.codec_allocs", c.codec_allocs, "count");
  rep.metric("estimation.ml_solve_us", c.ml_solve_us, "us");
  rep.metric("estimation.ml_allocs_per_solve", c.ml_allocs, "count");
  rep.metric("obs.digest_add_ns", c.digest_add_ns, "ns");
  rep.metric("obs.digest_merge_us", c.digest_merge_us, "us");
  rep.metric("serve.track_step_us", c.track_step_us, "us");
  rep.metric("sim.make_trial_us", c.make_trial_us, "us");

  const auto share = [&](double s) {
    return at.base_s > 0 ? s / at.base_s : 0;
  };
  rep.metric("channel.frac", share(at.channel_s), "ratio");
  rep.metric("mac.frac", share(at.mac_s), "ratio");
  rep.metric("antenna.frac", share(at.antenna_s), "ratio");
  rep.metric("estimation.ml_frac", share(at.ml_s), "ratio");
  rep.metric("estimation.codec_frac", share(at.codec_s), "ratio");
  rep.metric("randgen.frac", share(at.randgen_s), "ratio");
  rep.metric("obs.frac", share(at.obs_s), "ratio");
  rep.metric("serve.track_frac", share(at.serve_track_s), "ratio");
  rep.metric("sim.frac", share(at.sim_s), "ratio");
  const double attributed = at.channel_s + at.mac_s + at.antenna_s + at.ml_s +
                            at.codec_s + at.randgen_s + at.obs_s +
                            at.serve_track_s + at.sim_s;
  rep.metric("layers.unattributed_frac", 1.0 - share(attributed), "ratio");

  // [C]: library counters of the timed phase.
  const double solves =
      static_cast<double>(counter(snap, "estimation.ml.solves"));
  rep.metric("estimation.ml_solves", solves, "count");
  rep.metric("estimation.ml_iterations_mean",
             histogram_mean(snap, "estimation.ml.iterations"), "count");
  rep.metric("estimation.ml_nonconverged_frac",
             solves > 0 ? static_cast<double>(counter(
                              snap, "estimation.ml.nonconverged")) /
                              solves
                        : 0.0,
             "ratio");
  rep.metric("estimation.nll_evals",
             static_cast<double>(counter(snap, "estimation.nll_evals")),
             "count");
  rep.metric("linalg.eig_jacobi_calls",
             static_cast<double>(counter(snap, "linalg.eig.jacobi_calls")),
             "count");
  rep.metric("linalg.eig_ql_calls",
             static_cast<double>(counter(snap, "linalg.eig.ql_calls")),
             "count");
  rep.metric("linalg.eig_sweeps_mean",
             histogram_mean(snap, "linalg.eig.jacobi_sweeps"), "count");
  rep.metric("antenna.scored_codewords",
             static_cast<double>(
                 counter(snap, "antenna.codebook.scored_codewords")),
             "count");
  rep.metric("core.strategy_slots",
             static_cast<double>(counter(snap, "core.strategy.slots")),
             "count");
  rep.metric("sim.trials", static_cast<double>(counter(snap, "sim.trials")),
             "count");
  rep.metric("track.probes", static_cast<double>(counter(snap, "track.probes")),
             "count");
  rep.metric("track.realignments",
             static_cast<double>(counter(snap, "track.realignments")),
             "count");
  rep.metric("track.handovers",
             static_cast<double>(counter(snap, "track.handovers")), "count");

  // [S]: span self times of the timed phase.
  const auto self_share = [&](const char* name) {
    return timed > 0 ? spans.self_s(name) / timed : 0.0;
  };
  rep.metric("estimation.ml_self_frac", self_share("estimation.ml.solve"),
             "ratio");
  rep.metric("core.strategy_slot_self_frac", self_share("core.strategy.slot"),
             "ratio");
  rep.metric("sim.trial_self_frac", self_share("sim.trial"), "ratio");
  rep.metric("trace.self_time_coverage",
             timed > 0 ? spans.all_self_s() / timed : 0.0, "ratio");
}

/// Alternates untraced and traced rounds after the measured phase:
/// traced/untraced − 1 over the pairs (their order alternates too).
double trace_overhead(Workload& w, NominalClock& clock, index_t next_round,
                      double budget_s) {
  obs::TraceCollector& tc = obs::TraceCollector::global();
  double plain = 0.0, traced = 0.0;
  const double start = now_s();
  for (int pair = 0; pair < 16 && (pair < 2 || now_s() - start < budget_s);
       ++pair) {
    const index_t r = next_round + static_cast<index_t>(pair);
    for (int side = 0; side < 2; ++side) {
      const bool on = (side == 0) == (pair % 2 == 1);
      obs::set_enabled(on);
      tc.set_capturing(on);
      clock.begin();
      w.round(r, on, clock);
      (on ? traced : plain) += clock.end().nominal_s;
      tc.clear();
    }
  }
  obs::set_enabled(false);
  tc.set_capturing(false);
  return plain > 0 ? traced / plain - 1.0 : 0.0;
}

Run run_workload(const WorkloadDef& def, const Options& o) {
  Run run;
  Report& rep = run.report;
  std::unique_ptr<Workload> w = def.make(o);
  NominalClock clock;

  for (int i = 0; i < kSetupRepeats; ++i) {
    clock.begin();
    w->setup();
    run.setups.push_back(clock.end());
  }

  obs::TraceCollector& tc = obs::TraceCollector::global();
  if (o.trace) {
    obs::Registry::global().reset();
    tc.clear();
    obs::set_enabled(true);
    tc.set_capturing(true);
  }
  SpanTimes spans;
  std::uint64_t ops = 0;
  std::uint64_t timed_allocs = 0;
  const double start = now_s();
  for (index_t r = 0; r < w->quality_rounds() || now_s() - start < o.seconds;
       ++r) {
    const std::uint64_t allocs0 = allocations();
    clock.begin();
    const std::uint64_t round_ops = w->round(r, o.trace, clock);
    run.rounds.push_back(clock.end());
    timed_allocs += allocations() - allocs0;
    ops += round_ops;
    run.round_ops.push_back(static_cast<double>(round_ops));
    if (o.trace) {
      // Fold the round's events in and drop them: memory stays bounded by
      // one round. The first round is kept as the trace sample.
      std::string json = tc.chrome_json();
      rep.check(spans.add_chrome_json(json), "trace document parses");
      if (run.trace_sample.empty()) run.trace_sample = std::move(json);
      tc.clear();
    }
  }
  rep.attempted = ops;

  obs::MetricsSnapshot snap;
  if (o.trace) {
    snap = obs::Registry::global().snapshot();
    run.metrics_snapshot = snap.to_json();
    tc.set_capturing(false);
  }
  w->finish(rep);

  if (!o.trace) {
    std::vector<double> setups, rounds;
    for (const StepTime& t : run.setups) setups.push_back(t.nominal_s);
    double rounds_s = 0.0;
    for (const StepTime& t : run.rounds) {
      rounds.push_back(t.nominal_s);
      rounds_s += t.nominal_s;
    }
    rep.metric("setup_s", median(setups), "s");
    rep.metric("ops_per_s",
               rounds_s > 0 ? static_cast<double>(ops) / rounds_s : 0, "1/s");
    rep.metric("round_p50_ms", median(rounds) * 1e3, "ms");
    rep.metric("peak_rss_mb",
               static_cast<double>(obs::peak_rss_bytes()) / 1e6, "MB");
    if (o.seed == def.default_seed && !o.smoke) w->golden(rep, o.repo_root);
  } else {
    traced_layers(run, *w, spans, snap, ops, timed_allocs);
    rep.metric("obs.trace_overhead_frac",
               trace_overhead(*w, clock, run.rounds.size(),
                              std::max(1.0, 0.1 * o.seconds)),
               "ratio");
  }
  return run;
}

/// Writes `text` to `path`; on failure says so on stderr and returns false.
bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  bool ok = f != nullptr &&
            std::fwrite(text.data(), 1, text.size(), f) == text.size();
  if (f != nullptr) ok = std::fclose(f) == 0 && ok;
  if (!ok) std::fprintf(stderr, "cannot write %s\n", path.c_str());
  return ok;
}

int usage() {
  std::fprintf(stderr,
               "usage: mmw_benchmark --workload NAME [--seed N] "
               "[--seconds S] [--trace 0|1] [--smoke] [--out DIR] "
               "[--repo-root DIR]\nworkloads:");
  for (const WorkloadDef& d : kWorkloads)
    std::fprintf(stderr, " %s (default seed %llu)", d.name,
                 static_cast<unsigned long long>(d.default_seed));
  std::fprintf(stderr, "\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  std::string out_dir;
  bool seed_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (a == "--smoke") {
      o.smoke = true;
      continue;
    }
    if (a != "--workload" && a != "--seed" && a != "--seconds" &&
        a != "--trace" && a != "--out" && a != "--repo-root")
      return usage();
    if ((v = value()) == nullptr) return usage();
    if (a == "--workload") o.workload = v;
    if (a == "--seed") {
      o.seed = std::strtoull(v, nullptr, 10);
      seed_given = true;
    }
    if (a == "--seconds") o.seconds = std::strtod(v, nullptr);
    if (a == "--trace") o.trace = std::strcmp(v, "0") != 0;
    if (a == "--out") out_dir = v;
    if (a == "--repo-root") o.repo_root = v;
  }
  const WorkloadDef* def = nullptr;
  for (const WorkloadDef& d : kWorkloads)
    if (o.workload == d.name) def = &d;
  if (def == nullptr || !(o.seconds > 0.0)) return usage();
  if (!seed_given) o.seed = def->default_seed;

  const Host host = calibrate();
  Run run = run_workload(*def, o);
  Report& rep = run.report;

  std::vector<std::string> missing;
  const std::vector<Metric> metrics =
      declared(rep, o.trace ? kPerLayer : kEndToEnd, missing);
  for (const std::string& m : missing)
    rep.check(false, "time metric " + m + " was not measured");

  const bool correct = rep.correct();
  const std::uint64_t failed = correct ? 0 : rep.attempted;
  for (const std::string& f : rep.failures())
    std::fprintf(stderr, "CHECK FAILED [%s]: %s\n", def->name, f.c_str());

  bool written = true;
  if (!out_dir.empty()) {
    std::filesystem::create_directories(out_dir);
    const std::string base = out_dir + "/" + def->name;
    obs::JsonWriter w;
    w.begin_object();
    w.key("workload");
    w.string(def->name);
    w.key("seed");
    w.number(o.seed);
    w.key("default_seed");
    w.boolean(o.seed == def->default_seed);
    w.key("trace");
    w.boolean(o.trace);
    w.key("smoke");
    w.boolean(o.smoke);
    w.key("seconds");
    w.number(o.seconds);
    w.key("correct");
    w.boolean(correct);
    w.key("attempted");
    w.number(rep.attempted);
    w.key("failed");
    w.number(failed);
    w.key("metrics");
    write_metrics(w, metrics);
    w.key("deterministic");
    w.begin_object();
    for (const auto& [name, value] : rep.deterministic()) {
      w.key(name);
      w.number(value);
    }
    w.end_object();
    w.key("failures");
    w.begin_array();
    for (const std::string& f : rep.failures()) w.string(f);
    w.end_array();
    const auto times = [&w](const char* key,
                            const std::vector<StepTime>& steps,
                            double StepTime::*field) {
      w.key(key);
      w.begin_array();
      for (const StepTime& t : steps) w.number(t.*field);
      w.end_array();
    };
    times("setup_s", run.setups, &StepTime::measured_s);
    times("setup_nominal_s", run.setups, &StepTime::nominal_s);
    times("round_s", run.rounds, &StepTime::measured_s);
    times("round_nominal_s", run.rounds, &StepTime::nominal_s);
    w.key("round_ops");
    w.begin_array();
    for (const double n : run.round_ops) w.number(n);
    w.end_array();
    w.key("host");
    w.begin_object();
    w.key("nproc");
    w.number(static_cast<std::uint64_t>(host.nproc));
    w.key("effective_parallelism");
    w.number(host.effective_parallelism);
    w.key("calibration_ms");
    w.number(host.calibration_ms);
    w.key("kernel_tier");
    w.string(mmw::linalg::kernels::active_tier_name());
    w.key("compiler");
    w.string(__VERSION__);
    w.key("driver_cxx_flags");
    w.string(MMW_BENCH_CXX_FLAGS);
    w.end_object();
    w.end_object();
    written = write_file(base + ".json", std::move(w).str());
    if (o.trace) {
      written = write_file(base + ".trace.json", run.trace_sample) && written;
      written =
          write_file(base + ".metrics.json", run.metrics_snapshot) && written;
      obs::JsonWriter l;
      l.begin_object();
      l.key("metrics");
      write_metrics(l, metrics);
      l.key("attributed_s");
      l.begin_object();
      const Attribution& at = run.attribution;
      const std::pair<const char*, double> parts[] = {
          {"base", at.base_s},       {"channel", at.channel_s},
          {"mac", at.mac_s},         {"antenna", at.antenna_s},
          {"estimation.ml", at.ml_s}, {"estimation.codec", at.codec_s},
          {"randgen", at.randgen_s}, {"obs", at.obs_s},
          {"serve.track", at.serve_track_s}, {"sim", at.sim_s}};
      for (const auto& [key, value] : parts) {
        l.key(key);
        l.number(value);
      }
      l.end_object();
      l.end_object();
      written =
          write_file(base + ".layers.json", std::move(l).str()) && written;
    }
  }
  if (!written) return 1;

  obs::JsonWriter w;
  w.begin_object();
  w.key("correct");
  w.boolean(correct);
  w.key("attempted");
  w.number(rep.attempted);
  w.key("failed");
  w.number(failed);
  w.key("metrics");
  write_metrics(w, metrics);
  w.end_object();
  std::printf("%s\n", w.str().c_str());
  return 0;
}
