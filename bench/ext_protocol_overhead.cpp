// Extension E2: net throughput after alignment overhead — the capacity
// argument from the paper's introduction. Schemes re-align once per frame;
// cheaper alignment leaves more of the frame for data.
#include <cmath>
#include <cstdio>

#include "fig_common.h"
#include "mac/timing.h"
#include "sim/evaluation.h"

int main(int argc, char** argv) {
  mmw::bench::Args args(argc, argv);
  mmw::bench::BenchRun run("ext_protocol_overhead", args);
  args.reject_unknown();
  using namespace mmw;
  using namespace mmw::sim;

  run.print_header("Extension E2",
                   "net spectral efficiency vs re-alignment period");

  Scenario sc = bench::paper_scenario(ChannelKind::kNycMultipath, 15);
  const mac::ProtocolTiming timing;

  // Operating points: (name, measurements L, TX-slots I).
  struct Point {
    const char* name;
    index_t measurements;
    index_t slots;
    const core::AlignmentStrategy* strategy;
  };
  core::ProposedAlignment proposed;
  core::RandomSearch random_search;
  core::ExhaustiveSearch exhaustive;
  const Point points[] = {
      {"proposed@10%", 102, 17, &proposed},
      {"random@10%", 102, 17, &random_search},
      {"exhaustive@100%", 1024, 16, &exhaustive},
  };

  // Mean post-beamforming SNR achieved by each scheme at its budget.
  std::map<std::string, real> mean_snr;
  randgen::Rng root(sc.seed);
  for (index_t t = 0; t < sc.trials; ++t) {
    randgen::Rng trial_rng = root.fork();
    const TrialContext ctx = make_trial(sc, trial_rng);
    for (const auto& p : points) {
      randgen::Rng run_rng = trial_rng.fork();
      mac::Session session(ctx.link, ctx.tx_codebook, ctx.rx_codebook,
                           sc.gamma, p.measurements, run_rng,
                           sc.fades_per_measurement);
      p.strategy->run(session);
      const auto best = best_in_prefix(session.records(),
                                       session.records().size());
      mean_snr[p.name] +=
          sc.gamma * ctx.oracle.gain(best.tx_beam, best.rx_beam) / sc.trials;
    }
  }

  std::printf("frame_ms");
  for (const auto& p : points) std::printf("\t%s", p.name);
  std::printf("\t(net bit/s/Hz)\n");
  for (const real frame_ms : {1.0, 2.0, 5.0, 10.0, 20.0, 50.0}) {
    std::printf("%.0f", frame_ms);
    for (const auto& p : points) {
      const real eff = timing.net_spectral_efficiency(
          p.measurements, p.slots, frame_ms * 1000.0, mean_snr[p.name]);
      std::printf("\t%.3f", eff);
    }
    std::printf("\n");
  }
  std::printf(
      "\nmean post-BF SNR: proposed=%.1f dB, random=%.1f dB, "
      "exhaustive=%.1f dB\n",
      10.0 * std::log10(mean_snr["proposed@10%"]),
      10.0 * std::log10(mean_snr["random@10%"]),
      10.0 * std::log10(mean_snr["exhaustive@100%"]));
  run.finish();
  return 0;
}
