#!/usr/bin/env python3
"""Gate performance against the committed baselines.

One script, one JSON loader, one calibrated ratio table; each gate runs
when its inputs are given and the exit status is 0 only if every requested
gate passes.

**Slot-cycle gate** (``--current``). The observability layer (src/obs/) is
compiled into every hot path; disabled, its only cost is one relaxed atomic
load per instrumentation site. The BM_SlotCycle* timings of fresh
google-benchmark JSON runs must therefore stay within --tolerance (default
3%) of the committed baseline (bench_results/BENCH_micro_linalg.json),
which also catches accidental de-optimization of the per-slot hot path (a
dropped kernel dispatch, a reintroduced per-codeword temporary, a scoring
workspace that stopped reusing memory). Raw nanoseconds are not comparable across
machines, so the current run is rescaled by the median current/baseline
ratio over calibration benchmarks whose code paths carry no
instrumentation (pure dense linear algebra): the machine-speed difference
cancels while a regression isolated to the slot cycle still shows. Pass
--no-calibrate for a strict same-machine comparison. --current may repeat
and repeated rows within one file (--benchmark_repetitions) fold together;
the per-benchmark minimum is compared, the standard de-noising for
time-based microbenchmarks.

**Flight-recorder gate** (``--flight-on``/``--flight-off``). TraceScope
feeds per-thread ring buffers even when obs is disabled (flight.h), so the
"disabled" hot path carries the ring write. Give runs of the SAME binary on
the SAME machine, armed and under MMW_FLIGHT=off; the MEDIAN armed/disarmed
ratio over the gated benchmarks must stay within --tolerance. The
recorder's cost is systematic — it moves every instrumented bench together
— while scheduler noise is idiosyncratic per bench and routinely exceeds 3%
either way on shared runners. No calibration applies: both sides share the
machine. Set MMW_FLIGHT=on explicitly on the armed side: the two
environments must have EQUAL length, because an extra env var shifts the
initial stack alignment and that alone skews short microbenches by ~10%
(Mytkowicz et al., "Producing Wrong Data Without Doing Anything Obviously
Wrong", ASPLOS'09).

**Serving gate** (``--serving-current``). The committed
bench_results/BENCH_serving.json records the E9 serving sweep. A fresh
BENCH_serving.json — any subset of its scales, e.g. a 10k smoke — must keep
(a) bytes_per_session at or below the baseline (the slab accounting is
deterministic, so any growth is real) with the session struct inside its
byte budget; (b) users/sec/core within --serving-tolerance (default 50% —
across heterogeneous uncalibrated runners this is a tripwire for
order-of-magnitude regressions, not a precision gate); (c) loss_p99_db at
most --loss-tolerance-db (default 0.5 dB) above the baseline, skipped per
scale when either file lacks the field.

Usage:
  python3 tools/check_perf.py --current BENCH_micro_linalg.json \\
      --current run2.json
  python3 tools/check_perf.py --current new.json --baseline old.json \\
      --no-calibrate
  MMW_FLIGHT=off ./bench/micro_linalg --benchmark_format=json > off.json
  MMW_FLIGHT=on  ./bench/micro_linalg --benchmark_format=json > on.json
  python3 tools/check_perf.py --flight-on on.json --flight-off off.json
  python3 tools/check_perf.py \\
      --serving-current bench_results/BENCH_serving.json

Only the Python standard library is used.
"""

import argparse
import json
import statistics
import sys

# Benchmarks the slot-cycle and flight gates protect: the per-slot hot
# loop of the proposed alignment strategy (codebook scoring + covariance
# update), with and without the ML solver in the loop.
GATED_PREFIX = "BM_SlotCycle"

# Instrumentation-free benchmarks used to cancel machine-speed differences.
# These must not touch obs-instrumented code (no eig, no solver, no
# codebook scoring entry points).
CALIBRATION_PREFIXES = (
    "BM_MatrixMultiply",
    "BM_AddScaledOuter",
    "BM_OuterTemporaryAdd",
    "BM_SteeringVector",
)

MICRO_BASELINE = "bench_results/BENCH_micro_linalg.json"
SERVING_BASELINE = "bench_results/BENCH_serving.json"
SERVING_SCHEMA = "mmw.serving_bench/1"


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    sys.exit(1)


def load_json(path):
    """Loads a JSON document, exiting with a one-line diagnosis (not a
    traceback) when the file is missing or malformed — the two ways a CI
    misconfiguration usually presents."""
    try:
        with open(path) as f:
            return json.load(f)
    except FileNotFoundError:
        fail(f"{path} not found\n  (did the bench step run, and is the "
             f"path relative to the repo root?)")
    except json.JSONDecodeError as e:
        fail(f"{path} is not valid JSON ({e})\n  (a truncated or "
             f"interleaved bench run can corrupt the file; regenerate it)")


def load_times(paths):
    """{benchmark name: min real_time in ns} over google-benchmark JSON
    files; repeated rows for one name keep the minimum."""
    times = {}
    for path in paths:
        for b in load_json(path).get("benchmarks", []):
            if b.get("run_type", "iteration") != "iteration":
                continue  # skip aggregate rows (mean/median/stddev)
            scale = {"ns": 1.0, "us": 1e3, "ms": 1e6,
                     "s": 1e9}[b.get("time_unit", "ns")]
            name = b["name"].split("/repeats:")[0]
            t = float(b["real_time"]) * scale
            times[name] = min(times.get(name, t), t)
    return times


def ratio_table(base, cur, prefix, scale, labels):
    """Prints and returns {name: cur / (base · scale)} for every `prefix`
    benchmark present in both maps."""
    gated = sorted(n for n in base if n.startswith(prefix) and n in cur)
    if not gated:
        fail(f"no benchmarks matching '{prefix}' present in both inputs "
             f"(baseline has {len(base)}, current has {len(cur)}; was the "
             f"right JSON passed, and does --filter match its names?)")
    print(f"{'benchmark':<40} {labels[0]:>14} {labels[1]:>14} {'ratio':>8}")
    ratios = {}
    for name in gated:
        ratios[name] = cur[name] / (base[name] * scale)
        print(f"{name:<40} {base[name]:>14.0f} {cur[name]:>14.0f} "
              f"{ratios[name]:>8.4f}")
    return ratios


def verdict(ok, what):
    print(f"\n{'OK' if ok else 'FAIL'}: {what}",
          file=sys.stdout if ok else sys.stderr)
    return 0 if ok else 1


def check_slot_cycle(args):
    base = load_times(args.baseline or [MICRO_BASELINE])
    cur = load_times(args.current)
    scale = 1.0
    if not args.no_calibrate:
        calib = [cur[n] / base[n] for n in base
                 if n.startswith(CALIBRATION_PREFIXES) and n in cur
                 and base[n] > 0.0]
        if not calib:
            fail("no calibration benchmarks in common; rerun with "
                 "--no-calibrate")
        scale = statistics.median(calib)
        print(f"machine-speed scale factor (median over {len(calib)} "
              f"calibration benches): {scale:.4f}")
    ratios = ratio_table(base, cur, args.filter, scale,
                         ("baseline ns", "current ns"))
    over = [n for n, r in ratios.items() if r > 1.0 + args.tolerance]
    return verdict(not over,
                   f"{len(ratios) - len(over)}/{len(ratios)} slot-cycle "
                   f"benchmarks within {args.tolerance:.0%} of baseline"
                   + (": over budget " + ", ".join(over) if over else ""))


def check_flight(args):
    print("flight-recorder overhead (armed vs MMW_FLIGHT=off, same machine, "
          "no calibration):")
    ratios = ratio_table(load_times(args.flight_off),
                         load_times(args.flight_on), args.filter, 1.0,
                         ("off ns", "on ns"))
    med = statistics.median(ratios.values())
    return verdict(med <= 1.0 + args.tolerance,
                   f"median armed/disarmed ratio {med:.4f} vs the "
                   f"{args.tolerance:.0%} flight-recorder budget over "
                   f"{len(ratios)} benchmark(s)")


def load_serving(path):
    doc = load_json(path)
    if doc.get("schema") != SERVING_SCHEMA:
        fail(f"{path} has schema {doc.get('schema')!r}, expected "
             f"{SERVING_SCHEMA!r} (is this a BENCH_serving.json written by "
             f"ext_serving_throughput?)")
    scales = {s["sessions"]: s for s in doc.get("scales", [])}
    if not scales:
        fail(f"{path} contains no scales — the sweep produced no results")
    return doc, scales


def check_serving(args):
    baseline_path = args.serving_baseline or SERVING_BASELINE
    base_doc, base_scales = load_serving(baseline_path)
    cur_doc, cur_scales = load_serving(args.serving_current)
    common = sorted(set(base_scales) & set(cur_scales))
    if not common:
        fail(f"no common session scales between {baseline_path} (has "
             f"{sorted(base_scales)}) and {args.serving_current} (has "
             f"{sorted(cur_scales)})")

    failed = []
    budget = cur_doc.get("session_byte_budget",
                         base_doc.get("session_byte_budget", 0))
    if budget and cur_doc.get("session_struct_bytes", 0) > budget:
        print(f"sizeof(UserSession) = {cur_doc['session_struct_bytes']} B "
              f"exceeds the {budget} B per-session budget", file=sys.stderr)
        failed.append("session_struct_bytes")

    print(f"{'sessions':>10} {'base users/s/core':>18} "
          f"{'cur users/s/core':>18} {'B/sess base':>12} {'cur':>8} "
          f"{'p99 base':>9} {'cur':>7}")
    for sessions in common:
        base, cur = base_scales[sessions], cur_scales[sessions]
        checks = {
            "throughput": cur["users_per_sec_per_core"] >=
            base["users_per_sec_per_core"] * (1.0 - args.serving_tolerance),
            # Deterministic slab math: only float rounding slack.
            "bytes_per_session": cur["bytes_per_session"] <=
            base["bytes_per_session"] * 1.001,
        }
        # p99 loss is deterministic per (config, seed), but a smoke may run
        # a different epoch count than the committed sweep: a small dB
        # slack absorbs the horizon while a broken estimator moves p99 by
        # many dB.
        base_p99, cur_p99 = base.get("loss_p99_db"), cur.get("loss_p99_db")
        if base_p99 is not None and cur_p99 is not None:
            checks["loss_p99_db"] = cur_p99 <= base_p99 + args.loss_tolerance_db
        failed += [f"{sessions}:{k}" for k, ok in checks.items() if not ok]
        print(f"{sessions:>10} {base['users_per_sec_per_core']:>18.0f} "
              f"{cur['users_per_sec_per_core']:>18.0f} "
              f"{base['bytes_per_session']:>12.1f} "
              f"{cur['bytes_per_session']:>8.1f} "
              f"{'-' if base_p99 is None else format(base_p99, '>9.2f')} "
              f"{'-' if cur_p99 is None else format(cur_p99, '>7.2f')}"
              f"  {'ok' if all(checks.values()) else 'FAIL'}")
    return verdict(not failed,
                   f"serving gate vs {baseline_path} over {len(common)} "
                   f"scale(s)" + (": " + ", ".join(failed) if failed else ""))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--current", action="append",
                        help="google-benchmark JSON from this build "
                             "(repeatable; per-benchmark minimum is used)")
    parser.add_argument("--baseline", action="append",
                        help=f"baseline JSON (repeatable; default: "
                             f"{MICRO_BASELINE})")
    parser.add_argument("--tolerance", type=float, default=0.03,
                        help="allowed fractional slowdown of the slot-cycle "
                             "and flight gates (default: %(default)s)")
    parser.add_argument("--filter", default=GATED_PREFIX,
                        help="benchmark-name prefix to gate "
                             "(default: %(default)s)")
    parser.add_argument("--no-calibrate", action="store_true",
                        help="compare raw times (same-machine runs only)")
    parser.add_argument("--flight-on", action="append",
                        help="bench JSON with the flight recorder armed "
                             "(repeatable; per-benchmark minimum is used)")
    parser.add_argument("--flight-off", action="append",
                        help="bench JSON recorded under MMW_FLIGHT=off on "
                             "the same machine as --flight-on")
    parser.add_argument("--serving-current",
                        help="fresh BENCH_serving.json to gate against the "
                             "committed serving baseline")
    parser.add_argument("--serving-baseline",
                        help=f"serving baseline JSON (default: "
                             f"{SERVING_BASELINE})")
    parser.add_argument("--serving-tolerance", type=float, default=0.5,
                        help="allowed fractional users/sec/core shortfall "
                             "(default: %(default)s)")
    parser.add_argument("--loss-tolerance-db", type=float, default=0.5,
                        help="allowed absolute p99 alignment-loss increase "
                             "in dB (default: %(default)s)")
    args = parser.parse_args()

    if bool(args.flight_on) != bool(args.flight_off):
        parser.error("--flight-on and --flight-off must be given together")
    if not (args.current or args.flight_on or args.serving_current):
        parser.error("nothing to gate: pass --current, --flight-on/"
                     "--flight-off and/or --serving-current")

    status = 0
    if args.current:
        status |= check_slot_cycle(args)
    if args.flight_on:
        status |= check_flight(args)
    if args.serving_current:
        status |= check_serving(args)
    return status


if __name__ == "__main__":
    sys.exit(main())
