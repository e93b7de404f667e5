#!/usr/bin/env python3
"""Paired A/B comparison of two source checkouts on the benchmark.

    python3 benchmark/compare.py --parent DIR --change DIR [--pairs 10]
        [--workload NAME ...]

Each side runs its own benchmark/run.py (the benchmark code must be the same
on both sides: a change that claims a gain may not edit it) for the run
length BENCHMARK.json sets. Pair i runs both sides at seed SEED_BASE + i,
alternating which side goes first. For every end-to-end metric and workload
the report gives each side's median and quartiles, the change's wins out of
the pairs (ties count for neither) and a verdict:

  gain        the change wins at least 9 of every 10 pairs and the medians
              differ by more than the parent's own spread (its IQR);
  regression  the change's median is worse than the parent's by more than
              the metric's bound (BENCHMARK.json), or the parent wins at
              least 9 of every 10 pairs and the medians differ by more than
              the parent's IQR (a slowdown inside the bound that the pairs
              still resolve);
  unresolved  the parent's spread exceeds the bound, so "no regression"
              cannot be shown — unless every change run beats every parent
              run;
  unchanged   otherwise.

It also reports each side's failed/attempted ops (a gain does not count when
the change fails more) and any deterministic output that differs between the
sides at the same seed. Exit status: 1 when any regression or failure is
found, else 0.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent /
                   "BENCHMARK.json").read_text())
SEED_BASE = 1000


def run_side(checkout, workload, seed, out_dir):
    cmd = [sys.executable, str(checkout / "benchmark" / "run.py"),
           "--workload", workload, "--seed", str(seed), "--trace", "0",
           "--out", str(out_dir)]
    proc = subprocess.run(cmd, cwd=checkout, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{checkout}: {workload} seed {seed} produced no "
                         f"result (status {proc.returncode})")
    result = json.loads(lines[-1])
    detail = json.loads((out_dir / f"{workload}.json").read_text())
    return result, detail.get("deterministic", {})


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent, change, better, bound):
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    losses = sum(1 for p, c in zip(parent, change) if sign * (c - p) < 0)
    p1, pm, p3 = quartiles(parent)
    _, cm, _ = quartiles(change)
    iqr = p3 - p1
    clear = abs(cm - pm) > iqr
    if wins >= 0.9 * len(parent) and sign * (cm - pm) > 0 and clear:
        return "gain", wins
    if sign * (cm - pm) < -bound * abs(pm) or (
            losses >= 0.9 * len(parent) and sign * (cm - pm) < 0 and clear):
        return "regression", wins
    all_better = (min(change) > max(parent) if sign > 0
                  else max(change) < min(parent))
    if pm and iqr / abs(pm) > bound and not all_better:
        return "unresolved", wins
    return "unchanged", wins


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True)
    ap.add_argument("--change", type=Path, required=True)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--workload", action="append",
                    choices=[w["name"] for w in SPEC["workloads"]])
    ap.add_argument("--out", type=Path, default=Path("build-bench/compare"))
    args = ap.parse_args()
    if args.pairs < 10:
        ap.error("a gain needs at least 10 pairs")

    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    workloads = args.workload or [w["name"] for w in SPEC["workloads"]]
    bad = False
    report = {}
    for w in workloads:
        values = {s: {} for s in sides}
        ops = {s: [0, 0] for s in sides}
        moved = []
        for i in range(args.pairs):
            seed = SEED_BASE + i
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            det = {}
            for side in order:
                out = (args.out / side / w / str(seed)).resolve()
                result, det[side] = run_side(sides[side], w, seed, out)
                ops[side][0] += result["attempted"]
                ops[side][1] += result["failed"]
                for name, m in result["metrics"].items():
                    values[side].setdefault(name, []).append(m["value"])
            if det["parent"] != det["change"]:
                moved.append(seed)
            print(f"{w}: pair {i + 1}/{args.pairs} done", file=sys.stderr)

        rows = []
        for m in SPEC["end_to_end"]:
            p, c = values["parent"][m["name"]], values["change"][m["name"]]
            v, wins = verdict(p, c, m["better"], m["bound"])
            bad |= v == "regression"
            rows.append({"metric": m["name"], "unit": m["unit"],
                         "parent": quartiles(p), "change": quartiles(c),
                         "wins": wins, "pairs": len(p), "verdict": v})
        fail = {s: (f / a if a else 0.0) for s, (a, f) in ops.items()}
        bad |= fail["change"] > 0 or fail["parent"] > 0
        report[w] = {"rows": rows, "fail_frac": fail,
                     "deterministic_moved_at_seeds": moved}

        print(f"\n== {w}")
        print(f"{'metric':16s} {'parent median [q1, q3]':>34s} "
              f"{'change median [q1, q3]':>34s} {'wins':>7s}  verdict")
        for r in rows:
            fmt = lambda q: f"{q[1]:.6g} [{q[0]:.6g}, {q[2]:.6g}]"
            gain_blocked = (r["verdict"] == "gain"
                            and fail["change"] > fail["parent"])
            print(f"{r['metric']:16s} {fmt(r['parent']):>34s} "
                  f"{fmt(r['change']):>34s} {r['wins']:>3d}/{r['pairs']:<3d}  "
                  f"{'not a gain: more ops failed' if gain_blocked else r['verdict']}")
        print(f"fail_frac parent {fail['parent']:.4g} change "
              f"{fail['change']:.4g}")
        if moved:
            print(f"deterministic outputs differ at seeds {moved}")

    args.out.mkdir(parents=True, exist_ok=True)
    (args.out / "compare.json").write_text(json.dumps(report, indent=2) + "\n")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
