#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see benchmark/README.md).

    python3 benchmark/run.py                      # all workloads, default seeds
    python3 benchmark/run.py --trace              # the traced per-layer run
    python3 benchmark/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmark/run.py --smoke              # tiny sizes, no goldens
    python3 benchmark/run.py --selftest
    python3 benchmark/compare.py --parent DIR --change DIR   # paired A/B

The library is built by the root CMake project into build-bench/tier1
(library targets only) and the driver by benchmark/CMakeLists.txt into
build-bench/driver. Every workload runs in its own process at one thread.
Each metric is printed as `workload metric value unit`; with --workload the
last stdout line is the driver's JSON result. Result files go to
build-bench/results/<id>/. The exit status is non-zero when a build fails or
an output check fails.
"""

import argparse
import datetime
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / "build-bench"
TIER1 = BUILD / "tier1"
DRIVER_DIR = BUILD / "driver"
DRIVER = DRIVER_DIR / "mmw_benchmark"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
# Library targets the driver links (their dependencies come along).
LIB_TARGETS = ["mmw_serve", "mmw_track", "mmw_sim"]
RUN_TIMEOUT_S = 170
SMOKE_SECONDS = "0.5"
OTHER_SEED = "12345"


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def fail(msg, code=2):
    log(f"run.py: {msg}")
    sys.exit(code)


def _cmake(args, what):
    proc = subprocess.run(["cmake", *args], cwd=ROOT, capture_output=True,
                          text=True)
    if proc.returncode != 0:
        log((proc.stdout + proc.stderr)[-4000:])
        fail(f"{what} failed")


def _configure(source, build_dir, extra):
    cache = build_dir / "CMakeCache.txt"
    if cache.exists():
        home = [line for line in cache.read_text().splitlines()
                if line.startswith("CMAKE_HOME_DIRECTORY:")]
        if home and Path(home[0].split("=", 1)[1]) == source:
            return
        shutil.rmtree(build_dir)  # configured from another checkout
    generator = ["-G", "Ninja"] if shutil.which("ninja") else []
    _cmake(["-S", str(source), "-B", str(build_dir), *generator,
            "-DCMAKE_BUILD_TYPE=Release", *extra],
           f"configuring {build_dir.name}")


def build():
    """Builds the tier-1 library archives, then the driver against them."""
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail("no source tree next to benchmark/ (need CMakeLists.txt and src/)")
    if shutil.which("cmake") is None:
        fail("cmake not found")
    jobs = str(min(4, os.cpu_count() or 1))
    _configure(ROOT, TIER1, [])
    _cmake(["--build", str(TIER1), "-j", jobs, "--target", *LIB_TARGETS],
           "building the library")
    _configure(HERE, DRIVER_DIR, [f"-DMMW_TIER1_DIR={TIER1}"])
    _cmake(["--build", str(DRIVER_DIR), "-j", jobs], "building the driver")


def commit():
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                          capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def tier1_flags():
    cache = TIER1 / "CMakeCache.txt"
    flags = {}
    for line in cache.read_text().splitlines():
        for key in ("CMAKE_CXX_FLAGS:", "CMAKE_CXX_FLAGS_RELEASE:",
                    "CMAKE_BUILD_TYPE:", "CMAKE_CXX_COMPILER:"):
            if line.startswith(key):
                flags[key.rstrip(":")] = line.split("=", 1)[1]
    return flags


def new_results_dir():
    stamp = datetime.datetime.now(datetime.timezone.utc).strftime(
        "%Y%m%dT%H%M%SZ")
    path = BUILD / "results" / f"{stamp}-{commit()[:12]}-{os.getpid()}"
    path.mkdir(parents=True, exist_ok=True)
    return path


def run_driver(workload, out_dir, seed=None, seconds=None, trace=False,
               smoke=False):
    """Runs one workload in its own process; returns (result, detail)."""
    cmd = [str(DRIVER), "--workload", workload, "--trace",
           "1" if trace else "0", "--out", str(out_dir), "--repo-root",
           str(ROOT), "--seconds",
           str(seconds if seconds is not None else SPEC["run_seconds"])]
    if seed is not None:
        cmd += ["--seed", str(seed)]
    if smoke:
        cmd.append("--smoke")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"{workload} exited with status {proc.returncode}")
    result = json.loads(lines[-1])
    detail = json.loads((out_dir / f"{workload}.json").read_text())
    return result, detail


def print_metrics(workload, result):
    for name, m in result["metrics"].items():
        print(f"{workload} {name} {m['value']!r} {m['unit']}")


def write_manifest(out_dir, seconds, results):
    manifest = {
        "commit": commit(),
        "argv": sys.argv[1:],
        "tier1": tier1_flags(),
        "seconds": float(seconds if seconds is not None
                         else SPEC["run_seconds"]),
        "workloads": {w: {"correct": r["correct"], "attempted": r["attempted"],
                          "failed": r["failed"]}
                      for w, r in results.items()},
    }
    (out_dir / "run.json").write_text(json.dumps(manifest, indent=2) + "\n")


def declared(trace):
    return {m["name"]: m["unit"]
            for m in SPEC["per_layer" if trace else "end_to_end"]}


def selftest():
    """The benchmark's own contract, checked from outside on smoke runs."""
    problems = []
    out = new_results_dir() / "selftest"
    for w in WORKLOADS:
        runs = {}
        for label, trace, seed in (("a", False, None), ("b", False, None),
                                   ("traced", True, None),
                                   ("other_seed", False, OTHER_SEED)):
            d = out / label
            result, detail = run_driver(w, d, seed=seed,
                                        seconds=SMOKE_SECONDS, trace=trace,
                                        smoke=True)
            runs[label] = (result, detail)
            want = declared(trace)
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            if got != want:
                problems.append(f"{w}/{label}: metrics {sorted(got)} with "
                                f"units differ from the declared {want}")
            if not result["correct"]:
                problems.append(f"{w}/{label}: output checks failed: "
                                f"{detail['failures'][:3]}")
        base = runs["a"][1]["deterministic"]
        for label in ("b", "traced"):
            other = runs[label][1]["deterministic"]
            if other != base:
                problems.append(f"{w}: deterministic values of run "
                                f"'{label}' {other} differ from {base}")
        log(f"selftest {w}: {'ok' if not problems else 'problems so far'}")
    for p in problems:
        log(f"SELFTEST FAILED: {p}")
    print(json.dumps({"selftest": "fail" if problems else "ok",
                      "problems": len(problems)}))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float)
    ap.add_argument("--trace", nargs="?", const="1", default="0",
                    choices=["0", "1"])
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--selftest", action="store_true")
    ap.add_argument("--out", type=Path,
                    help="results directory (default build-bench/results/<id>)")
    args = ap.parse_args()

    build()
    if args.selftest:
        return selftest()

    out_dir = args.out.resolve() if args.out else new_results_dir()
    out_dir.mkdir(parents=True, exist_ok=True)
    trace = args.trace == "1"
    seconds = SMOKE_SECONDS if args.smoke and args.seconds is None \
        else args.seconds
    results = {}
    for w in ([args.workload] if args.workload else WORKLOADS):
        result, detail = run_driver(w, out_dir, seed=args.seed,
                                    seconds=seconds, trace=trace,
                                    smoke=args.smoke)
        results[w] = result
        print_metrics(w, result)
        if not result["correct"]:
            log(f"{w}: output checks failed: {detail['failures'][:5]}")
    write_manifest(out_dir, seconds, results)
    log(f"results in {out_dir}")
    if args.workload:
        print(json.dumps(results[args.workload]))
    ok = all(r["correct"] for r in results.values())
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
