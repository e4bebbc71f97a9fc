"""codebounds benchmark: one workload, measured for a fixed time.

    python3 cbbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The program is imported from ``src``;
nothing is built or installed.  Each pass runs in a fresh interpreter
(``one_pass.py``): one client issues public-API calls back to back with
workers=1, then checks every result against an independent oracle.  Passes
repeat until the next one would end after ``--seconds``.

With ``--trace 0`` the last stdout line reports the end-to-end metrics of
BENCHMARK.json, as medians over the passes; times are in reference seconds,
corrected for the host's drifting speed (``calib.py``).  With ``--trace 1`` it reports
the per-layer metrics, from passes run with span wrappers installed, plus
one untraced pass (for the tracing overhead) and one workers=1 against
workers=2 timing.  The line before it records the environment, and a full
report, spans included, goes to ``.cbbench_out/``.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import spans          # stdlib only; the parent never imports codebounds

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".cbbench_out")
WORKLOADS = ("cyclic-verify", "span-scan", "bound-table", "proof-replay")
RUN_LIMIT_S = 170          # a run must end within 180 s, children included

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mb": "MiB",
    "fail_ratio": "ratio",
    "codewords_per_s": "1/s",
    "cert_rel_slack_max": "ratio",
    "eig_bound_coverage": "ratio",
}


class HarnessError(RuntimeError):
    """The benchmark itself could not run; no result is printed."""


def child(args: list[str], started: float) -> dict:
    budget = RUN_LIMIT_S - (time.perf_counter() - started)
    if budget <= 0:
        raise HarnessError("run time limit reached")
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "one_pass.py"), *args],
            cwd=ROOT, capture_output=True, text=True, timeout=budget)
    except subprocess.TimeoutExpired as exc:
        raise HarnessError(f"pass {args} timed out") from exc
    if proc.returncode != 0:
        raise HarnessError(f"pass {args} exited {proc.returncode}:\n"
                           f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def environment(sample: dict) -> dict:
    sha = dirty = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        def git(*cmd):
            return subprocess.run(["git", "-C", ROOT, *cmd],
                                  capture_output=True, text=True).stdout
        sha = git("rev-parse", "HEAD").strip() or None
        dirty = bool(git("status", "--porcelain", "--untracked-files=no"))
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "python": platform.python_version(),
        "numpy": sample["numpy"],
        "backend": sample["backend"],
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "nproc": os.cpu_count(),
    }


def end_to_end(passes: list[dict], probe: dict) -> dict:
    """Medians over passes; the certificate metrics come from the probe when
    the workload's passes issue no certificate."""
    med = statistics.median
    certs = [probe] if probe else passes
    extra_f = probe["failed"] if probe else 0
    extra_a = probe["attempted"] if probe else 0
    return {
        "setup_s": med(p["setup_s"] for p in passes),
        "wall_s": med(p["wall_s"] for p in passes),
        "peak_rss_mb": med(p["peak_rss_mb"] for p in passes),
        # rule of succession over the worst pass: (failed + 1)/(attempted
        # + 2) is never 0, and one failed call at least doubles it
        "fail_ratio": max((p["failed"] + extra_f + 1)
                          / (p["attempted"] + extra_a + 2) for p in passes),
        "codewords_per_s": med(p["words"] / p["wall_s"] for p in passes),
        "cert_rel_slack_max": med(p["cert_rel_slack_max"] for p in certs),
        "eig_bound_coverage": med(p["eig_bound_coverage"] for p in certs),
    }


def per_layer(passes: list[dict], untraced: dict, speedups: dict) -> dict:
    out = {name: statistics.median(p["layers"][name] for p in passes)
           for name in passes[0]["layers"]}
    out["trace.span_coverage"] = min(p["layers"]["trace.span_coverage"]
                                     for p in passes)
    out["trace.wall_s"] = statistics.median(p["raw_wall_s"] for p in passes)
    out["trace.overhead_s"] = out["trace.wall_s"] - untraced["raw_wall_s"]
    for name in ("distance.scan.workers2_speedup",
                 "cli.table.workers2_speedup"):
        out[name] = speedups.get(name, 0.0)     # 0: not timed here
    units = spans.metric_units()
    if set(out) != set(units):
        raise HarnessError(f"layer metrics {sorted(set(out) ^ set(units))} "
                           "differ from the declared list")
    return {name: {"value": out[name], "unit": units[name][0]}
            for name in sorted(out)}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join(ROOT, "src", "codebounds",
                                       "__init__.py")):
        print(f"cbbench: no codebounds sources under {ROOT}/src",
              file=sys.stderr)
        return 2
    started = time.perf_counter()
    pass_args = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        child(["--setup-only"], started)     # byte-compiles a fresh checkout
        untraced = speedups = None
        if args.trace:
            untraced = child(pass_args, started)
            speedups = child(pass_args + ["--speedup"], started)
            pass_args.append("--trace")
        passes = []
        t0 = time.perf_counter()
        while True:
            passes.append(child(pass_args, started))
            elapsed = time.perf_counter() - t0
            if elapsed + elapsed / len(passes) > args.seconds:
                break
        probe = None
        if not args.trace and passes[0]["cert_rel_slack_max"] is None:
            probe = child(["--probe"], started)
    except HarnessError as exc:
        print(f"cbbench: {exc}", file=sys.stderr)
        return 1
    if args.trace:
        metrics = per_layer(passes, untraced, speedups)
    else:
        metrics = {name: {"value": value, "unit": END_TO_END[name]}
                   for name, value in end_to_end(passes, probe).items()}
    checked = passes + ([probe] if probe else [])
    attempted = sum(p["attempted"] for p in checked)
    failed = sum(p["failed"] for p in checked)
    for p in checked:
        for problem in p["problems"]:
            print(f"cbbench: FAILED {problem}", file=sys.stderr)
    env = environment(passes[0])
    os.makedirs(OUT_DIR, exist_ok=True)
    report = os.path.join(
        OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(report, "w") as fh:
        json.dump({"args": vars(args), "env": env, "untraced": untraced,
                   "speedups": speedups, "probe": probe, "passes": passes,
                   "metrics": metrics}, fh)
    print("cbbench-env " + json.dumps(env))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
