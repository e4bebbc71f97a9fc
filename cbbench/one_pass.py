"""One workload pass in a fresh interpreter; prints one JSON line.

    python3 cbbench/one_pass.py --setup-only
    python3 cbbench/one_pass.py --probe
    python3 cbbench/one_pass.py --workload NAME --seed N [--trace]
    python3 cbbench/one_pass.py --workload NAME --seed N --speedup

``run.py`` starts one of these per pass, so no cache of the program
survives from one pass to the next.  The pass imports ``codebounds`` from
the checkout's ``src`` (timed: that is ``setup_s``), builds the workload's
inputs, issues its calls back to back with the clock running, and only then
runs the oracles.  ``--trace`` installs the span wrappers first;
``--speedup`` times one workers=1 against one workers=2 run instead, and
``--probe`` evaluates the certificate metrics on pinned regime points.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def import_program():
    """Import codebounds from the checkout; return it and the import time
    in raw seconds.  Import work (file reads, unmarshalling) does not slow
    down with the host as the reference loops of calib.py do, so scaling
    by them made this time spread more, not less."""
    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import codebounds
    setup_s = time.perf_counter() - t0
    where = os.path.dirname(os.path.abspath(codebounds.__file__))
    if where != os.path.join(SRC, "codebounds"):
        sys.exit(f"cbbench: imported codebounds from {where}, not {SRC}")
    return codebounds, setup_s


def run_pass(name: str, seed: int, traced: bool) -> dict:
    cb, setup_s = import_program()
    import numpy
    import spans
    import workloads

    wl = workloads.WORKLOADS[name]
    inputs = wl.inputs(seed)
    tracer = spans.Tracer() if traced else None
    missing = tracer.install() if tracer else []
    p = workloads.Pass(wl.reference)
    ledger = workloads.CertLedger()
    wl.run(p, inputs, ledger)
    p.meter.close()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer:
        tracer.enabled = False
    out = {
        "setup_s": setup_s,
        "wall_s": p.meter.ref_s,         # reference seconds, see calib.py
        "raw_wall_s": p.meter.raw_s,
        "ref_samples": p.meter.samples,
        "ref_stretches": p.meter.stretches,
        "peak_rss_mb": rss_mb,
        "words": sum(rec.words for rec in p.records),
        **judge(p, ledger),
        # backend_name() may be retired once only one backend is left
        "backend": getattr(cb, "backend_name", lambda: None)(),
        "numpy": numpy.__version__,
    }
    if tracer:
        out["layers"] = spans.layer_metrics(tracer.spans, p.meter.raw_s)
        out["missing_layers"] = missing
        out["spans"] = tracer.spans
    return out


def judge(p, ledger) -> dict:
    problems = p.judge()
    return {
        "attempted": len(p.records),
        "failed": len(problems),
        "problems": problems[:20],
        "cert_rel_slack_max": ledger.slack_max(),
        "eig_bound_coverage": ledger.coverage(),
    }


def run_probe() -> dict:
    """Certificate metrics on pinned regime points, for the workloads whose
    passes issue no certificate."""
    import_program()
    import workloads

    p = workloads.Pass()
    ledger = workloads.CertLedger()
    workloads.run_probe(p, ledger)
    return judge(p, ledger)


def _timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def run_speedups(name: str, seed: int) -> dict:
    """workers=1 time over workers=2 time, for the traced run only."""
    cb, _ = import_program()
    import workloads

    wl = workloads.WORKLOADS[name]
    inputs = wl.inputs(seed)
    out = {}
    if wl.biggest_scan:
        rows, n = wl.biggest_scan(inputs)
        t1, t2 = [_timed(lambda: cb.min_distance_of_rows(rows, n, workers=w))
                  for w in (1, 2)]
        out["distance.scan.workers2_speedup"] = t1 / t2
    if name == "bound-table":
        pairs = inputs[0]
        t1, t2 = [_timed(lambda: workloads.run_cli(
            workloads.table_argv(pairs, w))) for w in (1, 2)]
        out["cli.table.workers2_speedup"] = t1 / t2
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--speedup", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--probe", action="store_true")
    args = ap.parse_args()
    if args.setup_only:
        out = {"setup_s": import_program()[1]}
    elif args.probe:
        out = run_probe()
    elif args.speedup:
        out = run_speedups(args.workload, args.seed)
    else:
        out = run_pass(args.workload, args.seed, args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
