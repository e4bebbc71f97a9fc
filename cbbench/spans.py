"""Per-layer tracing for one pass: wrappers installed on module attributes.

Each traced public function is replaced, wherever the package holds a
reference to it (its defining module, re-exports such as ``bounds.certify``,
``fourier.vol`` or the package namespace, and the class for
``FieldContext.minimal_polynomial``), by a wrapper that records one span:
(name, parent span id, start, end, exception type).  Spans stay in memory
until the pass ends.  Work counts are computed from each call's arguments,
not measured inside the program, and are labelled ``computed`` in
``COMPUTED``.
"""

from __future__ import annotations

import functools
import inspect
import math
import sys
import time

# (layer name, module under codebounds, attribute path)
TARGETS = [
    ("gf2.field_create", "gf2", "field_create"),
    ("gf2.minimal_polynomial", "gf2", "FieldContext.minimal_polynomial"),
    ("cyclic.build_code", "cyclic", "build_code"),
    ("cyclic.bch_certificate", "cyclic", "bch_certificate"),
    ("cyclic.best_bch_distance", "cyclic", "best_bch_distance"),
    ("cyclic.encode", "cyclic", "encode"),
    ("kernels.weight_scan", "_kernels", "weight_scan"),
    ("kernels.max_clique", "_kernels", "max_clique"),
    ("distance.weight_distribution", "distance", "weight_distribution"),
    ("distance.weight_distribution_of_rows", "distance",
     "weight_distribution_of_rows"),
    ("distance.min_distance", "distance", "min_distance"),
    ("distance.min_distance_of_rows", "distance", "min_distance_of_rows"),
    ("distance.exact_A_search", "distance", "exact_A_search"),
    ("spectrum.certify", "spectrum", "certify"),
    ("spectrum.top_eigenvalue", "spectrum", "top_eigenvalue"),
    ("spectrum.rayleigh_quotient", "spectrum", "rayleigh_quotient"),
    ("spectrum.asymptotic_constant", "spectrum", "asymptotic_constant"),
    ("bounds.vol", "bounds", "vol"),
    ("bounds.new_upper", "bounds", "new_upper"),
    ("bounds.ball_certificate", "bounds", "ball_certificate"),
    ("bounds.best_new_upper", "bounds", "best_new_upper"),
    ("bounds.gv_lower", "bounds", "gv_lower"),
    ("bounds.hamming_upper", "bounds", "hamming_upper"),
    ("fourier.identity_suite", "fourier", "identity_suite"),
    ("fourier.covering_replay", "fourier", "covering_replay"),
    ("fourier.wht_unnormalized", "fourier", "wht_unnormalized"),
    ("fourier.convolve", "fourier", "convolve"),
    ("fourier.adjacency_apply", "fourier", "adjacency_apply"),
    ("cli.main", "cli", "main"),
    ("cli.bound_rows", "cli", "bound_rows"),
]


def _scan_counts(a):
    n = a["n"]
    stop = a["stop"] if a["stop"] is not None else 1 << len(a["rows"])
    words = stop - a["start"]
    return {"words": words, "bytes_computed": words * 8 * max(1, -(-n // 64))}


def _clique_edges(a):
    n, d = a["n"], a["d"]
    if d <= 1:
        return {"edges_tested": 0}
    v = sum(math.comb(n, w) for w in range(d, n + 1))
    return {"edges_tested": v * (v - 1) // 2}


# work counts computed from the arguments: layer -> (counter, count names)
COMPUTED = {
    "kernels.weight_scan": (_scan_counts, ("words", "bytes_computed")),
    "kernels.max_clique":
        (lambda a: {"vertices": len(a["neighbors"])}, ("vertices",)),
    "distance.exact_A_search": (_clique_edges, ("edges_tested",)),
    "cyclic.best_bch_distance":
        (lambda a: {"horner_steps":
                    a["spec"].n * a["spec"].generator.bit_length()},
         ("horner_steps",)),
    "bounds.vol": (lambda a: {"binomials": a["r"] + 1}, ("binomials",)),
}


class Tracer:
    """In-memory span recorder; one per traced pass, single-threaded."""

    def __init__(self):
        # [name, parent, start, end, exception type, work counts]
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.enabled = True

    def wrap(self, name, fn):
        counter = COMPUTED.get(name, (None,))[0]
        sig = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            counts = None
            if counter:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                counts = counter(bound.arguments)
            span = [name, self.stack[-1] if self.stack else -1,
                    time.perf_counter(), 0.0, None, counts]
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[4] = type(exc).__name__
                raise
            finally:
                span[3] = time.perf_counter()
                self.stack.pop()

        return traced

    def install(self) -> list[str]:
        """Wrap every target; return the layers the program does not have."""
        missing = []
        modules = [m for key, m in sys.modules.items()
                   if key == "codebounds" or key.startswith("codebounds.")]
        for name, modname, path in TARGETS:
            owner = sys.modules.get(f"codebounds.{modname}")
            *cls_path, attr = path.split(".")
            for part in cls_path:
                owner = getattr(owner, part, None)
            original = getattr(owner, attr, None)
            if original is None:
                missing.append(name)
                continue
            wrapper = self.wrap(name, original)
            if cls_path:
                setattr(owner, attr, wrapper)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
        return missing


def layer_metrics(spans: list[list], wall_s: float) -> dict[str, float]:
    """Per-layer calls, span time, self time and work counts of one pass."""
    out: dict[str, float] = {}
    for name, _, _ in TARGETS:
        out[f"{name}.calls"] = 0
        out[f"{name}.s"] = 0.0
        out[f"{name}.self_s"] = 0.0
    for name, (_, keys) in COMPUTED.items():
        for key in keys:
            out[f"{name}.{key}"] = 0
    child_s = [0.0] * len(spans)
    has_certify_child = [False] * len(spans)
    not_applicable = 0
    root_s = 0.0
    for i, (name, parent, start, end, err, counts) in enumerate(spans):
        dur = end - start
        if parent >= 0:
            child_s[parent] += dur
            if name == "spectrum.certify":
                has_certify_child[parent] = True
        else:
            root_s += dur
        if name == "bounds.new_upper" and err == "NotApplicable":
            not_applicable += 1
    for i, (name, parent, start, end, err, counts) in enumerate(spans):
        out[f"{name}.calls"] += 1
        out[f"{name}.self_s"] += (end - start) - child_s[i]
        # a layer's span time counts only its outermost spans
        p = parent
        while p >= 0 and spans[p][0] != name:
            p = spans[p][1]
        if p < 0:
            out[f"{name}.s"] += end - start
        for key, value in (counts or {}).items():
            out[f"{name}.{key}"] += value
    scan_s = out["kernels.weight_scan.s"]
    out["kernels.weight_scan.words_per_s"] = (
        out["kernels.weight_scan.words"] / scan_s if scan_s else 0.0)
    out["bounds.vol.share"] = out["bounds.vol.s"] / wall_s
    calls = out["bounds.new_upper.calls"]
    out["bounds.new_upper.not_applicable_ratio"] = (
        not_applicable / calls if calls else 0.0)
    cert_spans = [i for i, s in enumerate(spans)
                  if s[0] == "bounds.ball_certificate"]
    out["bounds.ball_certificate.hit_ratio"] = (
        sum(not has_certify_child[i] for i in cert_spans) / len(cert_spans)
        if cert_spans else 0.0)
    out["trace.span_coverage"] = root_s / wall_s
    return out


def metric_units() -> dict[str, tuple[str, str]]:
    """Every per-layer metric name -> (unit, better)."""
    units = {}
    for name, _, _ in TARGETS:
        units[f"{name}.calls"] = ("count", "lower")
        units[f"{name}.s"] = ("s", "lower")
        units[f"{name}.self_s"] = ("s", "lower")
    for name, (_, keys) in COMPUTED.items():
        for key in keys:
            units[f"{name}.{key}"] = (
                "bytes" if key == "bytes_computed" else "count", "lower")
    units.update({
        "kernels.weight_scan.words_per_s": ("1/s", "higher"),
        "bounds.vol.share": ("ratio", "lower"),
        "bounds.new_upper.not_applicable_ratio": ("ratio", "lower"),
        "bounds.ball_certificate.hit_ratio": ("ratio", "higher"),
        "trace.span_coverage": ("ratio", "higher"),
        "trace.wall_s": ("s", "lower"),
        "trace.overhead_s": ("s", "lower"),
        "distance.scan.workers2_speedup": ("ratio", "higher"),
        "cli.table.workers2_speedup": ("ratio", "higher"),
    })
    return units
