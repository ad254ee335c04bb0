"""Span tracer that observes the casimir_cylinders layers from outside.

The package is not instrumented.  Instead, ``Tracer.install`` replaces the
module attributes through which callers look up each layer's functions
with thin wrappers, and ``Tracer.remove`` puts the originals back:

* ``engine.energy_exact``, ``engine.energy_concentric_accelerated`` and
  ``engine._refine`` (layer ``engine``; the ``_refine`` wrapper also wraps
  the per-step ``eval_at`` closure it is handed, one span per refinement
  step),
* ``engine.semi_infinite_nodes`` (layer ``quadrature``),
* ``kernel.build_eccentric``, ``kernel.build_cylinder_plane``,
  ``kernel.log_det_one_minus`` and ``kernel.concentric_log_ratios``
  (layer ``kernel``; ``engine`` reaches them as ``engine.kernel.*``),
* ``kernel.log_{i,k,di,dk}_ladder`` (layer ``bessel``, the names the
  kernel imported).

Each call records a span (name, start, end, parent index, solve id and the
counts computed from its arguments or result).  Spans of one top-level
``energy_*`` call share a solve id.  Spans stay in memory until ``write``.
A lookup point the package no longer has is skipped and listed in
``missing``, so the tracer keeps working across refactors.
"""

import functools
import json
import os
import time

import numpy as np

_SOLVES = ("energy_exact", "energy_concentric_accelerated")


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


# Computed counts per span, from the call's arguments and result only.
def _ladder_counts(args, kwargs, out):
    x = _arg(args, kwargs, 0, "x")
    n_max = _arg(args, kwargs, 1, "n_max")
    return {"terms": (int(n_max) + 1) * int(np.size(x))}


def _build_counts(args, kwargs, out):
    side = 2 * out.half_bandwidth + 1
    return {"inner_terms": (2 * out.m_used + 1) * side, "pairs": 1}


def _logdet_counts(args, kwargs, out):
    mat = _arg(args, kwargs, 0, "mat")
    d = getattr(mat, "entries", mat).shape[0]
    return {"cubed": int(d) ** 3}


def _ratio_counts(args, kwargs, out):
    return {"pairs": int(np.size(_arg(args, kwargs, 0, "beta")))}


def _node_counts(args, kwargs, out):
    return {"nodes": int(_arg(args, kwargs, 1, "node_count"))}


# (module, attribute, layer, counts) per lookup point, in install order;
# the span name is the attribute name.
LOOKUP_POINTS = (
    ("engine", "energy_exact", "engine", None),
    ("engine", "energy_concentric_accelerated", "engine", None),
    ("engine", "_refine", "engine", None),
    ("engine", "semi_infinite_nodes", "quadrature", _node_counts),
    ("kernel", "build_eccentric", "kernel.build", _build_counts),
    ("kernel", "build_cylinder_plane", "kernel.build", _build_counts),
    ("kernel", "log_det_one_minus", "kernel.logdet", _logdet_counts),
    ("kernel", "concentric_log_ratios", "kernel.ratio", _ratio_counts),
    ("kernel", "log_i_ladder", "bessel", _ladder_counts),
    ("kernel", "log_k_ladder", "bessel", _ladder_counts),
    ("kernel", "log_di_ladder", "bessel", _ladder_counts),
    ("kernel", "log_dk_ladder", "bessel", _ladder_counts),
)
LAYERS = {attr: layer for _, attr, layer, _ in LOOKUP_POINTS}
LAYERS["step"] = "engine"  # one refinement step, wrapped inside _refine


class Tracer:
    """In-memory span recorder with removable wrappers.

    A span is a tuple (name, start, end, parent, solve, counts); parent is
    the index of the enclosing span or -1.  Not thread-safe: the package's
    evaluators run single-threaded inside each process.
    """

    def __init__(self):
        self.spans = []
        self.missing = []
        self._stack = []
        self._solve = 0
        self._installed = []

    def reset(self):
        self.spans.clear()
        self._stack.clear()
        self._solve = 0

    def wrap(self, name, fn, counts=None):
        spans, stack = self.spans, self._stack
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            if parent == -1 and name in _SOLVES:
                tracer._solve += 1
            solve = tracer._solve
            idx = len(spans)
            spans.append(None)
            stack.append(idx)
            out = None
            start = time.perf_counter()
            try:
                if name == "_refine":
                    args = (tracer.wrap("step", args[0]),) + args[1:]
                out = fn(*args, **kwargs)
                return out
            finally:
                end = time.perf_counter()
                stack.pop()
                attrs = counts(args, kwargs, out) if counts and out is not None else None
                spans[idx] = (name, start, end, parent, solve, attrs)

        return wrapper

    def install(self):
        from casimir_cylinders import engine, kernel

        if self._installed:
            raise RuntimeError("tracer already installed")
        modules = {"engine": engine, "kernel": kernel}
        self.missing = []
        for mod_name, attr, _, counts in LOOKUP_POINTS:
            mod = modules[mod_name]
            fn = getattr(mod, attr, None)
            if fn is None:
                self.missing.append(f"{mod_name}.{attr}")
                continue
            setattr(mod, attr, self.wrap(attr, fn, counts))
            self._installed.append((mod, attr, fn))
        return self

    def remove(self):
        while self._installed:
            mod, attr, fn = self._installed.pop()
            setattr(mod, attr, fn)

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.remove()
        return False

    def write(self, path):
        """Write the spans as JSON: one [name, start, end, parent, solve, counts] per span."""
        with open(path, "w") as fh:
            json.dump({"pid": os.getpid(), "missing": self.missing, "spans": self.spans}, fh)


def summarize(span_lists):
    """Per-layer metrics from one or more processes' span lists.

    Self time is a span's duration minus the time its direct child spans
    cover.  ``freq_evals`` counts frequencies at which both polarizations
    were evaluated: each matrix build is one (frequency, polarization)
    pair, each ratio call contributes one pair per frequency.
    """
    acc = {
        "bessel.calls": 0, "bessel.terms": 0, "bessel.self_s": 0.0,
        "kernel.builds": 0, "kernel.build_self_s": 0.0, "kernel.inner_terms": 0,
        "kernel.logdet_calls": 0, "kernel.logdet_s": 0.0,
        "kernel.ratio_calls": 0, "kernel.ratio_self_s": 0.0,
        "quadrature.node_calls": 0, "quadrature.nodes": 0, "quadrature.self_s": 0.0,
        "engine.solves": 0, "engine.refine_steps": 0, "engine.self_s": 0.0,
    }
    pairs_total = 0
    pairs_final = 0
    cubed = 0  # integer sum of d^3, so the flop count is exact in any order
    for spans in span_lists:
        child = [0.0] * len(spans)
        for name, start, end, parent, _solve, _attrs in spans:
            if parent >= 0:
                child[parent] += end - start
        step_of = [-1] * len(spans)
        step_pairs = {}
        last_step = {}
        for i, (name, start, end, parent, solve, attrs) in enumerate(spans):
            self_s = (end - start) - child[i]
            layer = LAYERS[name]
            step_of[i] = i if name == "step" else (step_of[parent] if parent >= 0 else -1)
            attrs = attrs or {}
            if layer == "bessel":
                acc["bessel.calls"] += 1
                acc["bessel.terms"] += attrs.get("terms", 0)
                acc["bessel.self_s"] += self_s
            elif layer == "kernel.build":
                acc["kernel.builds"] += 1
                acc["kernel.build_self_s"] += self_s
                acc["kernel.inner_terms"] += attrs.get("inner_terms", 0)
            elif layer == "kernel.logdet":
                acc["kernel.logdet_calls"] += 1
                acc["kernel.logdet_s"] += self_s
                cubed += attrs.get("cubed", 0)
            elif layer == "kernel.ratio":
                acc["kernel.ratio_calls"] += 1
                acc["kernel.ratio_self_s"] += self_s
            elif layer == "quadrature":
                acc["quadrature.node_calls"] += 1
                acc["quadrature.nodes"] += attrs.get("nodes", 0)
                acc["quadrature.self_s"] += self_s
            else:
                acc["engine.self_s"] += self_s
                if name == "step":
                    acc["engine.refine_steps"] += 1
                    last_step[solve] = i
                elif name in _SOLVES and parent == -1:
                    acc["engine.solves"] += 1
            pairs = attrs.get("pairs", 0)
            if pairs:
                pairs_total += pairs
                step_pairs[step_of[i]] = step_pairs.get(step_of[i], 0) + pairs
        pairs_final += sum(step_pairs.get(i, 0) for i in last_step.values())
    acc["bessel.ns_per_term"] = 1e9 * acc["bessel.self_s"] / acc["bessel.terms"] if acc["bessel.terms"] else 0.0
    acc["kernel.logdet_flops"] = 2 * cubed / 3
    acc["engine.freq_evals"] = pairs_total // 2
    acc["engine.useful_frac"] = pairs_final / pairs_total if pairs_total else 0.0
    return acc


def start_process_trace(out_dir):
    """Trace this process and every multiprocessing child it starts.

    Used by ``hook/sitecustomize.py`` for the CLI workload.  The parent
    writes its spans at interpreter exit; pool workers, which leave through
    ``os._exit``, write theirs from a multiprocessing finalizer registered
    after fork (or after spawn, where this function runs again at start-up).
    """
    import atexit
    import multiprocessing.util as mp_util

    tracer = Tracer().install()

    def dump():
        tracer.write(os.path.join(out_dir, f"spans-{os.getpid()}.json"))

    def in_child(t):
        t.reset()
        mp_util.Finalize(t, dump, exitpriority=0)

    atexit.register(dump)
    mp_util.register_after_fork(tracer, in_child)
    return tracer
