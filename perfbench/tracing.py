"""Spans and work counts around cornerflow's public entry points, from outside.

``install()`` replaces each traced function with a wrapper in every loaded
``cornerflow`` module that holds it (``from .eos import invert_many`` binds the
name in the importing module too) and on the classes that define the traced
methods.  A wrapper records a span (name, start, end, parent) in memory and
adds the call's work count to the span name's counters; nothing inside
``src/`` changes.  A span name is also the layer it is charged to, and its
self time is its duration minus the duration of its direct child spans, so
the layers' self times plus the time outside every span add up to the pass.
"""

import functools
import json
import os
import sys
import time
from collections import Counter

import numpy as np

SELF_TIMED = (
    "eos.invert", "eos.medium", "eos.incompressible", "fields.interp", "fields.io",
    "quadrature.ball", "quadrature.arc", "functionals.record", "functionals.other",
    "solver", "profiles", "legendre", "classify", "cli.csv", "cli.config",
)
SOLVER_EVALS = {"F_dF2": "energy_evals", "H_d1_d2": "gradient_evals"}


def _size(*arrays):
    return int(np.broadcast(*arrays).size)


class Tracer:
    """In-memory spans and per-span-name counters for one pass."""

    def __init__(self, counted_error):
        self.counted_error = counted_error
        self.spans = []  # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = Counter()
        self.solver_depth = 0

    def wrap(self, name, fn, work=None, post=None):
        """Wrapper recording a span per call.

        ``work(args, kwargs)`` gives the call's work count before the call,
        ``post(args, kwargs, result)`` after it; both run inside the parent's
        span, so their cost shows as tracing overhead, not as this layer's.
        """
        spans, stack, counts = self.spans, self.stack, self.counts
        counted_error = self.counted_error
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            counts[name + ".calls"] += 1
            if work is not None:
                counts[name + ".work"] += work(args, kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            except counted_error:
                counts[name + ".state_errors"] += 1
                raise
            finally:
                rec[2] = clock()
                stack.pop()
            if post is not None:
                counts[name + ".work"] += post(args, kwargs, result)
            return result

        return traced

    def self_times(self):
        dur = np.array([s[2] - s[1] for s in self.spans])
        parent = np.array([s[3] for s in self.spans], dtype=np.int64)
        child = np.zeros_like(dur)
        has = parent >= 0
        np.add.at(child, parent[has], dur[has])
        own = dur - child
        out = dict.fromkeys(SELF_TIMED, 0.0)
        for (name, *_), t in zip(self.spans, own):
            out[name] += float(t)
        top = float(np.sum(dur[~has])) if dur.size else 0.0
        return out, top

    def dump(self, path):
        """Write the spans as JSON lines: name, start, end, parent index."""
        with open(path, "w") as f:
            for name, start, end, parent in self.spans:
                f.write(json.dumps([name, start, end, parent]) + "\n")


def _replace(old, new, modules):
    for mod in modules:
        for key, val in list(vars(mod).items()):
            if val is old:
                setattr(mod, key, new)


def _solver_counted(tracer, fn):
    """Medium method whose calls inside minimize_EF count as solver evaluations."""
    key = "solver." + SOLVER_EVALS[fn.__name__] if fn.__name__ in SOLVER_EVALS else None

    @functools.wraps(fn)
    def counted(*args, **kwargs):
        if key is not None and tracer.solver_depth:
            tracer.counts[key] += 1
        return fn(*args, **kwargs)

    return counted


def _solver_span(tracer, fn):
    @functools.wraps(fn)
    def entered(*args, **kwargs):
        tracer.solver_depth += 1
        try:
            return fn(*args, **kwargs)
        finally:
            tracer.solver_depth -= 1

    return entered


def install():
    """Wrap the traced entry points; returns the Tracer that records them."""
    import cornerflow.classify
    import cornerflow.cli
    import cornerflow.eos
    import cornerflow.fields
    import cornerflow.functionals
    import cornerflow.legendre
    import cornerflow.profiles
    import cornerflow.quadrature
    import cornerflow.solver
    from cornerflow.errors import StateError

    tr = Tracer(StateError)
    modules = [m for n, m in sorted(sys.modules.items())
               if m is not None and (n == "cornerflow" or n.startswith("cornerflow."))]

    def func(mod, attr, name, work=None, post=None):
        old = getattr(mod, attr)
        _replace(old, tr.wrap(name, old, work, post), modules)

    def method(cls, attr, name, work=None, post=None, descriptor=None):
        old = vars(cls)[attr]
        new = tr.wrap(name, old.__func__ if descriptor else old, work, post)
        if name.startswith("eos."):
            new = _solver_counted(tr, new)
        setattr(cls, attr, descriptor(new) if descriptor else new)

    eos, fields, quad = cornerflow.eos, cornerflow.fields, cornerflow.quadrature
    func(eos, "invert_many", "eos.invert", work=lambda a, k: _size(a[1], a[2]))
    nodes_t = lambda a, k: _size(a[1])  # noqa: E731  (self, t, s) or (self, s)
    for cls, name in ((eos.GammaLawMedium, "eos.medium"),
                      (eos.IncompressibleMedium, "eos.incompressible")):
        for attr in ("H_d1_d2", "F_dF2", "lam_pair", "lam", "lam_prime"):
            method(cls, attr, name, work=nodes_t)

    points = lambda a, k: _size(a[1], a[2])  # noqa: E731
    method(fields.GridField, "value", "fields.interp", work=points)
    method(fields.GridField, "gradient", "fields.interp", work=points)
    method(fields.GridField, "read", "fields.io", work=lambda a, k: os.path.getsize(a[1]),
           descriptor=classmethod)
    method(fields.GridField, "write", "fields.io", post=lambda a, k, r: os.path.getsize(a[1]))

    node_count = lambda a, k, r: int(r.x1.size)  # noqa: E731
    func(quad, "ball_nodes", "quadrature.ball", post=node_count)
    func(quad, "arc_nodes", "quadrature.arc", post=node_count)

    fn = cornerflow.functionals
    func(fn, "monotonicity_record", "functionals.record")
    func(fn, "radial_sweep", "functionals.other",
         work=lambda a, k: int(np.size(a[4] if len(a) > 4 else k["radii"])))
    func(fn, "pohozaev_residual", "functionals.other")
    func(fn, "energy_identity_residual", "functionals.other")

    solver = cornerflow.solver
    old = solver.minimize_EF
    _replace(old, _solver_span(tr, tr.wrap("solver", old)), modules)

    func(cornerflow.profiles, "eval_profile", "profiles", work=points)
    func(cornerflow.profiles, "eval_profile_gradient", "profiles", work=points)
    func(cornerflow.legendre, "legendre_P_prime", "legendre")
    func(cornerflow.legendre, "legendre_P_second", "legendre")

    cls_mod = cornerflow.classify
    for attr in ("classify", "weighted_density", "blowup"):
        func(cls_mod, attr, "classify")

    cli = cornerflow.cli
    func(cli, "parse_config", "cli.config")
    old_csv = cli._write_csv

    def write_csv(path, header, rows):
        rows = list(rows)
        tr.counts["cli.csv.work"] += len(rows)
        return old_csv(path, header, rows)

    _replace(old_csv, tr.wrap("cli.csv", write_csv), modules)
    return tr


def layer_metrics(counts, own, top, run_s, iterations):
    """Per-layer metrics of one traced pass of ``run_s`` seconds.

    ``counts`` and ``own`` (self seconds per span name) come from the pass's
    Tracer, ``top`` is the time covered by its outermost spans and
    ``iterations`` the descent iteration count read from the pass's
    minimize logs.  Work counts repeat exactly across passes of one seed.
    """
    c = Counter(counts)

    def ratio(a, b):
        return a / b if b else 0.0

    m = {
        "eos.invert.calls": c["eos.invert.calls"],
        "eos.invert.nodes": c["eos.invert.work"],
        "eos.invert.self_s": own["eos.invert"],
        "eos.invert.nodes_per_s": ratio(c["eos.invert.work"], own["eos.invert"]),
        "eos.medium.calls": c["eos.medium.calls"],
        "eos.medium.nodes": c["eos.medium.work"],
        "eos.medium.self_s": own["eos.medium"],
        "eos.incompressible.calls": c["eos.incompressible.calls"],
        "eos.incompressible.self_s": own["eos.incompressible"],
        "eos.state_errors": c["eos.medium.state_errors"],
        "eos.inversions_per_node": ratio(c["eos.invert.work"], c["eos.medium.work"]),
        "fields.interp.calls": c["fields.interp.calls"],
        "fields.interp.points": c["fields.interp.work"],
        "fields.interp.self_s": own["fields.interp"],
        "fields.io.bytes": c["fields.io.work"],
        "fields.io.self_s": own["fields.io"],
    }
    for part in ("ball", "arc"):
        m[f"quadrature.{part}.calls"] = c[f"quadrature.{part}.calls"]
        m[f"quadrature.{part}.nodes"] = c[f"quadrature.{part}.work"]
        m[f"quadrature.{part}.self_s"] = own[f"quadrature.{part}"]
    m.update({
        "functionals.records": c["functionals.record.calls"],
        "functionals.records_per_radius": ratio(c["functionals.record.calls"],
                                                c["functionals.other.work"]),
        "functionals.record.self_s": own["functionals.record"],
        "functionals.other.self_s": own["functionals.other"],
        "solver.iterations": iterations,
        "solver.energy_evals": c["solver.energy_evals"],
        "solver.gradient_evals": c["solver.gradient_evals"],
        "solver.accept_ratio": ratio(iterations, c["solver.energy_evals"]),
        "solver.self_s": own["solver"],
        "profiles.eval.calls": c["profiles.calls"],
        "profiles.eval.points": c["profiles.work"],
        "profiles.self_s": own["profiles"],
        "legendre.calls": c["legendre.calls"],
        "legendre.self_s": own["legendre"],
        "classify.self_s": own["classify"],
        "cli.csv.rows": c["cli.csv.work"],
        "cli.csv.self_s": own["cli.csv"],
        "cli.config.self_s": own["cli.config"],
        "trace.run_s": run_s,
        "trace.unattributed_s": run_s - top,
    })
    return m
