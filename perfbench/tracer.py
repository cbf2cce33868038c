"""Per-layer spans and counts for flatfront, recorded from outside the package.

The tracer replaces each layer's entry functions with a timing wrapper at
every import site (the package namespace and every module that imported the
name), and puts the originals back on exit.  Spans are recorded only inside
an op opened with :meth:`Tracer.op`, so set-up and the benchmark's own output
checks stay out of the trace.  Each span is the tuple

    (span id, parent span id, op id, "layer.function", start, end, points)

with ``points`` the number of evaluation points for the functions that have
one, else -1.  Span ids grow at entry, so a parent's id is below its
children's.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import math
import os
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import asdict

LAYERS = ("theta", "annulus", "solver", "immersion", "meshing", "validation", "cli")

# Entry functions per layer module.  theta._eval is the kernel entry: the
# annulus layer calls it directly, bypassing the public theta functions.
ENTRIES = {
    "theta": ("_eval", "theta1", "dtheta1", "log_slope", "log_slope_deriv", "pair_slope"),
    "annulus": (
        "slit_map", "slit_map_deriv", "theta_quotient", "fit_gauss_ratio", "gauss_ratio",
        "gauss_ratio_deriv", "gauss_map_square", "gauss_square_log_deriv",
        "gauss_square_winding", "gauss_map", "gauss_map_deriv", "potential",
        "inv_gauss_gap", "second_gauss_map",
    ),
    "solver": ("solve_canonical", "residuals", "_outer_scan"),
    "immersion": (
        "immerse", "first_form", "shape_ratio", "intrinsic_curvature", "end_direction",
        "hyperbolic_distance", "klein_map",
    ),
    "meshing": ("canonical_mesh", "write_obj", "write_ply"),
    "validation": ("validate_moduli", "boundary_ranges_ok"),
    "cli": ("main",),
}

# Immersion functions that evaluate the surface at their argument points.
_EVALUATORS = ("immersion.immerse", "immersion.first_form", "immersion.shape_ratio")

# Every per-layer metric, with its unit, in the order they are reported.
METRICS = {
    "theta.calls": "count",
    "theta.points": "count",
    "theta.points_per_call": "ratio",
    "theta.point_terms": "count",
    "theta.self_s": "s",
    "theta.ns_per_point_term": "ns",
    "theta.pole_errors": "count",
    "annulus.g_points": "count",
    "annulus.W_points": "count",
    "annulus.W_per_g": "ratio",
    "annulus.gauss_map_s": "s",
    "annulus.self_s": "s",
    "annulus.branch_errors": "count",
    "solver.solves": "count",
    "solver.failed": "count",
    "solver.exponent_iterations": "count",
    "solver.scan_points": "count",
    "solver.outer_iterations": "count",
    "solver.theta_calls_per_solve": "ratio",
    "solver.theta_points_per_solve": "ratio",
    "solver.self_s": "s",
    "immersion.calls": "count",
    "immersion.points": "count",
    "immersion.self_s": "s",
    "meshing.vertices": "count",
    "meshing.faces": "count",
    "meshing.self_s": "s",
    "meshing.write_s": "s",
    "meshing.bytes": "B",
    "validation.self_s": "s",
    "validation.solver_s": "s",
    "validation.inf_fields": "count",
    "validation.failed": "count",
    "cli.self_s": "s",
    "cli.nonzero_exits": "count",
    "trace.spans": "count",
    "trace.op_s.p50": "s",  # traced op median, set by the runner; minus the untraced one = overhead
}


def _points(tracer, args, out):
    return int(args[2].size) if hasattr(args[2], "size") else 1


def _eval_hook(tracer, args, out):
    ctx, z = args[0], args[1]
    tracer.count("theta.point_terms", z.size * ctx.n_terms)
    return int(z.size)


def _solve_hook(tracer, args, out):
    trace = out[1]
    tracer.count("solver.exponent_iterations", trace.exponent_iterations)
    tracer.count("solver.scan_points", trace.scan_points)
    tracer.count("solver.outer_iterations", trace.outer_iterations)


def _validate_hook(tracer, args, out):
    values = asdict(out).values()
    tracer.count("validation.inf_fields", sum(isinstance(v, float) and math.isinf(v) for v in values))
    tracer.count("validation.failed", not out.passes())


def _mesh_hook(tracer, args, out):
    tracer.count("meshing.vertices", len(out.vertices))
    tracer.count("meshing.faces", len(out.faces))


def _write_hook(tracer, args, out):
    tracer.count("meshing.bytes", os.path.getsize(args[1]))


def _main_hook(tracer, args, out):
    tracer.count("cli.nonzero_exits", out != 0)


_HOOKS = {
    "theta._eval": _eval_hook,
    "annulus.gauss_map": _points,
    "annulus.gauss_map_square": _points,
    "immersion.immerse": _points,
    "immersion.first_form": _points,
    "immersion.shape_ratio": _points,
    "solver.solve_canonical": _solve_hook,
    "validation.validate_moduli": _validate_hook,
    "meshing.canonical_mesh": _mesh_hook,
    "meshing.write_obj": _write_hook,
    "meshing.write_ply": _write_hook,
    "cli.main": _main_hook,
}


def flatfront_modules(ff):
    """The package and its layer modules: every place a layer name is bound."""
    return [ff] + [importlib.import_module(f"{ff.__name__}.{layer}") for layer in LAYERS]


class Tracer:
    """Wraps the entry functions while used as a context manager."""

    def __init__(self, ff):
        self._ff = ff
        self.spans = []
        self._counts = defaultdict(Counter)  # op id -> counts recorded in that op
        self._stack = [-1]
        self._ids = itertools.count()
        self._patched = []  # (namespace or table, key, original)
        self._last_error = None
        self.op_id = -1
        self.recording = False

    # --- patching ------------------------------------------------------

    def __enter__(self):
        from flatfront.annulus import RepresentationError
        from flatfront.theta import ThetaPoleError

        self._errors = {ThetaPoleError: "theta.pole_errors", RepresentationError: "annulus.branch_errors"}
        modules = flatfront_modules(self._ff)
        homes = dict(zip(LAYERS, modules[1:]))
        try:
            for layer, names in ENTRIES.items():
                home = homes[layer]
                for fname in names:
                    original = getattr(home, fname)
                    wrapper = self._wrap(original, f"{layer}.{fname}")
                    for module in modules:
                        # module attributes, and module-level tables such as
                        # the CLI's writer dict, are the import sites
                        tables = [vars(module)] + [v for v in vars(module).values() if type(v) is dict]
                        for table in tables:
                            for key, value in list(table.items()):
                                if value is original:
                                    table[key] = wrapper
                                    self._patched.append((table, key, original))
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc):
        self.restore()
        return False

    def restore(self):
        while self._patched:
            table, key, original = self._patched.pop()
            table[key] = original

    def _wrap(self, fn, name):
        hook = _HOOKS.get(name)
        spans_append = self.spans.append
        stack = self._stack
        ids = self._ids
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                t1 = clock()
                stack.pop()
                spans_append((sid, parent, tracer.op_id, name, t0, t1, -1))
                tracer._failed(name, exc)
                raise
            t1 = clock()
            stack.pop()
            n = hook(tracer, args, out) if hook else None
            spans_append((sid, parent, tracer.op_id, name, t0, t1, -1 if n is None else n))
            return out

        return functools.update_wrapper(traced, fn)

    def _failed(self, name, exc):
        if name == "solver.solve_canonical":
            self.count("solver.failed", 1)
        if exc is self._last_error:
            return
        self._last_error = exc
        for cls, key in self._errors.items():
            if isinstance(exc, cls):
                self.count(key, 1)

    # --- recording -----------------------------------------------------

    def count(self, key, n):
        self._counts[self.op_id][key] += int(n)

    @contextmanager
    def op(self, op_id):
        """Record spans for one op; the op itself is a root span named bench.op."""
        self.op_id = op_id
        sid = next(self._ids)
        self._stack.append(sid)
        self.recording = True
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self.recording = False
            self._stack.pop()
            self.spans.append((sid, -1, op_id, "bench.op", t0, t1, -1))

    @contextmanager
    def paused(self):
        """Run the benchmark's own checks inside an op without recording them."""
        was = self.recording
        self.recording = False
        try:
            yield
        finally:
            self.recording = was

    # --- results -------------------------------------------------------

    def layer_metrics(self, ops) -> dict:
        """The metrics of METRICS, except trace.op_s.p50, over the given ops."""
        ops = set(ops)
        spans = sorted(s for s in self.spans if s[2] in ops)
        counts = Counter()
        for op in ops:
            counts.update(self._counts.get(op, {}))

        child_time = Counter()
        for _, parent, _, _, t0, t1, _ in spans:
            child_time[parent] += t1 - t0

        name_of = {}
        in_solve = {-1: False}
        in_validation = {-1: False}
        self_s = Counter()
        calls = Counter()
        points = Counter()
        solve_calls = solve_points = 0
        gauss_map_s = validation_solver_s = write_s = 0.0
        for sid, parent, _, name, t0, t1, n in spans:
            layer = name.split(".", 1)[0]
            dur = t1 - t0
            name_of[sid] = name
            parent_name = name_of.get(parent, "")
            self_s[layer] += dur - child_time[sid]
            calls[name] += 1
            points[name] += max(n, 0)
            in_solve[sid] = in_solve.get(parent, False) or name == "solver.solve_canonical"
            in_validation[sid] = in_validation.get(parent, False) or layer == "validation"
            if name == "theta._eval" and in_solve[parent]:
                solve_calls += 1
                solve_points += n
            elif name == "annulus.gauss_map" and parent_name != name:
                gauss_map_s += dur
            elif layer == "solver" and in_validation[parent] and not parent_name.startswith("solver."):
                validation_solver_s += dur
            elif name in ("meshing.write_obj", "meshing.write_ply"):
                write_s += dur

        def ratio(a, b):
            return a / b if b else 0.0

        solves = calls["solver.solve_canonical"]
        g_points = points["annulus.gauss_map"]
        w_points = points["annulus.gauss_map_square"]
        out = {
            "theta.calls": calls["theta._eval"],
            "theta.points": points["theta._eval"],
            "theta.points_per_call": ratio(points["theta._eval"], calls["theta._eval"]),
            "theta.point_terms": counts["theta.point_terms"],
            "theta.self_s": self_s["theta"],
            "theta.ns_per_point_term": 1e9 * ratio(self_s["theta"], counts["theta.point_terms"]),
            "theta.pole_errors": counts["theta.pole_errors"],
            "annulus.g_points": g_points,
            "annulus.W_points": w_points,
            "annulus.W_per_g": ratio(w_points, g_points),
            "annulus.gauss_map_s": gauss_map_s,
            "annulus.self_s": self_s["annulus"],
            "annulus.branch_errors": counts["annulus.branch_errors"],
            "solver.solves": solves,
            "solver.failed": counts["solver.failed"],
            "solver.exponent_iterations": counts["solver.exponent_iterations"],
            "solver.scan_points": counts["solver.scan_points"],
            "solver.outer_iterations": counts["solver.outer_iterations"],
            "solver.theta_calls_per_solve": ratio(solve_calls, solves),
            "solver.theta_points_per_solve": ratio(solve_points, solves),
            "solver.self_s": self_s["solver"],
            "immersion.calls": sum(calls[k] for k in _EVALUATORS),
            "immersion.points": sum(points[k] for k in _EVALUATORS),
            "immersion.self_s": self_s["immersion"],
            "meshing.vertices": counts["meshing.vertices"],
            "meshing.faces": counts["meshing.faces"],
            "meshing.self_s": self_s["meshing"],
            "meshing.write_s": write_s,
            "meshing.bytes": counts["meshing.bytes"],
            "validation.self_s": self_s["validation"],
            "validation.solver_s": validation_solver_s,
            "validation.inf_fields": counts["validation.inf_fields"],
            "validation.failed": counts["validation.failed"],
            "cli.self_s": self_s["cli"],
            "cli.nonzero_exits": counts["cli.nonzero_exits"],
            "trace.spans": len(spans),
        }
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            for span in self.spans:
                fh.write(json.dumps(span) + "\n")
