"""Seeded inputs, the workloads and their output checks.

Every workload is one caller in a closed loop: the next op starts when the
last one returns.  Ops come in rounds.  Each round puts r at the midpoints
of k strata of its range and spreads s over its range as a Latin hypercube,
in a seeded order, so every round covers the rectangle evenly and the
median of a round falls on the same middle strata for every seed.  That
keeps the medians steady from seed to seed although single-op times grow
several-fold with r.

A run makes two passes over the same ops, and both must give the same
outputs; an op's time is the mean of its passes.  An op that fails in
either pass (an exception, a non-zero exit code or a failed output check)
is a miss: it counts as slower than any success in every latency.

On a shared machine, other tenants slow this process by up to 1.7x for
seconds to minutes at a time.  A Speedometer samples a fixed reference
kernel through the run, and the runner divides each op's and set-up's time
by the slowdown the kernel read around it, against its nominal time.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import io
import json
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from perfbench.tracer import flatfront_modules

# The (r, s) rectangles of the gated workloads hold no known failure, so
# every op of a run succeeds.  At seed the solver aborts on a theta zero
# from r ~ 0.805 and finds "no sign change" for s above ~ -0.015 (r = 0.05)
# or ~ -0.007 (r ~ 0.48); the CLI refuses solves from r ~ 0.775 and
# validation fails from r ~ 0.74; intrinsic_curvature returns NaN at some
# interior points from r ~ 0.65.  The ungated `frontier` workload keeps
# those failures in view.
S_RANGE = (-0.99, -0.04)
SWEEP_R_RANGE = (0.05, 0.75)
PIPELINE_R_RANGE = (0.05, 0.7)
# The probe's four configurations are solved in set-up; a query's cost grows
# with n_terms, so the seed draws their s, the points and the query order.
PROBE_R_RANGE = (0.05, 0.6)
# The full rectangle of the frontier workload, known failures included.  r
# stops at 0.9 because n_terms grows like 1/(1 - r).
FRONTIER_R_RANGE = (0.05, 0.9)
FRONTIER_S_RANGE = (-0.99, -0.005)

# A seed kept out of development, for checking later claims on.
HELDOUT_SEED = 7340519

RESIDUAL_TOL = 1e-10
WARMUP_RS = (0.25, -0.5)

# Time of _reference_kernel that reported seconds are scaled to; about its
# time on an idle 2-core x86-64 virtual machine with numpy 2.4.
REFERENCE_NOMINAL_S = 2.0e-3
# The kernel is timed this many times in a row, at most this often.
REFERENCE_BURST = 4
REFERENCE_EVERY_S = 0.1
# An interval's slowdown is read from the samples within this much of it:
# long enough to average out the kernel's own noise, short against the slow
# spells it tracks.
REFERENCE_WINDOW_S = 4.0


def _permutation(rng: random.Random, k: int) -> list:
    return sorted(range(k), key=lambda _: rng.random())


def stratified(rng: random.Random, k: int, r_range, s_range) -> list:
    """k seeded (r, s) pairs, r at the midpoints of k strata, in a seeded order."""
    r_lo, r_hi = r_range
    s_lo, s_hi = s_range
    wr = (r_hi - r_lo) / k
    ws = (s_hi - s_lo) / k
    s = [s_lo + (j + rng.random()) * ws for j in _permutation(rng, k)]
    return [(r_lo + (i + 0.5) * wr, s[i]) for i in _permutation(rng, k)]


def interior_point(rng: random.Random, r: float) -> complex:
    """A point of the annulus away from both singular circles and the real axis."""
    frac = 0.1 + 0.8 * rng.random()
    angle = 0.2 + (math.pi - 0.4) * rng.random()
    return complex(r**frac * np.exp(1j * (angle if rng.random() < 0.5 else -angle)))


def _reference_kernel():
    """Fixed work shaped like the theta kernel: small complex arrays in a Python loop."""
    z = np.linspace(0.3, 0.9, 64) * np.exp(0.7j)
    acc = np.ones_like(z)
    for k in range(1, 400):
        p = 0.5**k
        acc = acc * ((1.0 - p * z) * (1.0 - p / z))
    return acc


class Speedometer:
    """The machine's slowdown, from a reference kernel sampled through a run.

    Slow spells last seconds to minutes, so an interval's slowdown is read
    from the samples taken within a few seconds of it.  Time is linear in
    the share of time the process runs slowed, so the mean kernel time, not
    its median, matches the slowdown.
    """

    def __init__(self):
        self.ends = []  # perf_counter at the end of each sample, ascending
        self.samples = []  # kernel seconds

    def sample(self):
        """Time the kernel a few times, unless it was timed very recently."""
        if self.ends and time.perf_counter() - self.ends[-1] < REFERENCE_EVERY_S:
            return
        for _ in range(REFERENCE_BURST):
            t0 = time.perf_counter()
            _reference_kernel()
            self.ends.append(time.perf_counter())
            self.samples.append(self.ends[-1] - t0)

    @property
    def slowdown(self) -> float:
        """Over the whole run."""
        return sum(self.samples) / len(self.samples) / REFERENCE_NOMINAL_S

    def around(self, start: float, end: float) -> float:
        """Over the interval [start, end] of perf_counter; the run's if no sample is near."""
        near = self.samples[
            bisect.bisect_left(self.ends, start - REFERENCE_WINDOW_S):
            bisect.bisect_right(self.ends, end + REFERENCE_WINDOW_S)
        ]
        if not near:
            return self.slowdown
        return sum(near) / len(near) / REFERENCE_NOMINAL_S


def lru_caches(ff) -> list:
    """The package's per-moduli caches, cleared between set-ups and cold ops."""
    found = {}
    for module in flatfront_modules(ff)[1:]:
        for value in vars(module).values():
            if callable(getattr(value, "cache_clear", None)):
                found[id(value)] = value
    return list(found.values())


@dataclass(slots=True)
class Attempt:
    """One pass over one op."""

    times: dict = field(default_factory=dict)  # stage -> seconds
    error: str = ""  # "stage: exception class or exit code: message"
    wrong: bool = False  # the program reported success but an output check failed
    digest: str = ""  # of the outputs, compared between passes
    span: tuple = ()  # (start, end) perf_counter of the whole pass


@dataclass(slots=True)
class Op:
    op: int
    round: int
    r: float
    s: float
    query: str = ""
    z: complex | None = None
    attempts: list = field(default_factory=list)

    @property
    def error(self) -> str:
        return next((a.error for a in self.attempts if a.error), "")

    @property
    def ok(self) -> bool:
        return not self.error

    @property
    def repeatable(self) -> bool:
        """Every pass gave the same outputs, or failed the same way."""
        return len({a.error or a.digest for a in self.attempts}) == 1

    @property
    def wrong(self) -> bool:
        return any(a.wrong for a in self.attempts) or not self.repeatable

    def latency(self, stage=None) -> float:
        if not self.ok:
            return math.inf
        if stage:
            return sum(a.times[stage] for a in self.attempts) / len(self.attempts)
        return sum(sum(a.times.values()) for a in self.attempts) / len(self.attempts)

    def nominal(self, speed: Speedometer) -> list:
        """Each pass's time at the reference kernel's nominal speed, scaled by its own slowdown."""
        return [sum(a.times.values()) / speed.around(*a.span) for a in self.attempts]

    def record(self, speed: Speedometer) -> dict:
        out = {"op": self.op, "round": self.round, "r": self.r, "s": self.s}
        if self.query:
            out.update(query=self.query, z=[self.z.real, self.z.imag])
        out.update(times=[a.times for a in self.attempts], spans=[a.span for a in self.attempts])
        out.update(nominal_s=self.nominal(speed))
        out.update(error=self.error, repeatable=self.repeatable)
        return out


class Workload:
    """Draws rounds of inputs from the seed and runs ops on them."""

    name = ""
    round_size = 0
    r_range = s_range = None  # the rectangle each round stratifies
    metrics = ()  # (report name, stage or None for the whole op, quantile)
    primary = ""  # the metric reported as op_s.p50
    cold = True  # clear the per-moduli caches before each op

    def __init__(self, ff, seed: int, workdir: Path, tracer=None, speed=None):
        self.ff = ff
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.speed = speed or Speedometer()
        self._caches = lru_caches(ff)
        self.reset_inputs()

    def reset_inputs(self):
        self._rng = random.Random(f"{self.name}:{self.seed}")
        self._rounds = []

    def inputs(self, index: int) -> list:
        """Op fields of round ``index``; a function of the seed alone."""
        while len(self._rounds) <= index:
            self._rounds.append(self.draw_round())
        return self._rounds[index]

    def draw_round(self):
        return [dict(r=r, s=s) for r, s in stratified(self._rng, self.round_size, self.r_range, self.s_range)]

    def clear_caches(self):
        for fn in self._caches:
            fn.cache_clear()

    def setup(self):
        self.reset_inputs()
        self.inputs(0)

    def run(self, op: Op):
        """One more pass over ``op``."""
        if self.cold:
            self.clear_caches()
        attempt = Attempt()
        op.attempts.append(attempt)
        start = time.perf_counter()
        with self.tracer.op(op.op) if self.tracer else contextlib.nullcontext():
            self.run_op(op, attempt)
        attempt.span = (start, time.perf_counter())

    def call(self, attempt: Attempt, stage: str, fn, *args):
        """Time one call into the program; an exception fails the attempt."""
        t0 = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # the failure is the measurement
            attempt.times[stage] = time.perf_counter() - t0
            attempt.error = f"{stage}: {type(exc).__name__}: {exc}"
            return None
        attempt.times[stage] = time.perf_counter() - t0
        return out

    def checks(self):
        return self.tracer.paused() if self.tracer else contextlib.nullcontext()

    @staticmethod
    def checked(attempt: Attempt, stage: str, ok: bool, detail: str, claimed: bool = True):
        """A failed check fails the attempt; ``claimed``: the program had reported success."""
        if not ok:
            attempt.error = f"{stage}: check failed: {detail}"
            attempt.wrong = claimed
        return ok


class SolveSweep(Workload):
    """solve_canonical over the rectangle: solver and theta kernel alone."""

    name = "solve_sweep"
    primary = "solve_s.p50"
    round_size = 16
    r_range, s_range = SWEEP_R_RANGE, S_RANGE
    metrics = (("solve_s.p50", None, 0.5),)

    def setup(self):
        super().setup()
        self.ff.solve_canonical(*WARMUP_RS)

    def run_op(self, op, attempt):
        out = self.call(attempt, "solve", self.ff.solve_canonical, op.r, op.s)
        if out is None:
            return
        with self.checks():
            moduli, trace = out
            res = trace.residuals
            if self.checked(attempt, "solve", all(abs(v) <= RESIDUAL_TOL for v in res.values()), f"residuals {res}"):
                attempt.digest = _digest(moduli.to_json(), json.dumps(trace.to_dict()))


class Pipeline(Workload):
    """flatfront solve -> mesh -> validate through the in-process CLI.

    Each pass writes into its own directory with cold caches, as separate CLI
    processes would, and the SHA-256 of the moduli JSON, the trace sidecar,
    the OBJ and the report must agree between passes.
    """

    name = "pipeline"
    primary = "pipeline_s.p50"
    round_size = 6
    r_range, s_range = PIPELINE_R_RANGE, S_RANGE
    metrics = (
        ("solve_s.p50", "solve", 0.5),
        ("mesh_s.p50", "mesh", 0.5),
        ("validate_s.p50", "validate", 0.5),
        ("pipeline_s.p50", None, 0.5),
    )
    ARTIFACTS = ("moduli.json", "moduli.json.trace.json", "surface.obj", "report.json")

    def _cli(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.ff.cli.main(argv)
        self._stderr = err.getvalue().strip()
        return code

    def _steps(self, r, s, d: Path, small=False):
        moduli = str(d / "moduli.json")
        mesh = ["--nu", "8", "--nv", "8"] if small else []
        grid = ["--grid", "8"] if small else []
        return (
            ("solve", ["solve", "--r", repr(r), "--s", repr(s), "--out", moduli]),
            ("mesh", ["mesh", moduli, *mesh, "--out", str(d / "surface.obj")]),
            ("validate", ["validate", moduli, *grid, "--out", str(d / "report.json")]),
        )

    def setup(self):
        super().setup()
        d = self.workdir / "warmup"
        d.mkdir(parents=True, exist_ok=True)
        for _, argv in self._steps(*WARMUP_RS, d, small=True):
            self._cli(argv)

    def run_op(self, op, attempt):
        d = self.workdir / f"op{op.op}-pass{len(op.attempts)}"
        d.mkdir(parents=True)
        for stage, argv in self._steps(op.r, op.s, d):
            self.speed.sample()  # stages take seconds; sample the machine between them
            code = self.call(attempt, stage, self._cli, argv)
            if code is None:
                return
            if code != 0:
                attempt.error = f"{stage}: exit {code}: {self._stderr}"
                return
            with self.checks():
                if not self.check(attempt, stage, d):
                    return
        attempt.digest = _digest(*(_sha256(d / name) for name in self.ARTIFACTS))

    def check(self, attempt, stage, d: Path) -> bool:
        ff = self.ff
        if stage == "solve":
            res = json.loads((d / "moduli.json.trace.json").read_text())["residuals"]
            return self.checked(attempt, stage, all(abs(v) <= RESIDUAL_TOL for v in res.values()), f"residuals {res}")
        if stage == "mesh":
            mesh = read_obj(ff, d / "surface.obj")
            chi = ff.euler_characteristic(mesh)
            finite = bool(np.isfinite(mesh.vertices).all())
            return self.checked(attempt, stage, chi == -1 and finite, f"euler characteristic {chi}, finite {finite}")
        report = ff.ValidationReport(**json.loads((d / "report.json").read_text()))
        return self.checked(attempt, stage, report.passes(), "report does not pass")


class Probe(Workload):
    """Single-point library queries on configurations solved during set-up."""

    name = "probe"
    primary = "query_s.p50"
    cold = False  # the set-up warmed the caches; queries are meant to use them
    QUERIES = (
        "immerse", "first_form", "shape_ratio", "second_gauss_map", "potential",
        "intrinsic_curvature",
    )
    CONFIGS = 4
    POINTS = 4  # per configuration and query kind in a round
    round_size = CONFIGS * len(QUERIES) * POINTS
    metrics = (("query_s.p50", None, 0.5), ("query_s.p90", None, 0.9))

    def reset_inputs(self):
        super().reset_inputs()
        rng = random.Random(f"{self.name}:{self.seed}:configs")
        self.configs = stratified(rng, self.CONFIGS, PROBE_R_RANGE, S_RANGE)

    def draw_round(self):
        cells = [
            (i, q) for i in range(self.CONFIGS) for q in self.QUERIES for _ in range(self.POINTS)
        ]
        out = []
        for k in _permutation(self._rng, len(cells)):
            i, q = cells[k]
            r, s = self.configs[i]
            out.append(dict(r=r, s=s, query=q, z=interior_point(self._rng, r)))
        return out

    def setup(self):
        super().setup()
        self.solved = {}
        for r, s in self.configs:
            try:
                moduli, _ = self.ff.solve_canonical(r, s)
            except Exception as exc:  # the config's queries become misses
                self.solved[r, s] = f"setup solve: {type(exc).__name__}: {exc}"
                continue
            ctx = moduli.context()
            z = r**0.5 * np.exp(1j * math.pi / 3)
            for q in self.QUERIES:
                getattr(self.ff, q)(moduli, ctx, z)
            self.solved[r, s] = (moduli, ctx)

    def run_op(self, op, attempt):
        solved = self.solved[op.r, op.s]
        if isinstance(solved, str):
            attempt.error = solved
            return
        moduli, ctx = solved
        out = self.call(attempt, op.query, getattr(self.ff, op.query), moduli, ctx, op.z)
        if out is None:
            return
        with self.checks():
            values = _numbers(out)
            # library queries make no claim beyond returning
            if not self.checked(attempt, op.query, all(map(math.isfinite, values)), f"non-finite {values}", False):
                return
            if op.query == "shape_ratio" and not self.checked(
                attempt, op.query, abs(out) < 1.0, f"interior |p| = {abs(out)!r}", False
            ):
                return
            attempt.digest = repr(values)


class Frontier(SolveSweep):
    """solve_sweep over the full rectangle, where the seed's known solve failures lie.

    Not a gated workload: its failure list shows where the solver gives up.
    """

    name = "frontier"
    r_range, s_range = FRONTIER_R_RANGE, FRONTIER_S_RANGE


WORKLOADS = {w.name: w for w in (SolveSweep, Pipeline, Probe, Frontier)}


def _numbers(value) -> list:
    if hasattr(value, "__dataclass_fields__"):
        parts = [getattr(value, f) for f in value.__dataclass_fields__]
    else:
        parts = [value]
    out = []
    for p in parts:
        out += [p.real, p.imag] if isinstance(p, complex) else [float(p)]
    return out


def _digest(*parts: str) -> str:
    return hashlib.sha256("\0".join(parts).encode()).hexdigest()


def _sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_obj(ff, path: Path):
    """Vertices and faces of an OBJ written by flatfront, as a SurfaceMesh."""
    verts, faces = [], []
    for line in path.read_text().splitlines():
        if line.startswith("v "):
            verts.append([float(x) for x in line.split()[1:]])
        elif line.startswith("f "):
            faces.append([int(x) - 1 for x in line.split()[1:]])
    return ff.SurfaceMesh(np.array(verts).reshape(-1, 3), np.array(faces, dtype=np.int64), "halfspace")


def measure(workload: Workload, seconds: float):
    """Two closed-loop passes over whole rounds; returns (ops, elapsed).

    The first pass starts a new round only while the mean round time says
    it ends within half of ``seconds``, and always runs one; the second pass
    repeats the first pass's ops in the same order.
    """
    ops = []
    t0 = time.perf_counter()
    rounds = 0
    while True:
        for fields_ in workload.inputs(rounds):
            op = Op(op=len(ops), round=rounds, **fields_)
            workload.speed.sample()
            workload.run(op)
            ops.append(op)
        rounds += 1
        elapsed = time.perf_counter() - t0
        if elapsed / rounds * (rounds + 1) > seconds / 2:
            break
    for op in ops:
        workload.speed.sample()
        workload.run(op)
    elapsed = time.perf_counter() - t0
    workload.speed.sample()  # the last op's slowdown, read after it too
    return ops, elapsed


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; a miss (inf) on either side reads inf."""
    v = sorted(values)
    pos = (len(v) - 1) * q
    lo = math.floor(pos)
    if pos == lo:
        return v[lo]
    if math.isinf(v[lo + 1]):
        return math.inf
    return v[lo] + (v[lo + 1] - v[lo]) * (pos - lo)


def summary(workload: Workload, ops) -> dict:
    """The workload's latency metrics (misses included) and its failure share."""
    out = {}
    for name, stage, q in workload.metrics:
        out[name] = percentile([op.latency(stage) for op in ops], q)
    out["fail_frac"] = sum(not op.ok for op in ops) / len(ops)
    return out
