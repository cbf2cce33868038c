"""Tests of the benchmark itself: seeded inputs, tracer restore, exact counts."""

import math
import random

import numpy as np
import pytest

import flatfront
from perfbench import workloads as wl
from perfbench.tracer import METRICS, Tracer, flatfront_modules

SEED = 5


def _bindings():
    out = {}
    for m in flatfront_modules(flatfront):
        for k, v in vars(m).items():
            out[m.__name__, k] = v
            if type(v) is dict:
                out.update({(m.__name__, k, kk): vv for kk, vv in v.items()})
    return out


def test_tracer_restores_every_patched_function():
    before = _bindings()
    with Tracer(flatfront):
        during = _bindings()
        changed = {k for k in before if during[k] is not before[k]}
        # every import site of a wrapped name, the package namespace included
        assert ("flatfront", "solve_canonical") in changed
        assert ("flatfront.annulus", "_eval") in changed
        assert ("flatfront.validation", "_outer_scan") in changed
        assert ("flatfront.cli", "_WRITERS", "obj") in changed
        assert flatfront.annulus._eval is flatfront.theta._eval
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[k] is before[k] for k in before)


def test_tracer_restores_after_an_error():
    before = _bindings()
    with pytest.raises(RuntimeError):
        with Tracer(flatfront):
            raise RuntimeError("stop")
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_inputs_depend_only_on_the_seed(tmp_path):
    for cls in wl.WORKLOADS.values():
        a = cls(flatfront, SEED, tmp_path)
        first = [a.inputs(i) for i in range(3)]
        random.seed(1)
        np.random.seed(1)
        b = cls(flatfront, SEED, tmp_path / "other")
        b.inputs(4)  # drawing further ahead leaves earlier rounds alone
        assert [b.inputs(i) for i in range(3)] == first
        a.reset_inputs()
        assert [a.inputs(i) for i in range(3)] == first
        assert cls(flatfront, SEED + 1, tmp_path).inputs(0) != first[0]


def test_rounds_cover_every_stratum():
    rng = random.Random(SEED)
    k = 16
    pairs = wl.stratified(rng, k, wl.SWEEP_R_RANGE, wl.S_RANGE)
    lo, hi = wl.SWEEP_R_RANGE
    slo, shi = wl.S_RANGE
    assert sorted(int((r - lo) / (hi - lo) * k) for r, _ in pairs) == list(range(k))
    assert sorted(int((s - slo) / (shi - slo) * k) for _, s in pairs) == list(range(k))


def test_percentile_counts_misses_as_slowest():
    assert wl.percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert wl.percentile([1.0, 2.0, math.inf], 0.5) == 2.0
    assert wl.percentile([1.0, math.inf], 0.5) == math.inf


def test_slowdown_is_read_around_the_interval():
    speed = wl.Speedometer()
    nominal = wl.REFERENCE_NOMINAL_S
    w = wl.REFERENCE_WINDOW_S
    speed.ends = [0.0, 1.0, 3 * w, 3 * w + 1.0]
    speed.samples = [nominal, nominal, 2 * nominal, 4 * nominal]
    assert speed.slowdown == 2.0
    assert speed.around(0.2, 0.8) == 1.0
    assert speed.around(3 * w, 3 * w + 0.6) == 3.0
    assert speed.around(1.5 * w, 1.5 * w + 0.1) == 2.0  # no sample near: the run's


def test_counts_repeat_exactly(tmp_path):
    """Two traced runs of the same seeded ops record identical counts."""
    runs = []
    for run in range(2):
        counts = {}
        for cls, n_ops in ((wl.SolveSweep, 2), (wl.Pipeline, 1)):
            tracer = Tracer(flatfront)
            workload = cls(flatfront, SEED, tmp_path / f"{cls.name}-{run}", tracer)
            workload.clear_caches()
            # the cheapest ops of the seed's first round
            fields = sorted(workload.inputs(0), key=lambda f: f["r"])[:n_ops]
            ops = [wl.Op(op=i, round=0, **f) for i, f in enumerate(fields)]
            with tracer:
                for op in ops + ops:
                    workload.run(op)
            assert all(op.repeatable for op in ops)
            metrics = tracer.layer_metrics(range(n_ops))
            counts[cls.name] = {k: v for k, v in metrics.items() if METRICS[k] not in ("s", "ns")}
        runs.append(counts)
    assert runs[0] == runs[1]
    assert runs[0]["solve_sweep"]["theta.point_terms"] > 0
    assert runs[0]["solve_sweep"]["solver.outer_iterations"] > 0
    assert runs[0]["pipeline"]["annulus.W_points"] > 0
    assert runs[0]["pipeline"]["meshing.bytes"] > 0
