"""Tests for the canonical moduli solver."""

import json
import math

import numpy as np
import pytest

from flatfront.solver import (
    MAX_ITERS,
    BracketError,
    RangeNormalizationError,
    SolverTrace,
    bracketed_root,
    residuals,
    solve_canonical,
    solve_exponent,
    solve_inner_point,
    _outer_scan,
)
from flatfront.theta import ThetaContext, pair_slope

# Reference solve at (r, s) = (0.4, -0.25), checked below against the
# defining pairing conditions before any comparison is made.
REFERENCE = {
    "m": -2.5255247760780906,
    "z0": -0.6301165374350526,
    "z1": -0.4093318278169939,
    "z2": -0.9325450417743872,
    "c1": -5.496762887947084,
    "c2": -0.26808356572709446,
    "a_R": 0.09044417935937846,
    "b_R": 0.7158838616470777,
    "c_height": 1.6563147041456883,
}


def test_bracketed_root_basic():
    root, n = bracketed_root(math.cos, 1.0, 2.0)
    assert abs(root - math.pi / 2) < 1e-14
    assert n > 0
    with pytest.raises(BracketError):
        bracketed_root(math.cos, 0.2, 1.0)


def test_bracketed_root_array_matches_scalar_calls():
    c = np.array([0.5, 2.0, 7.0, 30.0, 1e-3])
    lo = np.array([0.0, 0.0, 4.0, 0.0, 0.0])
    hi = np.array([1.0, 2.0, 0.0, 4.0, 1.0])  # one reversed bracket
    roots, n = bracketed_root(lambda x: x * x * x - c, lo, hi)
    assert roots.shape == c.shape
    for i in range(c.size):
        root, n_i = bracketed_root(lambda x: x * x * x - c[i], float(lo[i]), float(hi[i]))
        assert isinstance(root, float)
        assert roots[i] == root, i
        assert n_i <= n
    assert np.all(np.abs(roots - np.cbrt(c)) <= 4 * np.spacing(np.cbrt(c)))


def test_bracketed_root_array_marks_missing_sign_change_nan():
    c = np.array([1.0, -1.0, 8.0, 16.0])
    roots, _ = bracketed_root(lambda x: x * x - c, np.zeros(4), np.full(4, 3.0))
    assert np.isnan(roots[1]) and np.isnan(roots[3])
    assert abs(roots[0] - 1.0) <= 4 * np.spacing(1.0)
    assert abs(roots[2] - math.sqrt(8.0)) <= 4 * np.spacing(3.0)


def test_bracketed_root_converges_next_to_a_pole():
    # the stage-2 pairing blows up at the upper end like 1/(hi - x)
    hi = -0.5
    c = np.array([3.0, 1e3, 1e6, 1e9, 1e12])

    def fn(x):
        with np.errstate(divide="ignore"):
            return 1.0 / (hi - x) - c

    roots, n = bracketed_root(fn, np.full(c.shape, -1.0), np.full(c.shape, hi))
    assert n < MAX_ITERS
    assert np.all(np.abs(roots - (hi - 1.0 / c)) <= 4 * np.spacing(0.5))


def test_range_normalization():
    for r, s in [(1.2, -0.5), (0.0, -0.5), (0.25, 0.5), (0.25, -1.0), (0.25, 0.0)]:
        with pytest.raises(RangeNormalizationError):
            solve_canonical(r, s)


@pytest.mark.parametrize("r", [0.1, 0.25, 0.5])
def test_closed_form_half_slope(r):
    # at s = -1/2 the solution is explicit: m = -5/2, z0 = -sqrt(r), z1 z2 = r
    moduli, trace = solve_canonical(r, -0.5)
    assert abs(moduli.m + 2.5) < 1e-12
    assert abs(moduli.z0 + math.sqrt(r)) < 1e-12
    assert abs(moduli.z1 * moduli.z2 - r) < 1e-12
    assert trace.outer_sign_changes == 1
    assert max(abs(v) for v in trace.residuals.values()) < 1e-12


def test_reference_solve_self_consistent():
    moduli, _ = solve_canonical(0.4, -0.25)
    ctx = ThetaContext.create(0.4)
    # the defining conditions, evaluated independently of the solver loop
    assert pair_slope(ctx, moduli.z0, complex(moduli.z2)).real == pytest.approx(-0.25, abs=1e-11)
    assert pair_slope(ctx, moduli.z0, complex(moduli.z1)).real == pytest.approx(-2.25, abs=1e-11)
    P = 0.4 ** (-2.0 * (moduli.m + 2.0))
    assert moduli.z1 * moduli.z2 == pytest.approx(P, abs=1e-13)
    for name, want in REFERENCE.items():
        assert getattr(moduli, name) == pytest.approx(want, rel=1e-10), name


def test_exponent_stage_alone():
    ctx = ThetaContext.create(0.3)
    m, bracket, iters = solve_exponent(ctx, -0.7)
    assert -3.0 < bracket[0] < m < bracket[1] < -2.0
    assert iters > 0
    # closed form
    m_half, _, _ = solve_exponent(ctx, -0.5)
    assert abs(m_half + 2.5) < 1e-12


def test_inner_point_stage_alone():
    ctx = ThetaContext.create(0.25)
    z2 = solve_inner_point(ctx, -0.5, -0.5)
    assert -1.0 < z2 < -0.5
    assert pair_slope(ctx, -0.5, complex(z2)).real == pytest.approx(-0.5, abs=1e-12)


def test_refined_root_in_first_dense_bracket():
    # independent bracket oracle: a 4x denser scan must put the refined z0
    # inside its first sign-changing interval
    r, s = 0.33, -0.62
    moduli, trace = solve_canonical(r, s)
    ctx = ThetaContext.create(r)
    P = r ** (-2.0 * (moduli.m + 2.0))
    z0s, vals = _outer_scan(ctx, s, P, n=1024)
    fin = np.isfinite(vals[:-1]) & np.isfinite(vals[1:])
    flips = np.flatnonzero(fin & (np.sign(vals[:-1]) != np.sign(vals[1:])))
    assert len(flips) >= 1
    i = flips[0]
    assert z0s[i] <= moduli.z0 <= z0s[i + 1]


def test_residuals_catch_corruption():
    moduli, _ = solve_canonical(0.25, -0.5)
    clean = residuals(moduli)
    assert max(abs(v) for v in clean.values()) < 1e-12
    bad_dict = dict(moduli.to_dict(), z1=moduli.z1 + 1e-2)
    from flatfront.annulus import CanonicalModuli

    bad = CanonicalModuli.from_dict(bad_dict)
    dirty = residuals(bad)
    assert max(abs(v) for v in dirty.values()) > 1e-4


def test_thin_annulus_fails_as_bracket_error():
    # probe lattices compress onto theta zeros as r -> 1; the stage failure
    # must surface as the documented solver error, not a kernel exception
    with pytest.raises(BracketError, match="theta zero"):
        solve_canonical(0.9, -0.5)


def test_solver_deterministic():
    a, ta = solve_canonical(0.37, -0.44)
    b, tb = solve_canonical(0.37, -0.44)
    assert a == b
    assert a.to_json() == b.to_json()
    assert json.dumps(ta.to_dict(), sort_keys=True) == json.dumps(tb.to_dict(), sort_keys=True)


def test_solution_responds_to_parameters():
    base, _ = solve_canonical(0.4, -0.25)
    bumped_s, _ = solve_canonical(0.4, -0.25 + 1e-6)
    bumped_r, _ = solve_canonical(0.4 + 1e-6, -0.25)
    assert 1e-10 < abs(bumped_s.z0 - base.z0) < 1e-6
    assert 1e-8 < abs(bumped_r.z0 - base.z0) < 1e-4
    assert abs(bumped_s.m - base.m) > 1e-8


def test_trace_serializable():
    _, trace = solve_canonical(0.25, -0.5)
    assert isinstance(trace, SolverTrace)
    blob = json.dumps(trace.to_dict(), sort_keys=True)
    back = json.loads(blob)
    assert back["outer_sign_changes"] == 1
    assert set(back["residuals"]) == {"c1_res", "c2_res", "c3_res"}
    assert back["scan_points"] == 256
