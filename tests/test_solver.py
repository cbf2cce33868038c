"""Tests for the canonical moduli solver."""

import json
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from flatfront import annulus, solver
from flatfront import theta as theta_module
from flatfront.annulus import fit_gauss_ratio, gauss_map, slit_map, slit_map_deriv
from flatfront.immersion import end_direction
from flatfront.solver import (
    EXPONENT_BRACKET,
    MAX_ITERS,
    RESIDUAL_TOL,
    BracketError,
    RangeNormalizationError,
    SolverTrace,
    bracketed_root,
    residuals,
    solve_canonical,
    _inner_split,
    _newton_markers,
    _outer_scan,
    _pairing,
)
from flatfront.theta import ThetaContext, log_slope, log_slope_deriv, pair_slope, theta1
from flatfront.validation import validate_moduli

import oracles
from routes import bracketed_root_reference, scan_stages_reference

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


def _cube_root_of(c):
    # x^3 - c and its derivative, per entry
    return lambda x, i: (x * x * x - c[i], 3.0 * x * x)


def test_bracketed_root_basic():
    (root,), n = bracketed_root(lambda x, i: (np.cos(x), -np.sin(x)), 1.0, 2.0)
    assert abs(root - math.pi / 2) < 1e-14
    assert n > 0
    (root,), _ = bracketed_root(lambda x, i: (np.cos(x), -np.sin(x)), 0.2, 1.0)
    assert np.isnan(root)


def test_bracketed_root_array_matches_one_entry_calls():
    c = np.array([0.5, 2.0, 7.0, 30.0, 1e-3])
    lo = np.array([0.0, 0.0, 4.0, 0.0, 0.0])
    hi = np.array([1.0, 2.0, 0.0, 4.0, 1.0])  # one reversed bracket
    roots, n = bracketed_root(_cube_root_of(c), lo, hi)
    assert roots.shape == c.shape
    for i in range(c.size):
        root, n_i = bracketed_root(_cube_root_of(c[i : i + 1]), lo[i : i + 1], hi[i : i + 1])
        assert roots[i] == root[0], i
        assert n_i <= n
    assert np.all(np.abs(roots - np.cbrt(c)) <= 4 * np.spacing(np.cbrt(c)))


def test_bracketed_root_array_marks_missing_sign_change_nan():
    c = np.array([1.0, -1.0, 8.0, 16.0])
    roots, _ = bracketed_root(lambda x, i: (x * x - c[i], 2.0 * x), np.zeros(4), np.full(4, 3.0))
    assert np.isnan(roots[1]) and np.isnan(roots[3])
    assert abs(roots[0] - 1.0) <= 4 * np.spacing(1.0)
    assert abs(roots[2] - math.sqrt(8.0)) <= 4 * np.spacing(3.0)


def test_bracketed_root_converges_next_to_a_pole():
    # the stage-2 pairing blows up at the upper end like 1/(hi - x)
    hi = -0.5
    c = np.array([3.0, 1e3, 1e6, 1e9, 1e12])

    def fn(x, i):
        with np.errstate(divide="ignore"):
            inv = 1.0 / (hi - x)
        return inv - c[i], inv * inv

    roots, n = bracketed_root(fn, np.full(c.shape, -1.0), np.full(c.shape, hi))
    assert n < MAX_ITERS
    assert np.all(np.abs(roots - (hi - 1.0 / c)) <= 4 * np.spacing(0.5))


def test_bracketed_root_array_evaluates_active_entries_only():
    # the first call takes both ends of every bracket; entries that have
    # stopped drop out of the later calls, and each entry still gets the
    # bits of its one-entry call
    c = np.array([0.5, 2.0, 7.0, 30.0, 1e-3, 8.0, 64.0, 0.9])
    lo, hi = np.zeros(c.shape), np.full(c.shape, 4.5)
    calls = []

    def fn(x, i):
        assert x.shape == i.shape
        calls.append(i.copy())
        return _cube_root_of(c)(x, i)

    roots, n = bracketed_root(fn, lo, hi)
    k = np.arange(c.size)
    assert np.array_equal(calls[0], np.concatenate([k, k]))
    assert len(calls) == n + 1
    for earlier, later in zip(calls[1:], calls[2:]):
        assert np.all(np.diff(later) > 0) and np.isin(later, earlier).all()
    assert calls[-1].size < c.size
    for j in range(c.size):
        root, _ = bracketed_root(_cube_root_of(c[j : j + 1]), lo[j : j + 1], hi[j : j + 1])
        assert roots[j] == root[0], j


REFERENCE_CELLS = [(0.25, -0.5), (0.05, -0.04), (0.45, -0.1), (0.7, -0.99), (0.236, -0.02)]


@pytest.mark.parametrize("r, s", REFERENCE_CELLS)
def test_bracketed_root_keeps_the_bits_of_the_reference_loop(monkeypatch, r, s):
    # the root finder carries only its active entries; on the one call of
    # stage 1 and the scan's stage 2 it gives the roots and iteration counts
    # of the loop on full-length arrays bit for bit, and the one call gives
    # each stage the bits of two calls, stage 1 and then stage 2
    ctx = ThetaContext.create(r)

    def stages():
        _, _, z2s, m, (n_exp, n_scan) = _outer_scan(ctx, s)
        return m, z2s.tobytes(), n_exp, n_scan

    got = m, _, n_exp, n_scan = stages()
    moduli, trace = solve_canonical(r, s)
    assert (moduli.m, trace.exponent_iterations, trace.scan_iterations) == (m, n_exp, n_scan)
    ref_m, ref_z2s, ref_n_exp, ref_n_scan = scan_stages_reference(ctx, s)
    assert got == (ref_m, ref_z2s.tobytes(), ref_n_exp, ref_n_scan)
    monkeypatch.setattr(solver, "bracketed_root", bracketed_root_reference)
    assert got == stages()


def test_inner_split_batch_matches_single_candidates():
    ctx = ThetaContext.create(0.35)
    z0s = np.linspace(-0.95, -0.4, 9)
    z2s, m, _ = _inner_split(ctx, z0s, -0.3)
    assert m is None
    # stage 1 in the same call leaves the splits' bits as they are
    assert _inner_split(ctx, z0s, -0.3, exponent=True)[0].tobytes() == z2s.tobytes()
    for z0, z2 in zip(z0s, z2s):
        alone = _inner_split(ctx, np.array([z0]), -0.3)[0]
        assert alone[0] == z2 or (np.isnan(alone[0]) and np.isnan(z2))


def _criterion_3_grid():
    return [(float(r), float(s)) for r in np.linspace(0.1, 0.6, 5) for s in np.linspace(-0.9, -0.1, 5)]


@pytest.mark.parametrize("r, s", REFERENCE_CELLS + _criterion_3_grid())
def test_validate_scans_as_the_solve_does(r, s):
    # the solve's scan runs stage 1 in its root loop, validate_moduli's
    # takes the stored P; both give the same outer pairing values and so
    # the same count of sign changes
    moduli, trace = solve_canonical(r, s)
    ctx = ThetaContext.create(r)
    P = r ** (-2.0 * (moduli.m + 2.0))
    assert _outer_scan(ctx, s, P)[1].tobytes() == _outer_scan(ctx, s)[1].tobytes()
    assert validate_moduli(moduli).outer_sign_changes == trace.outer_sign_changes


@pytest.mark.parametrize("s", [-0.999, -0.5, -0.04])
@pytest.mark.parametrize("r", [0.05, 0.4, 0.75, 0.9])
def test_newton_stage_solves_both_pairings(r, s):
    moduli, trace = solve_canonical(r, s)
    ctx = ThetaContext.create(r)
    # the defining conditions, evaluated independently of the Newton loop
    assert abs(pair_slope(ctx, moduli.z0, complex(moduli.z2)).real - s) <= 1e-12
    assert abs(pair_slope(ctx, moduli.z0, complex(moduli.z1)).real - (s - 2.0)) <= 1e-12
    lo, hi = trace.chosen_bracket
    assert lo <= moduli.z0 <= hi
    assert 1 <= trace.outer_iterations <= 10
    assert trace.scan_iterations > 0


@pytest.mark.parametrize("r", [0.05, 0.4, 0.75, 0.9])
def test_pair_minus_s_equals_complex_pair_slope(r):
    # the solver's pairing, both log_slope arguments in one call of the
    # modular series, agrees with the public pair_slope, which runs on the
    # product, to 1e-12 relative to max(1, |value|), plus the product's
    # rounding of about 1e-16 relative to the distance from the pole at
    # w = c (5.9e-12 at 1.8e-5 from it, r = 0.9); one-point calls give the
    # batch's bits
    ctx = ThetaContext.create(r)
    rng = np.random.default_rng(17)
    c = rng.uniform(-1.0, -r, 300)
    w = rng.uniform(-1.0, -r, 300)
    s = -0.3
    got = _pairing(ctx, c, w, 1)[0] - s
    want = pair_slope(ctx, c + 0j, w + 0j).real - s
    tol = 1e-12 + 1e-15 / np.abs(w / c - 1.0)
    assert np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want)))
    for i in range(0, c.size, 37):
        one = _pairing(ctx, c[i : i + 1], w[i : i + 1], 1)[0] - s
        assert one.tobytes() == got[i : i + 1].tobytes()


@pytest.mark.parametrize("r", [0.05, 0.25, 0.45, 0.7, 0.9])
def test_outer_pairing_at_the_left_edge_is_exact(r):
    # pair_slope(c, -r) = -2 for every centre c in (-1, -r): with u = -c,
    # log_slope(r u) = log_slope(u/r) - 1 = -2 - log_slope(r/u).  So the
    # stage-3 residual pair_slope(z0, z1) - (s - 2) is exactly -s > 0 at the
    # edge z1 = -r.  Checked on the product's pair_slope and on the
    # solver's real-series pairing, to 1e-12 relative to the size of either
    # term, which grows next to the zero at c = -r (at most 3.0e-13 on the
    # product, at r = 0.7 next to c = -r, and 3.5e-14 on the series)
    ctx = ThetaContext.create(r)
    c = np.linspace(-1.0 + 1e-3, -r * (1.0 + 1e-3), 50)
    edge = np.full(c.shape, -r)
    scale = np.maximum(1.0, np.abs(log_slope(ctx, -r / c + 0j).real))
    product = pair_slope(ctx, c + 0j, edge + 0j)
    series = _pairing(ctx, c, edge, 1)[0]
    assert np.all(np.abs(product.imag) <= 1e-12 * scale)
    assert np.all(np.abs(product.real + 2.0) <= 1e-12 * scale)
    assert np.all(np.abs(series + 2.0) <= 1e-12 * scale)


@pytest.mark.parametrize("r, s", [(0.25, -0.5), (0.6, -0.8), (0.9, -0.04)])
def test_newton_evaluation_equals_separate_calls(r, s):
    # one series call at the points of a Newton step near the root, with a
    # scalar z0, gives the pairings of the scan's order-1 calls, with an
    # array of z0 and no derivatives, bit for bit, and its
    # pairings and derivatives agree with the product's log_slope and
    # log_slope_deriv to 1e-12 relative to max(1, |value|)
    moduli, _ = solve_canonical(r, s)
    ctx = ThetaContext.create(r)
    z0, z1, z2 = moduli.z0, moduli.z1, moduli.z2
    w = np.array([z2, z1])
    pair, dw, dz0 = _pairing(ctx, z0, w, 2)
    scan = _pairing(ctx, np.full(2, z0), w, 1)
    assert scan[0].tobytes() == pair.tobytes() and scan[1:] == (None, None)
    for i in range(2):
        one = _pairing(ctx, z0, w[i : i + 1], 2)
        assert all(a.tobytes() == b[i : i + 1].tobytes() for a, b in zip(one, (pair, dw, dz0)))
    L = log_slope(ctx, w / z0 + 0j).real, log_slope(ctx, w * z0 + 0j).real
    D = log_slope_deriv(ctx, w / z0 + 0j).real, log_slope_deriv(ctx, w * z0 + 0j).real
    for got, want in (
        (pair, L[0] + L[1]),
        (dw, D[0] / z0 + D[1] * z0),
        (dz0, w * (D[1] - D[0] / (z0 * z0))),
    ):
        assert np.all(np.abs(got - want) <= 1e-12 * np.maximum(1.0, np.abs(want)))


def test_newton_stage_fails_outside_its_bracket():
    r, s = 0.4, -0.25
    moduli, trace = solve_canonical(r, s)
    ctx = ThetaContext.create(r)
    P = moduli.z1 * moduli.z2
    lo, hi = trace.chosen_bracket
    # the root lies inside the bracket, so a start at its left end with the
    # bracket cut down to that end must step out of it
    with pytest.raises(BracketError, match="^stage 3: Newton step left"):
        _newton_markers(ctx, s, P, lo, moduli.z2, (lo, lo))


@pytest.mark.parametrize(
    "r, s",
    [(0.25, -0.5), (0.05, -0.04), (0.45, -0.1), (0.7, -0.99), (0.236, -0.02), (0.6, -0.8), (0.1, -0.3)],
)
def test_newton_steps_ignore_last_bit_changes(monkeypatch, r, s):
    # stage 3 stops after a step of at most solver.FLOOR_ULPS, as stages 1
    # and 2 do, so its step count does not hang on steps taken in rounding
    # noise: every log slope one ulp up, or one ulp down, leaves it unchanged
    # at the reference-solve cells and two more
    _, trace = solve_canonical(r, s)
    exact = solver._real_log_slopes
    for toward in (np.inf, -np.inf):

        def nudged(ctx, w, order, toward=toward):
            h, dh = exact(ctx, w, order)
            return np.nextafter(h, toward), dh

        monkeypatch.setattr(solver, "_real_log_slopes", nudged)
        assert solve_canonical(r, s)[1].outer_iterations == trace.outer_iterations, toward


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


@pytest.mark.parametrize("r, s", REFERENCE_CELLS + [(0.05, -0.99), (0.75, -0.99), (0.75, -0.04)])
def test_moduli_match_the_reference_solve(r, s):
    # a 40-digit Newton solve of the three stage equations on mpmath's sums,
    # started from the float solve, pins the markers and the exponent
    moduli, _ = solve_canonical(r, s)
    ref = oracles.solve_moduli(r, s, (moduli.m, moduli.z0, moduli.z2))
    for name, want in zip(("m", "z0", "z1", "z2"), ref):
        got = getattr(moduli, name)
        assert abs(got - want) <= 1e-13 * abs(want), (name, got, want)


def test_exponent_stage_alone():
    # stage 1 runs as one more entry of the scan's root loop
    ctx = ThetaContext.create(0.3)
    _, _, _, m, (iters, _) = _outer_scan(ctx, -0.7)
    lo, hi = EXPONENT_BRACKET
    assert -3.0 < lo < m < hi < -2.0
    assert iters > 0
    moduli, trace = solve_canonical(0.3, -0.7)
    assert trace.exponent_bracket == EXPONENT_BRACKET and moduli.m == m
    # closed form
    m_half = _outer_scan(ctx, -0.5)[3]
    assert abs(m_half + 2.5) < 1e-12


def test_exponent_stage_on_the_pole_free_balance():
    # stage 1 runs on the balance times -sin(pi (m+2)), which cancels the
    # poles next to both bracket ends; the balance itself, from the public
    # log_slope, vanishes at the root the scan returns
    iters = []
    for r in np.linspace(0.05, 0.75, 15):
        ctx = ThetaContext.create(r)
        for s in np.linspace(-0.99, -0.04, 8):
            _, _, _, m, (n, _) = _outer_scan(ctx, s)
            iters.append(n)
            balance = 2.0 * log_slope(ctx, r ** (-2.0 * (m + 2.0))).real - 1.0 - s - m
            assert abs(balance) <= 1e-12, (r, s, balance)
    assert np.mean(iters) <= 4.5


@pytest.mark.parametrize("s", [-0.999999, -0.99, -0.5, -0.01, -1e-6])
@pytest.mark.parametrize("r", [0.01, 0.05, 0.3, 0.6, 0.9, 0.97, 0.99])
def test_exponent_bracket_changes_sign(r, s):
    # the balance 2 log_slope(r^(-2(m+2))) - 1 - s - m at the two ends of
    # the fixed stage-1 bracket, from the public log_slope
    ctx = ThetaContext.create(r)
    lo, hi = EXPONENT_BRACKET
    ends = [2.0 * log_slope(ctx, r ** (-2.0 * (m + 2.0))).real - 1.0 - s - m for m in (lo, hi)]
    assert ends[0] > 0.0 > ends[1]
    m = _outer_scan(ctx, s)[3]
    assert lo < m < hi


def test_exponent_without_sign_change_is_stage_1_error(monkeypatch):
    # at s = -1/2 the root is m = -5/2, outside this bracket; the scan's
    # stage 2, in the same root loop, finds its splits
    monkeypatch.setattr(solver, "EXPONENT_BRACKET", (-2.4, -2.3))
    with pytest.raises(BracketError, match="^stage 1:"):
        _outer_scan(ThetaContext.create(0.25), -0.5)
    with pytest.raises(BracketError, match="^stage 1:"):
        solve_canonical(0.25, -0.5)


def test_inner_point_stage_alone():
    ctx = ThetaContext.create(0.25)
    z2 = float(_inner_split(ctx, np.array([-0.5]), -0.5)[0][0])
    assert -1.0 < z2 < -0.5
    assert pair_slope(ctx, -0.5, complex(z2)).real == pytest.approx(-0.5, abs=1e-12)


@settings(derandomize=True, database=None, deadline=None, max_examples=25)
@given(r=st.floats(0.05, 0.75), s=st.floats(-0.99, -0.04))
def test_solve_property_over_solve_sweep_rectangle(r, s):
    moduli, trace = solve_canonical(r, s)
    ctx = ThetaContext.create(r)
    assert -1.0 < moduli.z2 < moduli.z0 < moduli.z1 < -r
    assert abs(pair_slope(ctx, moduli.z0, complex(moduli.z2)).real - s) <= 1e-12
    assert abs(pair_slope(ctx, moduli.z0, complex(moduli.z1)).real - (s - 2.0)) <= 1e-12
    assert all(abs(v) <= 1e-10 for v in trace.residuals.values())


def test_refined_root_in_first_dense_bracket():
    # independent bracket oracle: a 4x denser scan must put the refined z0
    # inside its first sign-changing interval
    r, s = 0.33, -0.62
    moduli, trace = solve_canonical(r, s)
    ctx = ThetaContext.create(r)
    P = r ** (-2.0 * (moduli.m + 2.0))
    z0s, vals = _outer_scan(ctx, s, P, n=1024)[:2]
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


def test_thin_annulus_solves():
    # the stage-2 endpoint 1 + 1e-9 sits next to a theta zero without being
    # one, however large theta grows as r -> 1
    moduli, _ = solve_canonical(0.9, -0.5)
    assert -1.0 < moduli.z2 < moduli.z0 < moduli.z1 < -moduli.r
    assert all(abs(v) <= RESIDUAL_TOL for v in residuals(moduli).values())


def test_stage_failure_is_bracket_error():
    # a stage failure surfaces as the documented solver error, not a kernel
    # exception, and names the stage that failed
    with pytest.raises(BracketError, match="^stage 3: outer pairing has no sign change"):
        solve_canonical(0.05, -0.001)


def test_solver_deterministic():
    a, ta = solve_canonical(0.37, -0.44)
    b, tb = solve_canonical(0.37, -0.44)
    assert a == b
    assert a.to_json() == b.to_json()
    # every field is a Python float, as after from_json
    assert all(type(v) is float for v in a.to_dict().values())
    assert a == annulus.CanonicalModuli.from_json(a.to_json())
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


@pytest.mark.parametrize("tol", [math.nan, math.inf, 0.0, -1.0])
def test_tolerance_must_be_finite_and_positive(tol):
    with pytest.raises(ValueError, match="tol must be a finite positive number"):
        solve_canonical(0.25, -0.5, tol=tol)


def test_nan_residual_fails_the_check(monkeypatch):
    real = solver._closing_residuals

    def nan_c2(moduli, rp1, rp2):
        return {**real(moduli, rp1, rp2), "c2_res": math.nan}

    monkeypatch.setattr(solver, "_closing_residuals", nan_c2)
    with pytest.raises(BracketError, match="fails residual check"):
        solve_canonical(0.25, -0.5)


@pytest.mark.parametrize("r, s", [(0.25, -0.5), (0.6, -0.8), (0.1, -0.1)])
def test_stacked_slit_values_keep_the_bits(r, s):
    # the solve's closing step, residuals and the per-surface record read
    # their slit and theta values from stacked passes; each value equals the
    # one-point public composition bit for bit
    moduli, trace = solve_canonical(r, s)
    ctx = moduli.context()
    z0, z1, z2 = moduli.z0, moduli.z1, moduli.z2
    assert moduli.c1 == slit_map(ctx, z1, complex(z0)).real
    assert moduli.c2 == slit_map(ctx, z2, complex(z0)).real
    q1, q2 = slit_map(ctx, z0, complex(z1)), slit_map(ctx, z0, complex(z2))
    a = 1.0 / (q1 - q2).real
    assert (moduli.a_R, moduli.b_R) == fit_gauss_ratio(ctx, z0, z1, z2) == (a, -a * q2.real)

    rp1 = moduli.a_R * slit_map_deriv(ctx, z0, complex(z1)).real
    rp2 = moduli.a_R * slit_map_deriv(ctx, z0, complex(z2)).real
    want = {
        "c1_res": moduli.m + moduli.c1 * z1 - z1 * rp1 + z2 * rp2,
        "c2_res": moduli.c1 * z1 - moduli.c2 * z2 - 2.0,
        "c3_res": z1 * z2 * r ** (2.0 * (moduli.m + 2.0)) - 1.0,
    }
    assert trace.residuals == residuals(moduli) == want

    # the record's coefficients of g and the shape factor, from sqrt(C) and K'
    # of one-point theta1 values
    t = [theta1(ctx, complex(w)).real for w in (z1 / z0, z1 * z0, z2 / z0, z2 * z0, z2 / z1, z2 * z1)]
    sqrt_c, k_prime = math.sqrt(-t[0] * t[1] / (t[2] * t[3])), t[2] * t[3] / (t[4] * t[5])
    ell = math.pi / ctx.k
    l0, l1, l2 = (float(np.log(-x)) for x in (z0, z1, z2))
    surface = annulus._surface.__wrapped__(moduli, ctx)
    assert surface.g_coef == (
        float(np.log(sqrt_c)) + (l2 - l1) * ((l1 + l2) / (4.0 * ell) - 0.5),
        (l2 - l1) / (2.0 * ell) - 1.0,
    )
    assert surface.f_coef == (
        float(np.log(z0 / (z1 * k_prime))) + (l0 * l0 - l1 * l1) / (2.0 * ell) - (l0 - l1),
        moduli.m + 1.0 - l1 / ell,
    )
    assert end_direction(moduli) == complex(gauss_map(moduli, ctx, z0).real)


def test_kernel_calls_of_the_stacked_passes(monkeypatch):
    # a marker pass is one kernel call over the arguments marker/z and
    # marker z of its four slit values; the per-surface record adds its
    # other theta values to that call, and end_direction takes the end
    # direction from the modular series, so it calls no product kernel.  The
    # solve's stages run on the modular series, so its one call of the
    # product is the closing pass, which residuals repeats.  fit_gauss_ratio
    # keeps slit_map's two calls
    moduli, _ = solve_canonical(0.25, -0.5)
    ctx = moduli.context()
    annulus._surface(moduli, ctx)
    orders = []
    for module in (theta_module, annulus):
        def counted(*args, fn=module._eval, **kw):
            orders.append(args[2])
            return fn(*args, **kw)

        monkeypatch.setattr(module, "_eval", counted)
    z0, z1, z2 = moduli.z0, moduli.z1, moduli.z2
    for call, want in (
        (lambda: solve_canonical(0.25, -0.5), {2: 1}),
        (lambda: annulus._marker_slits(ctx, z0, z1, z2), {2: 1}),
        (lambda: fit_gauss_ratio(ctx, z0, z1, z2), {1: 2}),
        (lambda: residuals(moduli), {2: 1}),
        (lambda: annulus._surface.__wrapped__(moduli, ctx), {2: 1}),
        (lambda: end_direction(moduli), {}),
    ):
        orders.clear()
        call()
        assert Counter(orders) == want
