"""Tests for the annulus maps: slit maps, ratio map, quotients, Gauss map."""

import dataclasses
import json
import tracemalloc

import mpmath as mp
import numpy as np
import pytest

import digests
import oracles
from flatfront import annulus as annulus_module
from oracles import theta_product, theta_product_deriv
from flatfront.solver import solve_canonical
from flatfront.theta import ThetaContext, ThetaPoleError, pair_slope, theta1
from flatfront.annulus import (
    AT_INFINITY,
    CanonicalModuli,
    DegenerateConfigurationError,
    RepresentationError,
    _CHUNK,
    _surface_series,
    fit_gauss_ratio,
    gauss_map,
    gauss_map_deriv,
    gauss_map_square,
    gauss_ratio,
    gauss_ratio_deriv,
    gauss_square_log_deriv,
    gauss_square_winding,
    inv_gauss_gap,
    potential,
    second_gauss_map,
    slit_map,
    slit_map_deriv,
    theta_quotient,
)
from flatfront.immersion import end_direction, first_form, immerse, shape_ratio
from routes import shape_factor_product

# Closed-form configuration at r = 1/4, s = -1/2: m = -5/2, z0 = -sqrt(r),
# z1 z2 = r.  The z2 split was pinned by bisection on the pairing condition;
# test_fixture_self_consistent re-derives every entry from the defining
# equations, so these constants cannot silently drift.
FLAGSHIP = CanonicalModuli(
    r=0.25,
    s=-0.5,
    m=-2.5,
    z0=-0.5,
    z1=-0.2792126912190024,
    z2=-0.8953747729321901,
    c1=-8.953747729321904,
    c2=-0.5584253824380048,
    a_R=0.1068759460214252,
    b_R=0.8206278380642757,
    c_height=2.233701529752019,
)


@pytest.fixture(scope="module")
def mod():
    return FLAGSHIP


@pytest.fixture(scope="module")
def ctx():
    return FLAGSHIP.context()


def _annulus_samples(r, n, seed=0):
    rng = np.random.default_rng(seed)
    rho = np.exp(np.log(r) * rng.random(n))
    return rho * np.exp(1j * rng.uniform(-np.pi, np.pi, n))


def _away_from_markers(z, m, gap=0.05):
    keep = np.ones(z.shape, dtype=bool)
    for mk in (m.z0, m.z1, m.z2):
        keep &= np.abs(z - mk) > gap
    return z[keep]


def test_fixture_self_consistent(mod, ctx):
    assert mod.z0 == pytest.approx(-np.sqrt(mod.r), abs=1e-15)
    assert mod.z1 * mod.z2 == pytest.approx(mod.r, abs=1e-14)
    # the split is determined by the inner pairing condition
    assert pair_slope(ctx, mod.z0, complex(mod.z2)).real == pytest.approx(mod.s, abs=1e-9)
    # derived constants follow from the markers
    assert slit_map(ctx, mod.z1, complex(mod.z0)).real == pytest.approx(mod.c1, rel=1e-12)
    assert slit_map(ctx, mod.z2, complex(mod.z0)).real == pytest.approx(mod.c2, rel=1e-12)
    a, b = fit_gauss_ratio(ctx, mod.z0, mod.z1, mod.z2)
    assert a == pytest.approx(mod.a_R, rel=1e-12)
    assert b == pytest.approx(mod.b_R, rel=1e-12)
    assert mod.c_height == pytest.approx(abs(mod.z1) * mod.r ** (mod.m + 1.0), rel=1e-14)
    # height identity c^2 = (z1/z2) r^-2
    assert mod.c_height**2 == pytest.approx((mod.z1 / mod.z2) / mod.r**2, rel=1e-12)


def test_moduli_validation():
    good = FLAGSHIP.to_dict()
    for field, value in [("r", 1.5), ("s", 0.5), ("z2", -0.2), ("c_height", -1.0)]:
        bad = dict(good, **{field: value})
        with pytest.raises(ValueError):
            CanonicalModuli.from_dict(bad)


def test_moduli_json_roundtrip():
    text = FLAGSHIP.to_json()
    data = json.loads(text)
    assert list(data.keys()) == [
        "r", "s", "m", "z0", "z1", "z2", "c1", "c2", "a_R", "b_R", "c_height",
    ]
    again = CanonicalModuli.from_json(text)
    assert again == FLAGSHIP
    assert again.to_json() == text


def test_slit_map_simple_pole(mod, ctx):
    # (z - marker) * q(z) -> 1 with first-order error in the offset
    for marker in (mod.z1, mod.z2):
        errs = []
        for h in (1e-4, 1e-5):
            z = complex(marker + h)
            errs.append(abs((z - marker) * slit_map(ctx, marker, z) - 1.0))
        assert errs[0] < 1e-2
        assert errs[1] < 0.2 * errs[0]


def test_slit_map_real_on_boundary(mod, ctx):
    th = np.linspace(-np.pi, np.pi, 64)
    for rho in (1.0, mod.r):
        q = slit_map(ctx, mod.z1, rho * np.exp(1j * th))
        assert np.abs(q.imag).max() < 1e-10 * np.abs(q.real).max()


def test_slit_map_is_log_deriv_of_quotient(mod, ctx):
    # d/dz log Q(z) = (marker / z) q(z): finite differences of the quotient
    # give a route to q that shares no code with the slit-map evaluator.
    z = _away_from_markers(_annulus_samples(0.6 * (1 + mod.r), 40, seed=5), mod)
    h = 1e-6
    for marker in (mod.z1, mod.z2):
        lhs = (theta_quotient(ctx, marker, z + h) - theta_quotient(ctx, marker, z - h)) / (
            2.0 * h * theta_quotient(ctx, marker, z)
        )
        rhs = (marker / z) * slit_map(ctx, marker, z)
        assert np.abs(lhs - rhs).max() < 1e-5 * (1.0 + np.abs(rhs).max())


def test_slit_map_deriv_matches_fd(mod, ctx):
    z = _away_from_markers(_annulus_samples(0.6, 40, seed=6), mod)
    h = 1e-6
    fd = (slit_map(ctx, mod.z1, z + h) - slit_map(ctx, mod.z1, z - h)) / (2.0 * h)
    dv = slit_map_deriv(ctx, mod.z1, z)
    assert np.abs(fd - dv).max() < 1e-5 * (1.0 + np.abs(dv).max())


def test_gauss_ratio_normalization(mod, ctx):
    assert gauss_ratio(mod, ctx, complex(mod.z1)) == pytest.approx(1.0, abs=1e-12)
    assert gauss_ratio(mod, ctx, complex(mod.z2)) == pytest.approx(0.0, abs=1e-12)
    with pytest.raises(ThetaPoleError):
        gauss_ratio(mod, ctx, complex(mod.z0))


def test_gauss_ratio_critical_at_half_periods(mod, ctx):
    # the slit tips sit over +-1 and +-r, so R' vanishes there
    for z in (1.0, -1.0, mod.r, -mod.r):
        assert abs(gauss_ratio_deriv(mod, ctx, complex(z))) < 1e-12


def test_fit_gauss_ratio_rejects_degenerate(ctx):
    with pytest.raises(DegenerateConfigurationError):
        fit_gauss_ratio(ctx, -0.5, -0.6, -0.6)


def test_theta_quotient_unimodular_and_zero(mod, ctx):
    th = np.linspace(-np.pi, np.pi, 128)
    q = theta_quotient(ctx, mod.z1, np.exp(1j * th))
    assert np.abs(np.abs(q) - 1.0).max() < 1e-12
    assert abs(theta_quotient(ctx, mod.z1, complex(mod.z1))) < 1e-13
    z = _annulus_samples(mod.r, 500, seed=9)
    vals = np.abs(theta_quotient(ctx, mod.z1, z))
    assert vals[np.abs(z - mod.z1) > 0.05].min() > 1e-3


CLOSED_FORM_CASES = [(0.25, -0.5), (0.7, -0.999), (0.05, -0.04), (0.9, -0.5), (0.5, -0.999)]


@pytest.mark.parametrize("r, s", CLOSED_FORM_CASES + [(0.65, -0.01)])
def test_gauss_square_matches_raw_composite(r, s):
    # the theta products W = (z g)^2 and e^2u = |Q1 z^m / (1-R)| against the
    # literal composites of slit map and quotients, away from the markers
    mod, _ = solve_canonical(r, s)
    ctx = mod.context()
    z = _away_from_markers(_annulus_samples(mod.r, 300, seed=11), mod)
    R = gauss_ratio(mod, ctx, z)
    q1 = theta_quotient(ctx, mod.z1, z)
    raw = R / (1.0 - R) * q1 / theta_quotient(ctx, mod.z2, z)
    W = gauss_map_square(mod, ctx, z)
    assert (np.abs(raw - W) / np.abs(W)).max() < 1e-12
    raw_e2u = np.abs(q1) * np.abs(z) ** mod.m / np.abs(1.0 - R)
    e2u = np.abs(shape_factor_product(mod, ctx, z))
    assert (np.abs(raw_e2u - e2u) / raw_e2u).max() < 1e-12


def test_gauss_square_near_z2_matches_oracle():
    # On the real axis 1.1e-3 to 1e-2 from z2 at (0.65, -0.01), next to the
    # zero of R that cancels the zero of Q2: W against R/(1-R) * Q1/Q2 at 40
    # digits from the same moduli, built from the product oracle.  R is
    # a_R (q(w) - q(z2)) with q the slit map, which is how b_R is defined:
    # the float b_R leaves R(z2) off zero by a few 1e-16, and that alone
    # moves the reference by up to 5e-13 this close to z2.
    mod, _ = solve_canonical(0.65, -0.01)
    ctx = mod.context()
    z0, z1, z2, a_R = (mp.mpf(float(v)) for v in (mod.z0, mod.z1, mod.z2, mod.a_R))

    def slope(w):
        return w * theta_product_deriv(mod.r, w) / theta_product(mod.r, w)

    def slit(w):
        return -(slope(z0 / w) + slope(z0 * w)) / z0

    def quotient(marker, z):
        return theta_product(mod.r, marker / z) / theta_product(mod.r, marker * z)

    for d in (1.1e-3, 1.7e-3, 3e-3, 1e-2):
        for z in (mod.z2 - d, mod.z2 + d):
            with mp.workdps(40):
                w = mp.mpf(float(z))
                R = a_R * (slit(w) - slit(z2))
                ref = complex(R / (1 - R) * quotient(z1, w) / quotient(z2, w))
            W = gauss_map_square(mod, ctx, complex(z))
            assert abs(W - ref) <= 1e-12 * abs(ref)


def test_gauss_square_regular_at_markers(mod, ctx):
    # finite nonzero values where the raw composite is 0/0 or inf/inf
    for mk in (mod.z0, mod.z1, mod.z2):
        center = gauss_map_square(mod, ctx, complex(mk))
        assert np.isfinite(center) and abs(center) > 1e-6
        # consistent with nearby values (regularity, incl. the form switch)
        near = gauss_map_square(mod, ctx, mk + 1e-7 * np.exp(1j * np.linspace(0, 2 * np.pi, 9)))
        assert np.abs(near - center).max() < 1e-4 * abs(center)


def test_gauss_square_zero_free_and_conjugation(mod, ctx):
    z = _annulus_samples(mod.r, 800, seed=13)
    W = gauss_map_square(mod, ctx, z)
    assert np.abs(W).min() > 1e-4
    Wc = gauss_map_square(mod, ctx, np.conj(z))
    assert np.abs(Wc - np.conj(W)).max() < 1e-12 * np.abs(W).max()


def test_gauss_square_positive_on_real_segment(mod, ctx):
    xs = np.linspace(-1.0, -mod.r, 201).astype(complex)
    W = gauss_map_square(mod, ctx, xs)
    assert np.abs(W.imag).max() < 1e-12 * np.abs(W.real).max()
    assert W.real.min() > 0.0


def test_gauss_square_winding_zero(mod):
    assert gauss_square_winding(mod) == 0


def test_gauss_square_log_deriv_matches_fd(mod, ctx):
    z = _away_from_markers(_annulus_samples(0.7, 40, seed=15), mod)
    h = 1e-6
    W0 = gauss_map_square(mod, ctx, z)
    fd = (gauss_map_square(mod, ctx, z + h) - gauss_map_square(mod, ctx, z - h)) / (2.0 * h * W0)
    ld = gauss_square_log_deriv(mod, ctx, z)
    assert np.abs(fd - ld).max() < 1e-5 * (1.0 + np.abs(ld).max())


def test_gauss_map_square_identity(mod, ctx):
    z = _annulus_samples(mod.r, 300, seed=17)
    g = gauss_map(mod, ctx, z)
    W = gauss_map_square(mod, ctx, z)
    assert (np.abs(g * g * z * z - W) / np.abs(W)).max() < 1e-12


def test_gauss_map_branch_seam(mod, ctx):
    # single-valuedness: approaching arg = pi from both sides agrees
    rho = np.linspace(mod.r, 1.0, 41)
    gp = gauss_map(mod, ctx, rho * np.exp(1j * (np.pi - 1e-9)))
    gm = gauss_map(mod, ctx, rho * np.exp(1j * (-np.pi + 1e-9)))
    assert np.abs(gp - gm).max() < 1e-5


def test_gauss_map_real_negative_on_segment(mod, ctx):
    xs = np.linspace(-1.0, -mod.r, 101).astype(complex)
    g = gauss_map(mod, ctx, xs)
    assert np.abs(g.imag).max() < 1e-10 * np.abs(g.real).max()
    assert g.real.max() < 0.0


@pytest.mark.parametrize("r, s", CLOSED_FORM_CASES)
def test_gauss_square_is_constant_times_theta_quotient_squared(r, s):
    # W and (theta1(z2 z)/theta1(z1 z))^2 share their divisor and their
    # factor under z -> r^2 z, so the ratio is one positive constant
    mod, _ = solve_canonical(r, s)
    ctx = mod.context()
    special = [mod.z0, mod.z1, mod.z2, 1.0, -1.0, r, -r, np.sqrt(r), -np.sqrt(r)]
    z = np.concatenate([_annulus_samples(r, 200, seed=27), np.array(special, dtype=complex)])
    quot = theta1(ctx, mod.z2 * z) / theta1(ctx, mod.z1 * z)
    c = gauss_map_square(mod, ctx, z) / (quot * quot)
    assert c[0].real > 0.0
    assert np.abs(c - c[0]).max() < 1e-9 * abs(c[0])
    xs = np.linspace(-1.0, -r, 101).astype(complex)
    g = gauss_map(mod, ctx, xs)
    assert np.abs(g.imag).max() < 1e-10 * np.abs(g.real).max()
    assert g.real.max() < 0.0


def test_evaluators_reject_a_context_for_another_radius(mod):
    # a context carries the tables of its own radius: with one for r = 0.2
    # the flagship's potential would read 0.60038 for 0.54657 at
    # z = 0.4 + 0.3i, so every evaluator that takes (moduli, ctx, z) raises
    other = ThetaContext.create(0.2)
    z = np.array([0.4 + 0.3j])
    evaluators = (
        gauss_ratio, gauss_ratio_deriv, gauss_square_log_deriv, potential, gauss_map,
        gauss_map_square, gauss_map_deriv, inv_gauss_gap, second_gauss_map, immerse, shape_ratio,
    )
    for evaluate in evaluators:
        with pytest.raises(ValueError, match=r"r = 0\.2 used with moduli of r = 0\.25"):
            evaluate(mod, other, z)


def test_equal_contexts_share_one_surface_record(mod):
    # the per-surface record is keyed on (moduli, ctx), and a context's
    # equality and hash read r alone: two contexts created separately, one
    # with its tables built, hit one entry
    annulus_module._surface.cache_clear()
    first, second = ThetaContext.create(mod.r), ThetaContext.create(mod.r)
    assert first is not second
    g = gauss_map(mod, first, 0.4 + 0.3j)
    assert {"term_columns", "k", "series_coefs"} <= vars(first).keys()
    assert first == second and hash(first) == hash(second)
    assert gauss_map(mod, second, 0.4 + 0.3j) == g
    info = annulus_module._surface.cache_info()
    assert (info.hits, info.misses, info.currsize) == (1, 1, 1)


def _assert_every_evaluator_rejects(mod, ctx, field, match=None):
    # gauss_map, immerse, shape_ratio and end_direction all read the one
    # per-surface record, whose builder checks the stored fields; each of
    # them must raise for moduli with one field shifted
    bad = dataclasses.replace(mod, **{field: getattr(mod, field) + 1e-3})
    for evaluate in (gauss_map, immerse, shape_ratio):
        with pytest.raises(RepresentationError, match=match):
            evaluate(bad, ctx, np.array([0.5 + 0.1j, -0.6]))
    with pytest.raises(RepresentationError, match=match):
        end_direction(bad)


@pytest.mark.parametrize("field", ["c1", "a_R"])
def test_gauss_map_rejects_moduli_off_their_divisor(mod, ctx, field):
    # a shifted constant moves the zeros or poles of W off r^(2k)/z2 and
    # r^(2k)/z1, so no single-valued sqrt(W)/z of the closed form exists
    _assert_every_evaluator_rejects(mod, ctx, field)


@pytest.mark.parametrize("field", ["c2", "b_R"])
def test_gauss_map_rejects_moduli_off_the_marker_z2(mod, ctx, field):
    # c2 and b_R do not enter W away from z2, so the closed form alone cannot
    # see them; the check at z2 itself (R(z2) = 0, c2 = slit_map(z2, z0)) does
    _assert_every_evaluator_rejects(mod, ctx, field, "marker z2")


def test_gauss_map_rejects_moduli_off_the_exponent(mod, ctx):
    # m enters only the shape factor; the check z1 z2 r^(2(m+2)) = 1 ties it
    # to the markers
    _assert_every_evaluator_rejects(mod, ctx, "m", "exponent m")


def test_gauss_map_conjugation_and_determinism(mod, ctx):
    z = _annulus_samples(mod.r, 60, seed=19)
    g1 = gauss_map(mod, ctx, z)
    g2 = gauss_map(mod, ctx, z)
    assert np.array_equal(g1, g2)
    gc = gauss_map(mod, ctx, np.conj(z))
    assert np.abs(gc - np.conj(g1)).max() < 1e-11 * np.abs(g1).max()
    assert gauss_map(mod, ctx, complex(z[7])) == g1[7]


def test_gauss_map_at_exact_boundary_points():
    # At (0.7, -0.99) z2 sits 1.3e-4 inside |z| = 1, so W turns fast near
    # -1.  Points on both boundary circles, at and next to the real axis on
    # both sides of arg = pi.
    mod, _ = solve_canonical(0.7, -0.99)
    ctx = mod.context()
    assert 0.0 < mod.z2 + 1.0 < 2e-4
    for rho in (1.0, mod.r):
        dg = gauss_map_deriv(mod, ctx, complex(-rho))
        for eps in (0.0, 1e-9, 1e-6, 1e-4, 5e-4, 1e-2):
            z = rho * np.exp(1j * np.array([np.pi - eps, -np.pi + eps, eps, -eps]))
            g = gauss_map(mod, ctx, z)
            W = gauss_map_square(mod, ctx, z)
            # per point; |W| drops to 2e-3 near -1, where W itself carries 3e-12
            assert (np.abs(g * g * z * z - W) / np.abs(W)).max() < 1e-11
            assert abs(g[1] - np.conj(g[0])) < 1e-11 * abs(g[0])
            assert abs(g[3] - np.conj(g[2])) < 1e-11 * abs(g[2])
            if eps <= 1e-4:
                # across the seam g moves by |dz| |g'| to first order, not to -g
                assert abs(g[0] - g[1]) <= 1.1 * abs(z[0] - z[1]) * abs(dg) + 1e-11 * abs(g[0])


def test_gauss_map_refinement_memory_is_bounded():
    # Near arg = pi on |z| = 1 at (0.7, -0.999), where z2 nearly touches the
    # circle and W turns fastest: memory stays bounded, and a point gets the
    # same bits alone as inside the batch.
    mod, _ = solve_canonical(0.7, -0.999)
    ctx = mod.context()
    z = np.exp(1j * (np.pi - np.linspace(-1e-4, 1e-4, 256)))
    tracemalloc.start()
    try:
        g = gauss_map(mod, ctx, z)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 100 * 2**20
    one = np.array([gauss_map(mod, ctx, complex(v)) for v in z[::32]])
    assert np.array_equal(one, g[::32])


@pytest.mark.parametrize("evaluator", [gauss_map, immerse, shape_ratio, first_form], ids=lambda f: f.__name__)
def test_gauss_map_propagates_nan(mod, ctx, evaluator):
    # the product's and the complex series' evaluators alike: a NaN point
    # gives NaN in every output, and its finite neighbour stays finite
    with np.errstate(invalid="ignore"):
        out = evaluator(mod, ctx, np.array([0.5 + 0.1j, complex(np.nan, 0.0)]))
    values = [getattr(out, f.name) for f in dataclasses.fields(out)] if dataclasses.is_dataclass(out) else [out]
    for v in values:
        assert np.isfinite(v[0]) and np.isnan(v[1])


def test_gauss_map_deriv_matches_fd(mod, ctx):
    z = _away_from_markers(_annulus_samples(0.65, 30, seed=21), mod)
    h = 1e-6
    fd = (gauss_map(mod, ctx, z + h) - gauss_map(mod, ctx, z - h)) / (2.0 * h)
    dv = gauss_map_deriv(mod, ctx, z)
    assert (np.abs(fd - dv) / np.abs(dv)).max() < 1e-6


@pytest.mark.parametrize("marker", ["z1", "z2"])
def test_gauss_map_deriv_near_the_markers_against_oracle(mod, ctx, marker):
    # g' = g g'/g with g'/g from the closed form of g, which has no poles to
    # cancel next to z1 and z2 (the W'/W route was off by 220% at 1e-9 from
    # z1); r = 0.25 needs 40 terms for r^(2n) < 1e-48
    for delta in (1e-9, 1e-7, 1e-5):
        for z in (complex(getattr(mod, marker), delta), complex(getattr(mod, marker) + delta)):
            want = complex(oracles.gauss_map_deriv(mod.to_dict(), z, n=40))
            got = gauss_map_deriv(mod, ctx, z)
            assert abs(got - want) <= 1e-10 * abs(want), (delta, z, got, want)


def test_potential_matches_raw_modulus(mod, ctx):
    z = _away_from_markers(_annulus_samples(mod.r, 100, seed=23), mod)
    u = potential(mod, ctx, z)
    assert u.dtype == np.float64
    R = gauss_ratio(mod, ctx, z)
    ref = np.abs(theta_quotient(ctx, mod.z1, z)) * np.abs(z) ** mod.m / np.abs(1.0 - R)
    assert (np.abs(np.exp(2.0 * u) - ref) / ref).max() < 1e-13


@pytest.mark.parametrize("r, s", [(0.25, -0.5), (0.05, -0.04), (0.45, -0.1), (0.7, -0.99)])
def test_potential_next_to_z1_against_oracle(r, s):
    # u = log|factor| / 2 stays finite at z1, where the raw quotients Q1 and
    # 1 - R both vanish (their route reads log 0 - log 0 there), and keeps its
    # digits next to it, where their logs cancel; against 40 digits
    mod, _ = solve_canonical(r, s)
    ctx = mod.context()
    assert np.isfinite(potential(mod, ctx, complex(mod.z1)))
    n = int(np.ceil(40.0 / (-2.0 * np.log10(r))))
    for delta in (1e-9, 1e-7, 1e-5):
        for z in (complex(mod.z1 + delta), complex(mod.z1, delta)):
            with mp.workdps(40):
                want = float(0.5 * mp.log(abs(oracles.surface_maps(mod.to_dict(), z, n)[4])))
            got = potential(mod, ctx, z)
            assert abs(got - want) <= 1e-12 * max(1.0, abs(want)), (delta, z, got, want)


def test_gauss_data_make_no_product_call(monkeypatch, mod, ctx):
    # potential, second_gauss_map and inv_gauss_gap are projections of one
    # order-1 series pass: once the surface record is built, none of them
    # reaches the product kernel
    z = np.array([0.4 + 0.3j, -0.6 - 0.1j])
    annulus_module._surface(mod, ctx)

    def product(*args):
        raise AssertionError("theta product called")

    monkeypatch.setattr(annulus_module, "_eval", product)
    for evaluate in (potential, second_gauss_map, inv_gauss_gap):
        assert np.isfinite(evaluate(mod, ctx, z)).all()


def test_gauss_data_raise_at_the_end(mod, ctx):
    # at z0, where R has its pole, every evaluator of the order-1 pass raises
    # the pole error of theta1(z0/z)
    for evaluate in (potential, second_gauss_map, inv_gauss_gap):
        with pytest.raises(ThetaPoleError):
            evaluate(mod, ctx, complex(mod.z0))


def test_gauss_gap_identities(mod, ctx):
    z = _away_from_markers(_annulus_samples(mod.r, 80, seed=25), mod)
    g = gauss_map(mod, ctx, z)
    F = inv_gauss_gap(mod, ctx, z)
    gs = second_gauss_map(mod, ctx, z)
    R = gauss_ratio(mod, ctx, z)
    assert np.abs(F * g - R).max() < 1e-12 * np.abs(R).max()
    assert np.abs(gs - (g - 1.0 / F)).max() < 1e-12 * np.abs(g).max()


def test_second_gauss_map_sentinel():
    # z2 is the one zero of R on the annulus, so g* there is the tagged value
    # for solved moduli and for the frozen FLAGSHIP alike, whose a_R and b_R
    # are not the solver's bits and whose R(z2) is only of the order of
    # rounding; a point next to z2 gets a finite value
    for mod in (solve_canonical(0.25, -0.5)[0], FLAGSHIP):
        ctx = mod.context()
        assert second_gauss_map(mod, ctx, complex(mod.z2)) == AT_INFINITY
        assert abs(inv_gauss_gap(mod, ctx, complex(mod.z2))) < 1e-10
        assert np.isfinite(second_gauss_map(mod, ctx, complex(mod.z2, 1e-9)))


def test_annulus_domain_guard(mod, ctx):
    for bad in (complex(mod.r - 1e-6), complex(1.0 + 1e-6), 0.0j):
        for fn in (
            lambda z: slit_map(ctx, mod.z1, z),
            lambda z: theta_quotient(ctx, mod.z1, z),
            lambda z: gauss_map_square(mod, ctx, z),
            lambda z: gauss_map(mod, ctx, z),
            lambda z: potential(mod, ctx, z),
        ):
            with pytest.raises(ValueError):
                fn(bad)


SERIES_FIELDS = ("g", "g_log", "R", "factor", "Rp")


def _series_test_points(moduli):
    """Both circles at angles within 1e-12 rad of +-pi and at generic
    angles, and points next to the end z0, where theta1(z0/z) vanishes."""
    ring = np.exp(1j * np.array([np.pi - 1e-12, -(np.pi - 1e-12), 0.7, -2.1, 3.0]))
    end = moduli.z0 + np.array([1e-4 * np.exp(0.3j), 1e-8 * np.exp(-2j), 1e-11j, 1e-4, -1e-9])
    return np.concatenate([ring, moduli.r * ring, end])


@pytest.mark.parametrize("r, s", [(0.05, -0.04), (0.25, -0.5), (0.45, -0.1), (0.7, -0.99)])
def test_surface_series_against_oracle(r, s):
    # the theta1 quotients of g and of the shape factor, and R, R' and g'/g,
    # which carry h and h' at the four theta arguments, against their
    # definitions on the plain product at 30 digits; R and R' relative to
    # max(1, |value|), since both vanish on the real axis or at z2
    mod, _ = solve_canonical(r, s)
    ctx = mod.context()
    z = _series_test_points(mod)
    series = _surface_series(mod, ctx, z, SERIES_FIELDS, "test")
    g, g_log, R, factor, Rp = series.g, series.g_log, series.R, series.factor, series.Rp
    n = int(np.ceil(20.0 / (-2.0 * np.log10(r))))
    for i, x in enumerate(z):
        with mp.workdps(30):
            want = [complex(v) for v in oracles.surface_maps(mod.to_dict(), complex(x), n, 1e-20)]
        for name, got, ref, scale in (
            ("g", g[i], want[0], abs(want[0])),
            ("g'/g", g_log[i], want[1], abs(want[1])),
            ("R", R[i], want[2], max(1.0, abs(want[2]))),
            ("R'", Rp[i], want[3], max(1.0, abs(want[3]))),
            ("factor", factor[i], want[4], abs(want[4])),
        ):
            assert abs(got - ref) <= 1e-13 * scale, (x, name, got, ref)


@pytest.mark.parametrize("r, s", [(0.25, -0.5), (0.7, -0.99), (0.05, -0.04), (0.5, -0.999)])
def test_gauss_map_against_oracle(monkeypatch, r, s):
    # gauss_map is the series' g field, over z1 z and z2 z: against the
    # plain product at 40 digits, within 1e-13 relative, at the end z0 (the
    # pass does not touch z0/z, which vanishes there), on both circles next
    # to +-pi and, where z2 lies within 1e-3 of -1, on the unit circle next
    # to the zero 1/z2 of g, where _near_zero_em1 recomputes E - 1.  The
    # angles keep Re z at exactly -1 or -r, so the float arguments z1 z and
    # z2 z carry no rounding that the oracle would not see.  Off z0, g has
    # the bits of the pass that also gives R and the shape factor, and g(z0)
    # is the end direction
    mod, _ = solve_canonical(r, s)
    ctx = mod.context()
    near_markers = []
    near_zero_em1 = annulus_module._near_zero_em1

    def recorded(ctx, s, marker, zeta, inverse):
        near_markers.extend(marker)
        return near_zero_em1(ctx, s, marker, zeta, inverse)

    monkeypatch.setattr(annulus_module, "_near_zero_em1", recorded)
    ring = np.exp(1j * np.array([np.pi, -np.pi, np.pi - 1e-12, 1e-12 - np.pi, np.pi - 1e-8, 1e-8 - np.pi, 1.0]))
    z = np.concatenate([[mod.z0], ring, mod.r * ring])
    g = gauss_map(mod, ctx, z)
    assert mod.z2 in near_markers or mod.z2 + 1.0 >= 1e-3
    n = int(np.ceil(40.0 / (-2.0 * np.log10(r))))
    for x, got in zip(z, g):
        with mp.workdps(40):
            want = complex(oracles.gauss_map(mod.to_dict(), complex(x), n))
        assert abs(got - want) <= 1e-13 * abs(want), (x, got, want)
    assert g[1:].tobytes() == _surface_series(mod, ctx, z[1:], ("g", "R", "factor"), "test").g.tobytes()
    assert end_direction(mod) == g[0]


def test_surface_series_keeps_the_bits():
    # for every set of fields, one point alone and inside a batch of more
    # than one chunk get the same bits, on both halves, next to the end and
    # next to 1/z2, and at the chunk edges of passes whose table has 2, 3 or
    # 4 rows (_CHUNK // rows points per chunk); conjugate points get
    # conjugate values
    mod, _ = solve_canonical(0.7, -0.99)
    ctx = mod.context()
    rng = np.random.default_rng(5)
    z = np.concatenate([
        _series_test_points(mod),
        mod.z0 + 1e-3 * np.exp(1j * rng.uniform(-np.pi, np.pi, 20)),
        np.exp(1j * (np.pi - rng.uniform(-0.05, 0.05, 20))),
        np.exp(rng.uniform(np.log(mod.r), 0.0, _CHUNK + 100)) * np.exp(1j * rng.uniform(-np.pi, np.pi, _CHUNK + 100)),
    ])
    edges = {e for step in (_CHUNK // 4, _CHUNK // 3, _CHUNK // 2, _CHUNK) for e in range(step, z.size, step)}
    picks = np.r_[0:60, 60 : z.size : 41, sorted(edges), [e - 1 for e in sorted(edges)], z.size - 1]
    for mask in range(1, 2 ** len(SERIES_FIELDS)):
        fields = tuple(f for i, f in enumerate(SERIES_FIELDS) if mask >> i & 1)
        full = _surface_series(mod, ctx, z, fields, "test")
        conj = _surface_series(mod, ctx, np.conj(z), fields, "test")
        for name in fields:
            assert getattr(conj, name).tobytes() == np.conj(getattr(full, name)).tobytes()
        for i in picks:
            one = _surface_series(mod, ctx, z[i : i + 1], fields, "test")
            for name in fields:
                assert getattr(one, name).tobytes() == getattr(full, name)[i : i + 1].tobytes(), (fields, name, i)


def test_surface_series_errors(mod, ctx):
    # a theta1 zero raises as on the product, a point outside the annulus
    # raises ValueError
    for z in (complex(mod.z0), complex(mod.z0 * (1.0 + 1e-14))):
        with pytest.raises(ThetaPoleError) as err:
            _surface_series(mod, ctx, np.array([0.5j, z]), ("g_log", "R", "factor", "Rp"), "test")
        assert err.value.location == 1.0
    for bad in (complex(mod.r - 1e-6), complex(1.0 + 1e-6), 0.0j):
        with pytest.raises(ValueError, match="test: argument outside"):
            _surface_series(mod, ctx, np.array([bad]), ("g", "R", "factor"), "test")


def test_surface_series_fields_keep_their_bits():
    # each field has the bits it has when asked alone, whatever other fields
    # it is asked with, though the pass skips the theta arguments that no
    # field asked for needs and puts the others in one table, a row each in
    # order of series degree; a field not asked for is None.  On both
    # halves, next to the end z0 and to 1/z2, on the real axis and across
    # the chunk edges of tables of 2, 3 and 4 rows, at a cell with two to
    # four series terms and at r >= 0.789, where the series has one
    for r, s in ((0.45, -0.3), (0.8, -0.99)):
        mod, _ = solve_canonical(r, s)
        ctx = mod.context()
        rng = np.random.default_rng(11)
        z = np.concatenate([
            _series_test_points(mod),
            np.exp(1j * (np.pi - rng.uniform(-0.05, 0.05, 20))),
            _real_axis_points(mod),
            np.exp(rng.uniform(np.log(mod.r), 0.0, _CHUNK + 100)) * np.exp(1j * rng.uniform(-np.pi, np.pi, _CHUNK + 100)),
        ])
        alone = {name: getattr(_surface_series(mod, ctx, z, (name,), "test"), name).tobytes() for name in SERIES_FIELDS}
        for mask in range(1, 2 ** len(SERIES_FIELDS)):
            fields = tuple(f for i, f in enumerate(SERIES_FIELDS) if mask >> i & 1)
            got = _surface_series(mod, ctx, z, fields, "test")
            for name in SERIES_FIELDS:
                if name in fields:
                    assert getattr(got, name).tobytes() == alone[name], (r, fields, name)
                else:
                    assert getattr(got, name) is None, (r, fields, name)


def test_series_plan_is_keyed_by_the_set_of_names():
    # the pass plans its table once per field set, at import: a field set
    # asked in another order or with a name repeated gets the same bits,
    # across a chunk edge and on the real axis, an unknown name raises
    # ValueError naming it, and the table holds the 31 nonempty field sets
    # and no more
    mod, _ = solve_canonical(0.45, -0.3)
    ctx = mod.context()
    rng = np.random.default_rng(37)
    z = np.concatenate([
        _series_test_points(mod),
        _real_axis_points(mod),
        np.exp(rng.uniform(np.log(mod.r), 0.0, _CHUNK // 2)) * np.exp(1j * rng.uniform(-np.pi, np.pi, _CHUNK // 2)),
    ])
    for mask in range(1, 2 ** len(SERIES_FIELDS)):
        fields = tuple(f for i, f in enumerate(SERIES_FIELDS) if mask >> i & 1)
        want = _surface_series(mod, ctx, z, fields, "test")
        for asked in (fields[::-1], fields + fields[:1], tuple(sorted(fields)) * 2):
            got = _surface_series(mod, ctx, z, asked, "test")
            for name in SERIES_FIELDS:
                if name in fields:
                    assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), (asked, name)
                else:
                    assert getattr(got, name) is None, (asked, name)
    for asked in (("g", "Q"), ("rho",), ("g", "g", "gg")):
        with pytest.raises(ValueError, match=r"test: unknown series fields \['(Q|rho|gg)'\]"):
            _surface_series(mod, ctx, z[:3], asked, "test")
    with pytest.raises(ValueError, match="test: no series field asked"):
        _surface_series(mod, ctx, z[:3], (), "test")
    plans = annulus_module._PLANS
    assert len(plans) == 2 ** len(SERIES_FIELDS) - 1 == 31
    assert set(plans) == {
        frozenset(f for i, f in enumerate(SERIES_FIELDS) if mask >> i & 1) for mask in range(1, 2 ** len(SERIES_FIELDS))
    }


def test_surface_series_takes_an_empty_batch(mod, ctx):
    # an empty batch runs one empty chunk: every field asked comes back with
    # shape (0,), every other field as None
    z = np.empty(0, dtype=np.complex128)
    for mask in range(1, 2 ** len(SERIES_FIELDS)):
        fields = tuple(f for i, f in enumerate(SERIES_FIELDS) if mask >> i & 1)
        got = _surface_series(mod, ctx, z, fields, "test")
        for name in SERIES_FIELDS:
            if name in fields:
                assert getattr(got, name).shape == (0,), (fields, name)
            else:
                assert getattr(got, name) is None, (fields, name)


@pytest.mark.parametrize("evaluator", digests.EVALUATORS, ids=lambda fn: fn.__name__)
def test_series_evaluators_take_an_empty_batch(mod, ctx, evaluator):
    # every field of the result of an empty batch has shape (0,)
    out = evaluator(mod, ctx, np.empty(0, dtype=np.complex128))
    for value in ([getattr(out, f.name) for f in dataclasses.fields(out)] if dataclasses.is_dataclass(out) else [out]):
        assert np.shape(value) == (0,)


def test_digests_cover_every_field_set_and_evaluator():
    # the bit-identity digests (tests/digests.py) give one record per field
    # set of the series and per public evaluator, batched and a point per
    # call, and one for the solve's moduli and trace, validate's scan, the
    # validate report and the mesh vertices
    cell = digests.CELLS[0]
    records = list(digests.digests(*cell))
    keys = {(tuple(rec["cell"]), rec["what"], rec["mode"]) for rec in records}
    field_sets = [[f for i, f in enumerate(SERIES_FIELDS) if mask >> i & 1] for mask in range(1, 2 ** len(SERIES_FIELDS))]
    evaluators = (
        "gauss_map", "gauss_map_deriv", "gauss_map_square", "potential", "inv_gauss_gap", "second_gauss_map",
        "immerse", "shape_ratio", "first_form", "intrinsic_curvature",
    )
    whats = ["series:" + "+".join(f) for f in field_sets] + list(evaluators)
    want = {(cell, what, mode) for what in whats for mode in ("batch", "one")}
    want |= {(cell, what, "batch") for what in (
        "solve_canonical", "solve_canonical:trace", "validate_moduli:scan", "validate_moduli", "canonical_mesh",
    )}
    assert keys == want and len(records) == len(want)
    assert all(len(rec["sha256"]) == 64 for rec in records)


def test_gauss_map_deriv_makes_no_product_call(monkeypatch, mod, ctx):
    # g and g'/g come from one series pass over z1 z and z2 z, which does not
    # touch z0/z, so g' is finite at the end z0 as well
    annulus_module._surface(mod, ctx)

    def product(*args):
        raise AssertionError("theta product called")

    monkeypatch.setattr(annulus_module, "_eval", product)
    z = np.array([0.4 + 0.3j, -0.6 - 0.1j, mod.z0, complex(mod.z0, 1e-9)])
    assert np.isfinite(gauss_map_deriv(mod, ctx, z)).all()


def _real_axis_points(mod):
    """Points on both half-axes, the negative one on both sides of the end
    z0 and at z1 and z2, each with Im z = 0.0 and with Im z = -0.0."""
    x = np.concatenate([
        np.linspace(mod.r, 1.0, 9),
        -np.linspace(mod.r, 1.0, 9),
        [mod.z1, mod.z2, mod.z0 + 1e-6, mod.z0 - 1e-6, 0.5 * (mod.z0 + mod.z1)],
    ])
    z = np.empty(2 * x.size, dtype=np.complex128)
    z.real = np.concatenate([x, x])
    z.imag = np.repeat([0.0, -0.0], x.size)
    return z


@pytest.mark.parametrize("r, s", [(0.25, -0.5), (0.65, -0.01), (0.7, -0.99), (0.05, -0.04)])
def test_series_is_real_on_the_real_axis(r, s):
    # g, g'/g, R and R' are real on the real axis, where the markers lie, and
    # so are immerse's horizontal part, the end direction g(z0) and F(z2):
    # their imaginary parts are exactly 0, not rounding-level
    mod, _ = solve_canonical(r, s)
    ctx = mod.context()
    z = _real_axis_points(mod)
    series = _surface_series(mod, ctx, z, SERIES_FIELDS, "test")
    for name in ("g", "g_log", "R", "Rp"):
        assert (getattr(series, name).imag == 0.0).all(), name
    assert (immerse(mod, ctx, z).horizontal.imag == 0.0).all()
    assert end_direction(mod) == gauss_map(mod, ctx, mod.z0)
    assert inv_gauss_gap(mod, ctx, complex(mod.z2)).imag == 0.0
