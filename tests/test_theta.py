from __future__ import annotations

import mpmath as mp
import numpy as np
import pytest

from flatfront import theta as T
from oracles import log_slope_deriv, log_slopes, theta_product, theta_product_deriv
from routes import theta_series


# Frozen from a 200-term product evaluated with mpmath at 50 digits
# (tests/oracles.py regenerates them).
ORACLE_VALUES = [
    (0.25, -0.5 + 0.0j, 3.2832651213103077326 + 0.0j),
    (0.25, -0.6 + 0.0j, 2.8789964218728740109 + 0.0j),
    (0.5, 1.7 + 0.0j, 0.11408346130768146677 + 0.0j),
    (0.5, -0.9 + 0.3j, 2.4690921042439543844 + 0.43172726050204798093j),
    (0.7, 0.123 + 0.456j, -0.63374642751064652233 + 0.19297563422990953211j),
    # arguments far outside the band exercise the reduction identities
    (0.25, 17.0 - 3.0j, -0.051256000007092564636 + 0.15275567612317309044j),
    (0.25, 0.004 + 0.001j, 540.26440105428274913 + 493.72251158065927406j),
]

ORACLE_DERIV = 4.9489821943566318915  # theta1' at z = -0.5, r = 0.25
C_CUBED_R_HALF = 0.3264245884522549851  # C^3 at r = 0.5, equals theta1'(1)

RADII = [0.1, 0.25, 0.5, 0.7]


def _sample_annulus(r: float, n: int, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    rho = np.exp(rng.uniform(np.log(r), 0.0, n))
    ang = rng.uniform(-np.pi, np.pi, n)
    return rho * np.exp(1j * ang)


def test_context_construction() -> None:
    ctx = T.ThetaContext.create(0.25)
    assert ctx.r ** (2 * ctx.n_terms) < T.TRUNCATION_TOL
    assert 0.0 < ctx.c_const < 1.0
    with pytest.raises(ValueError):
        T.ThetaContext.create(1.5)
    with pytest.raises(ValueError):
        T.ThetaContext.create(0.0)


def test_zeros_are_exact() -> None:
    ctx = T.ThetaContext.create(0.5)
    assert T.theta1(ctx, 1.0) == 0.0
    assert T.theta1(ctx, 0.25) == 0.0  # r^2
    assert T.theta1(ctx, 4.0) == 0.0  # r^-2


def test_high_precision_product_oracle() -> None:
    for r, z, want in ORACLE_VALUES:
        ctx = T.ThetaContext.create(r)
        got = T.theta1(ctx, z)
        assert abs(got - want) <= 1e-13 * abs(want)


def test_derivative_against_oracle_and_fd() -> None:
    ctx = T.ThetaContext.create(0.25)
    got = T.dtheta1(ctx, -0.5)
    assert abs(got - ORACLE_DERIV) < 1e-12 * ORACLE_DERIV
    # centered finite difference of theta1 as an independent route
    h = 1e-6
    fd = (T.theta1(ctx, -0.5 + h) - T.theta1(ctx, -0.5 - h)) / (2 * h)
    assert abs(fd - got) < 1e-7 * abs(got)


def test_derivative_at_zero_nonzero_real() -> None:
    # zeros are simple: theta1'(1) != 0; its value is C^3
    ctx = T.ThetaContext.create(0.5)
    d = T.dtheta1(ctx, 1.0)
    assert d.imag == 0.0
    assert d.real > 0.0
    assert abs(d - C_CUBED_R_HALF) < 1e-14
    h = 1e-6
    fd = (T.theta1(ctx, 1.0 + h) - T.theta1(ctx, 1.0 - h)) / (2 * h)
    assert abs(fd - d) < 1e-8


def test_functional_equations() -> None:
    for r in RADII:
        ctx = T.ThetaContext.create(r)
        z = _sample_annulus(r, 200)
        th = T.theta1(ctx, z)
        scale = np.abs(th) + 1.0
        a = th - (-(r * r) * z * T.theta1(ctx, r * r * z))
        b = th - (-(1.0 / z) * T.theta1(ctx, 1.0 / z))
        c = T.theta1(ctx, z / (r * r)) - (-z * th)
        assert np.max(np.abs(a) / scale) < 1e-12
        assert np.max(np.abs(b) / scale) < 1e-12
        assert np.max(np.abs(c) / (scale / (r * r))) < 1e-12


def test_conjugation_symmetry() -> None:
    for r in RADII:
        ctx = T.ThetaContext.create(r)
        z = _sample_annulus(r, 100, seed=3)
        lhs = T.theta1(ctx, z)
        rhs = np.conj(T.theta1(ctx, np.conj(z)))
        assert np.array_equal(lhs, rhs)


def test_derivative_functional_equations() -> None:
    r = 0.25
    ctx = T.ThetaContext.create(r)
    z = np.array([-0.6 + 0.0j, 0.3 + 0.4j, -0.9 - 0.2j, 1.8 + 0.1j])
    d = T.dtheta1(ctx, z)
    rhs1 = -(r**2) * T.theta1(ctx, r * r * z) - r**4 * z * T.dtheta1(ctx, r * r * z)
    rhs2 = T.theta1(ctx, 1.0 / z) / z**2 + T.dtheta1(ctx, 1.0 / z) / z**3
    lhs3 = T.dtheta1(ctx, z / r**2)
    rhs3 = -(r**2) * T.theta1(ctx, z) - r**2 * z * T.dtheta1(ctx, z)
    scale = np.abs(d) + 1.0
    assert np.max(np.abs(d - rhs1) / scale) < 1e-12
    assert np.max(np.abs(d - rhs2) / scale) < 1e-12
    assert np.max(np.abs(lhs3 - rhs3) / (scale / r**2)) < 1e-12


def test_truncation_convergence() -> None:
    # doubling the number of factors moves values by less than 1e-14 relative
    for r in (0.25, 0.7):
        ctx = T.ThetaContext.create(r)
        n = 2 * ctx.n_terms
        wide = T.ThetaContext(r, n, float(np.prod(1.0 - r ** (2.0 * np.arange(1, n + 1)))))
        z = _sample_annulus(r, 50, seed=11)
        z = np.concatenate([z, z / r, z * r])  # spans [r^2-ish, 1/r-ish] moduli
        a = T.theta1(ctx, z)
        b = T.theta1(wide, z)
        assert np.max(np.abs(a - b) / (np.abs(b) + 1e-300)) < 1e-14


def test_domain_errors() -> None:
    ctx = T.ThetaContext.create(0.25)
    with pytest.raises(ValueError):
        T.theta1(ctx, 0.0)
    with pytest.raises(ValueError, match="too close to 1"):
        T.ThetaContext.create(0.9999)


@pytest.mark.parametrize("r", [0.05, 0.25, 0.7, 0.9])
@pytest.mark.parametrize("k", range(-2, 4))
def test_zeros_raise_pole_error(r, k) -> None:
    # zeros inside and outside the band, hit exactly and one ulp off; the
    # solver's modular series raises the same error as the product, also
    # after a regular point of the same batch
    ctx = T.ThetaContext.create(r)
    zero = r ** (2 * k)
    for z in (zero, np.nextafter(zero, 0.0), np.nextafter(zero, np.inf)):
        with pytest.raises(T.ThetaPoleError) as err:
            T.log_slope(ctx, z)
        assert err.value.location == zero
        for order in (1, 2):
            with pytest.raises(T.ThetaPoleError) as real_err:
                T._real_log_slopes(ctx, np.array([zero * r, z]), order)
            assert real_err.value.location == zero
            assert str(real_err.value) == str(err.value)


@pytest.mark.parametrize("r", [0.85, 0.9])
def test_log_slope_near_zeros_of_thin_annuli(r) -> None:
    # regular points next to a zero stay finite however large theta's
    # amplitude grows as r -> 1
    ctx = T.ThetaContext.create(r)
    for z in (1.0 + 1e-9, 1.0 - 1e-9, 1.0 + 1e-6, r * r * (1.0 + 1e-9), (1.0 - 1e-9) / r**2):
        got = T.log_slope(ctx, z)
        want = complex(z * theta_product_deriv(r, z) / theta_product(r, z))
        assert np.isfinite(got)
        assert abs(got - want) <= 1e-6 * abs(want)


@pytest.mark.parametrize("r", [0.25, 0.7])
def test_dtheta1_next_to_zeros(r) -> None:
    # theta1' comes by the product rule from the factor (v - 1)/v and the
    # sums of the other factors, none singular on the band, so it keeps its
    # relative precision at any distance from a zero, inside the band and
    # after reduction into it
    pts = [1.0 + 1.1e-6, 1.0 - 1.1e-6, 1.0 + 3e-6, 1.0 - 3e-6, 1.0 + 1e-5, 1.0 + 1e-4]
    pts += [r * r * (1.0 + 2e-6), (1.0 - 2e-6) / (r * r), complex(1.0 + 2e-6, 1e-6)]
    ctx = T.ThetaContext.create(r)
    for z in pts:
        want = complex(theta_product_deriv(r, z))
        assert abs(T.dtheta1(ctx, z) - want) <= 1e-13 * abs(want), z


@pytest.mark.parametrize("r", [0.05, 0.25, 0.7, 0.9])
def test_log_slope_deriv_against_oracle(r) -> None:
    # the second-order path against mpmath's derivatives of the product:
    # both band edges |v| = r and 1/r, where the factors D_k come closest
    # to zero, one complex point inside the band, and 1 +- 1e-6 next to
    # the zero, whose pole term -1/(v - 1)^2 takes the exact difference
    # v - 1, so the error there is as small as elsewhere
    ctx = T.ThetaContext.create(r)
    edges = [rho * complex(np.cos(phi), np.sin(phi)) for rho in (r, 1.0 / r) for phi in (0.3, 1.9, -2.6)]
    for z in edges + [complex(0.6, -0.45), 1.0 + 1e-6, 1.0 - 1e-6]:
        want = complex(log_slope_deriv(r, z))
        assert abs(T.log_slope_deriv(ctx, z) - want) <= 1e-13 * abs(want), z


def test_values_next_to_zeros_against_oracle() -> None:
    # theta1 and both log slopes within 1e-14 relative of mpmath next to the
    # zeros 1 and r^2, inside the band and after reduction into it: v - 1
    # is exact there, where a rounded 1 - 1/v would leave an error of about
    # 1e-16 / |v - 1|
    r = 0.25
    ctx = T.ThetaContext.create(r)
    for z in (1.0 + 1e-6, 1.0 - 1e-6, 1.0 + 1e-9, complex(1.0 + 1e-9, 1e-9), r * r * (1.0 + 1e-8)):
        th = theta_product(r, z)
        h = z * theta_product_deriv(r, z) / th
        for f, want in ((T.theta1, th), (T.log_slope, h), (T.log_slope_deriv, log_slope_deriv(r, z))):
            want = complex(want)
            assert abs(f(ctx, z) - want) <= 1e-14 * abs(want), (f.__name__, z)


@pytest.mark.parametrize("r", [0.25, 0.5, 0.9])
def test_one_step_band_reduction(r) -> None:
    # points up to five periods r^2 away from the band, inward and outward
    ctx = T.ThetaContext.create(r)
    for j in range(-5, 6):
        for phi in (0.4, 2.9, -1.7):
            z = 1.3 * r ** (2 * j) * complex(np.cos(phi), np.sin(phi))
            for f, oracle in ((T.theta1, theta_product), (T.dtheta1, theta_product_deriv)):
                want = complex(oracle(r, z))
                assert abs(f(ctx, z) - want) <= 1e-13 * abs(want), (f.__name__, j, phi)


def test_infinite_and_nan_points() -> None:
    ctx = T.ThetaContext.create(0.25)
    for z in (np.inf, -np.inf, complex(np.inf, 0.0)):
        with pytest.raises(ValueError):
            T.theta1(ctx, z)
    # a NaN point gives NaN; numpy's complex division flags it as invalid
    with np.errstate(invalid="ignore"):
        assert np.isnan(T.theta1(ctx, np.nan))
        assert np.isnan(T.dtheta1(ctx, np.array([np.nan, 0.5]))[0])


def test_log_slope_identities() -> None:
    for r in RADII:
        ctx = T.ThetaContext.create(r)
        assert abs(T.log_slope(ctx, r) + 1.0) < 1e-10
        z = _sample_annulus(r, 200, seed=5)
        h = T.log_slope(ctx, z)
        assert np.max(np.abs(h - 1.0 - T.log_slope(ctx, r * r * z))) < 1e-10
        assert np.max(np.abs(h + T.log_slope(ctx, 1.0 / z) + 1.0)) < 1e-10


def test_log_slope_real_interval_ranges() -> None:
    # on (r^2, r) values exceed -1; on (r, 1) they stay below -1
    r = 0.25
    ctx = T.ThetaContext.create(r)
    lo = np.linspace(r * r * 1.001, r * 0.999, 41)
    hi = np.linspace(r * 1.001, 0.999, 41)
    assert np.all(T.log_slope(ctx, lo.astype(complex)).real > -1.0)
    assert np.all(T.log_slope(ctx, hi.astype(complex)).real < -1.0)
    # blow-up toward the interval ends
    assert T.log_slope(ctx, r * r * 1.0001).real > 1e2
    assert T.log_slope(ctx, 0.99999).real < -1e3


def test_pair_slope_interval_positions() -> None:
    # center z0 = -0.5 at r = 0.25: values exceed -1 left of the center,
    # and drop below -2 between the center and -r
    ctx = T.ThetaContext.create(0.25)
    z0 = -0.5
    assert T.pair_slope(ctx, z0, -0.99).real > -1.0
    assert T.pair_slope(ctx, z0, -0.45).real < -2.0


def test_pair_slope_endpoint_value() -> None:
    # at z = -1 the two arguments are reciprocal, so the sum is exactly -1
    for r in (0.1, 0.25, 0.5):
        ctx = T.ThetaContext.create(r)
        got = T.pair_slope(ctx, -0.5 - 0.25 * r, -1.0)
        assert abs(got - (-1.0)) < 1e-11


def test_scalar_and_array_shapes() -> None:
    ctx = T.ThetaContext.create(0.25)
    val = T.theta1(ctx, -0.5)
    assert isinstance(val, complex)
    arr = T.theta1(ctx, np.full((3, 4), -0.5, dtype=complex))
    assert arr.shape == (3, 4)
    assert np.allclose(arr, val)


@pytest.mark.parametrize("r", [0.25, 0.7])
def test_batch_values_equal_point_values(r: float) -> None:
    # 20,077 points: past the size from which numpy reuses temporaries in
    # place, and not a whole number of chunks, so the last chunk is short
    ctx = T.ThetaContext.create(r)
    rng = np.random.default_rng(31)
    n = 20_077
    z = np.exp(
        rng.uniform(3.0 * np.log(r), -3.0 * np.log(r), n) + 1j * rng.uniform(-np.pi, np.pi, n)
    )
    z[:2] = 1.0 + 1e-8j, r**2 * (1.0 + 3e-7)  # next to the zeros 1 and r^2
    idx = np.r_[0:n:16, n - 1]  # one call per point
    for f in (T.theta1, T.dtheta1, T.log_slope, T.log_slope_deriv):
        batch = f(ctx, z)
        single = np.array([f(ctx, complex(z[i])) for i in idx])
        assert single.tobytes() == batch[idx].tobytes(), f.__name__


def test_empty_batch() -> None:
    ctx = T.ThetaContext.create(0.25)
    for f in (T.theta1, T.dtheta1, T.log_slope, T.log_slope_deriv):
        assert f(ctx, np.zeros((0, 3), dtype=complex)).shape == (0, 3)


def _real_axis_points(r: float, n: int) -> np.ndarray:
    """n positive points whose reduction into the band takes k = -2..2
    steps, with points next to zeros at the front."""
    rng = np.random.default_rng(43)
    z = np.exp(rng.uniform(5.0 * np.log(r), -5.0 * np.log(r), n))
    near = [1.0 + 1e-9, 1.0 - 1e-9, 1.0 + 5e-7, 1.0 - 9e-7, r**2 * (1.0 + 3e-8), (1.0 - 2e-8) / r**4]
    z[: len(near)] = near
    return z


@pytest.mark.parametrize("r", [0.05, 0.25, 0.55, 0.7, 0.9])
def test_real_path_equals_complex_path(r: float) -> None:
    # the modular series and the product are two routes to the same log
    # slopes: they agree to 1e-12 relative, to within the rounding that
    # either route's reduction into the band carries, about 1e-16 relative
    # to a point's distance from its zero.  A batch of 20,077 points (both
    # reductions of log v at r = 0.05 and 0.25) and one point at a time
    # give the same bits.  The real sums are the complex series' sums at
    # real points: at the same band log v the one-argument complex route
    # gives k + h and (dh/dlv)/w to within 3.5e-15 of max(1, |value|) at
    # these radii, so 5e-14 leaves a margin of more than ten
    ctx = T.ThetaContext.create(r)
    w = _real_axis_points(r, 20_077)
    k = ctx.band_index(w)
    assert set(k[6:]) == {-2.0, -1.0, 0.0, 1.0, 2.0}
    gap = np.abs(w / ctx.nearest_zero(w) - 1.0)
    h, dh = T._real_log_slopes(ctx, w, 2)
    _, want_h, want_dh = T._eval(ctx, w.astype(np.complex128), 2)
    for got, want in ((h, want_h), (dh, want_dh)):
        assert got.dtype == np.float64
        err = np.abs(got - want.real) / np.maximum(1.0, np.abs(want.real))
        assert np.all(err <= 1e-12 + 1e-15 / gap)
    # the band log of _real_log_slopes: log w - 2kl, or log(r^(2k) w) where
    # |log w| >= 2
    log_w = np.log(w)
    log_v = log_w + 2.0 * k * np.log(r)
    far = np.abs(log_w) >= 2.0
    log_v[far] = np.log(w[far] * np.power(r, 2.0 * k[far]))
    _, _, series_h, series_dh = theta_series(ctx, log_v.astype(np.complex128), 2)
    for got, want in ((h, k + series_h.real), (dh, series_dh.real / w)):
        assert np.all(np.abs(got - want) <= 5e-14 * np.maximum(1.0, np.abs(want)))
    assert T._real_log_slopes(ctx, w, 1)[0].tobytes() == h.tobytes()
    for i in np.r_[0 : w.size : 16, w.size - 1]:
        one_h, one_dh = T._real_log_slopes(ctx, w[i : i + 1], 2)
        assert one_h.tobytes() == h[i : i + 1].tobytes() and one_dh.tobytes() == dh[i : i + 1].tobytes()


@pytest.mark.parametrize("r", [0.001, 0.01, 0.05, 0.25, 0.55, 0.7, 0.9, 0.97, 0.99])
def test_real_log_slopes_against_oracle(r: float) -> None:
    # the modular series against the 50-digit sums of the product's factors,
    # within 2e-13 relative to max(1, |value|): points across the band (at
    # fractions of its log width) in each of five periods k = -2..2, and
    # next to the zeros 1 and r^2; r = 0.99 is past the r at which q'
    # underflows
    ctx = T.ThetaContext.create(r)
    w = [r ** (2 * k + 2 * f - 1) for k in range(-2, 3) for f in (0.02, 0.4, 0.97)]
    w = np.array(w + [1.0 + 1e-9, 1.0 - 1e-9, 1.0 + 1e-6, r * r * (1.0 + 2e-3)])
    assert set(ctx.band_index(w)) == {-2.0, -1.0, 0.0, 1.0, 2.0}
    h, dh = T._real_log_slopes(ctx, w, 2)
    for i, x in enumerate(w):
        want_h, want_dh = (float(v) for v in log_slopes(r, x))
        assert abs(h[i] - want_h) <= 2e-13 * max(1.0, abs(want_h)), x
        assert abs(dh[i] - want_dh) <= 2e-13 * max(1.0, abs(want_dh)), x


@pytest.mark.parametrize("bad", [0.0, -0.5, -1.0, np.inf, np.nan])
def test_real_log_slopes_reject_non_positive_points(bad) -> None:
    ctx = T.ThetaContext.create(0.25)
    with pytest.raises(ValueError, match="finite positive"):
        T._real_log_slopes(ctx, np.array([0.5, bad]), 1)


def _series_points(r: float) -> np.ndarray:
    """Logs lv of theta1 arguments for the complex series: the moduli r, 1,
    1/r and sqrt(r) at angles within 1e-12 rad of +-pi, at +-pi, and
    generic, and points next to the zero lv = 0."""
    lv = [
        complex(np.log(rho), t)
        for rho in (r, 1.0, 1.0 / r, np.sqrt(r))
        for t in (np.pi - 1e-12, -(np.pi - 1e-12), np.pi, -np.pi, 0.7, -2.1)
    ]
    return np.array(lv + [complex(np.log(1.0 + d)) for d in (1e-9, 1e-6 * (1 + 1j), -1e-7j, -1e-4)])


@pytest.mark.parametrize("r", [0.05, 0.25, 0.45, 0.7, 0.9])
def test_theta_series_against_oracle(r: float) -> None:
    # theta1 = s D exp(phi), h and dh/dlv of the complex modular series
    # against the plain product and mpmath's sums at 30 digits
    ctx = T.ThetaContext.create(r)
    lv = _series_points(r)
    sD, e_phi, h, dh = theta_series(ctx, lv, 2)
    n = int(np.ceil(20.0 / (-2.0 * np.log10(r))))
    with mp.workdps(30):
        for i, x in enumerate(lv):
            v = mp.exp(mp.mpc(x))
            want_t = complex(theta_product(r, v, n))
            want_h, want_hp = (complex(a) for a in log_slopes(r, v, 1e-20))
            assert abs(sD[i] * e_phi[i] - want_t) <= 2e-14 * abs(want_t), (x, "theta1")
            assert abs(h[i] - want_h) <= 2e-14 * max(1.0, abs(want_h)), (x, "h")
            # dh/dlv = v h'(v)
            want_dh = complex(v) * want_hp
            assert abs(dh[i] - want_dh) <= 2e-14 * max(1.0, abs(want_dh)), (x, "dh/dlv")


@pytest.mark.parametrize("r", [0.05, 0.45, 0.9])
def test_theta_series_keeps_the_bits(r: float) -> None:
    # elementwise arithmetic: one point alone and inside a batch of 2,600
    # get the same bits, the lower orders' values are those of order 2, and
    # conjugate logs give conjugate log slopes
    ctx = T.ThetaContext.create(r)
    rng = np.random.default_rng(3)
    ell = -np.log(r)
    lv = np.concatenate([
        _series_points(r),
        rng.uniform(-ell, ell, 2600) + 1j * rng.uniform(-np.pi, np.pi, 2600),
    ])
    full = theta_series(ctx, lv, 2)
    for order in (0, 1):
        for a, b in zip(theta_series(ctx, lv, order)[: order + 2], full):
            assert a.tobytes() == b.tobytes()
    for a, b in zip(theta_series(ctx, np.conj(lv), 2)[2:], full[2:]):
        assert np.array_equal(a, np.conj(b))  # up to the sign of a zero
    for i in np.r_[0 : lv.size : 97, lv.size - 1]:
        for a, b in zip(theta_series(ctx, lv[i : i + 1], 2), full):
            assert a.tobytes() == b[i : i + 1].tobytes()


def test_theta_series_pole_guard() -> None:
    ctx = T.ThetaContext.create(0.25)
    with pytest.raises(T.ThetaPoleError) as err:
        theta_series(ctx, np.array([0.3j, complex(np.log(1.0 + 1e-14))]), 1)
    assert err.value.location == 1.0
