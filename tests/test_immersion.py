"""Tests for the immersion engine: evaluation, metric, curvature, rotational."""

from collections import Counter

import numpy as np
import pytest

from flatfront import annulus as annulus_module
from flatfront import meshing, validation
from flatfront import theta as theta_module
from flatfront.annulus import (
    DegenerateConfigurationError,
    gauss_map,
    gauss_map_deriv,
    gauss_map_square,
    gauss_ratio,
    gauss_ratio_deriv,
    gauss_square_log_deriv,
    inv_gauss_gap,
    potential,
    second_gauss_map,
    slit_map,
    slit_map_deriv,
    theta_quotient,
)
from flatfront.immersion import (
    HalfSpacePoint,
    RotationalModuli,
    _metric_from,
    brioschi_curvature,
    end_direction,
    first_form,
    first_form_rotational,
    hyperbolic_distance,
    immerse,
    immerse_rotational,
    intrinsic_curvature,
    intrinsic_curvature_rotational,
    klein_map,
    shape_ratio,
)
from flatfront.meshing import canonical_mesh
from flatfront.solver import solve_canonical
from flatfront.theta import _CHUNK, ThetaContext, dtheta1, log_slope, log_slope_deriv, theta1
from flatfront.validation import validate_moduli

import oracles
from routes import (
    immerse_from_gauss_data,
    potential_product,
    rotational_disc,
    rotational_gauss_data,
    second_gauss_map_product,
    shape_factor_product,
)
from test_annulus import FLAGSHIP

# Frozen independently of the evaluator (series oracle in oracles.py):
# third coordinate of the rotational front at b = 1/2, |g| = 1/2.
ROTATIONAL_PSI3_HALF = 0.5


@pytest.fixture(scope="module")
def mod():
    return FLAGSHIP


@pytest.fixture(scope="module")
def ctx():
    return FLAGSHIP.context()


def _interior_samples(m, n, seed=0, margin=0.05):
    rng = np.random.default_rng(seed)
    z = np.exp(np.log(m.r) * rng.uniform(0.1, 0.9, n)) * np.exp(
        1j * rng.uniform(-np.pi, np.pi, n)
    )
    keep = np.ones(z.shape, bool)
    for mk in (m.z0, m.z1, m.z2):
        keep &= np.abs(z - mk) > margin
    return z[keep]


def test_hyperbolic_distance_basics():
    a = HalfSpacePoint(0.0 + 0.0j, 1.0)
    b = HalfSpacePoint(0.0 + 0.0j, float(np.e))
    assert hyperbolic_distance(a, b) == pytest.approx(1.0, abs=1e-14)
    assert hyperbolic_distance(a, a) == 0.0
    with pytest.raises(ValueError):
        hyperbolic_distance(a, HalfSpacePoint(0.0 + 0.0j, 0.0))


def test_boundary_circles_collapse(mod, ctx):
    th = np.linspace(-np.pi, np.pi, 257)[:-1]
    cases = [
        (1.0 - 1e-4, HalfSpacePoint(0.0 + 0.0j, 1.0)),
        (mod.r + 1e-4, HalfSpacePoint(0.0 + 0.0j, mod.c_height)),
    ]
    for rho, cone in cases:
        pts = immerse(mod, ctx, rho * np.exp(1j * th))
        dist = hyperbolic_distance(pts, HalfSpacePoint(cone.horizontal, np.full(th.shape, cone.height)))
        assert dist.max() < 1e-3
        # image-circle diameter, again in the invariant metric
        sub = HalfSpacePoint(pts.horizontal[::8], pts.height[::8])
        pair = hyperbolic_distance(
            HalfSpacePoint(sub.horizontal[:, None], sub.height[:, None]),
            HalfSpacePoint(sub.horizontal[None, :], sub.height[None, :]),
        )
        assert pair.max() < 1e-3


def test_end_limit(mod, ctx):
    g0 = end_direction(mod)
    at = immerse(mod, ctx, complex(mod.z0))
    assert at.horizontal == g0
    assert at.height == 0.0
    near = immerse(mod, ctx, mod.z0 + 1e-12)
    assert near.height == 0.0
    # linear approach to the ideal limit
    errs = []
    for off in (1e-3, 1e-4):
        p = immerse(mod, ctx, mod.z0 + off * np.exp(0.7j))
        errs.append(abs(p.horizontal - g0) + p.height)
    assert errs[0] < 1e-2
    assert errs[1] < 0.2 * errs[0]


@pytest.mark.parametrize("r, s", [(0.25, -0.5), (0.65, -0.01), (0.7, -0.99), (0.05, -0.04)])
def test_end_direction_is_gauss_map_at_the_end(r, s):
    # the record takes g(z0) from gauss_map's order-0 series pass, bit for
    # bit, and keeps it real, as g is on the real axis; at the cells of CI's
    # console step
    moduli, _ = solve_canonical(r, s)
    ctx = moduli.context()
    g_end = gauss_map(moduli, ctx, moduli.z0)
    assert abs(g_end.imag) <= 1e-15 * abs(g_end)
    assert end_direction(moduli) == complex(g_end.real)


def test_first_form_matches_fd_pullback(mod, ctx):
    zs = _interior_samples(mod, 40, seed=31)
    d = 1e-5

    def parts(z):
        p = immerse(mod, ctx, z)
        return p.horizontal, p.height

    hx1, v1 = parts(zs + d)
    hx0, v0 = parts(zs - d)
    hy1, w1 = parts(zs + 1j * d)
    hy0, w0 = parts(zs - 1j * d)
    _, vc = parts(zs)
    dxh, dxv = (hx1 - hx0) / (2 * d), (v1 - v0) / (2 * d)
    dyh, dyv = (hy1 - hy0) / (2 * d), (w1 - w0) / (2 * d)
    E_fd = (np.abs(dxh) ** 2 + dxv**2) / vc**2
    G_fd = (np.abs(dyh) ** 2 + dyv**2) / vc**2
    F_fd = ((dxh * np.conj(dyh)).real + dxv * dyv) / vc**2
    ms = first_form(mod, ctx, zs)
    scale = np.maximum(ms.E, ms.G)
    assert (np.abs(ms.E - E_fd) / scale).max() < 1e-6
    assert (np.abs(ms.F - F_fd) / scale).max() < 1e-6
    assert (np.abs(ms.G - G_fd) / scale).max() < 1e-6


def test_metric_determinant_identity_and_comparison(mod, ctx):
    zs = _interior_samples(mod, 200, seed=33)
    ms = first_form(mod, ctx, zs)
    det = ms.E * ms.G - ms.F**2
    assert (np.abs(det - ms.lambda_sq**2) / np.abs(det)).max() < 1e-10
    # operational comparison with the shape form: determinant and trace
    assert (det - ms.lambda_sq**2).min() > -1e-12 * np.abs(det).max()
    assert (ms.E + ms.G - 2.0 * ms.lambda_sq).min() > -1e-12


def test_metric_regular_at_ratio_markers(mod, ctx):
    # the raw e^2u = |Q1 z^m / (1-R)| is 0/0 at z1; the shape factor, on the
    # series in first_form and on the product in the cross-route oracle, has
    # no such cancellation and must sail through both markers
    for mk in (mod.z1, mod.z2):
        tri = [first_form(mod, ctx, complex(mk + k * 1e-7)) for k in (1, 2, 3)]
        assert all(np.isfinite(t.E) and np.isfinite(t.G) and t.E > 0 for t in tri)
        # bounded near the marker: a hidden pole would scale like 1/distance^2
        es = [t.E for t in tri]
        assert max(es) / min(es) < 1.01
    line = np.linspace(mod.z1 - 2e-6, mod.z1 + 2e-6, 41).astype(complex)
    e2_line = np.abs(shape_factor_product(mod, ctx, line))
    assert np.all(np.isfinite(e2_line))
    assert e2_line.max() / e2_line.min() < 1.0 + 1e-3
    # smooth through z1: increments stay uniform
    inc = np.diff(e2_line)
    assert np.abs(inc - inc.mean()).max() < 1e-2 * np.abs(inc.mean())


@pytest.mark.parametrize(
    "r, s", [(0.25, -0.5), (0.05, -0.04), (0.65, -0.01), (0.7, -0.99), (0.45, -0.3), (0.6, -0.8)]
)
def test_first_form_matches_the_product_shape_factor(r, s):
    # first_form reads g and the shape factor from one series pass; the
    # route with g from gauss_map and e^2u from the product shape factor
    # gives E, F, G and lambda^2 within 1e-13 (E + G), over the annulus and
    # on the real axis through z1 and z2, at least 1e-2 from the end z0
    moduli, _ = solve_canonical(r, s)
    ctx = moduli.context()
    rng = np.random.default_rng(41)
    z = np.exp(np.log(r) * rng.uniform(0.0, 1.0, 400)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 400))
    z = np.concatenate([z, np.linspace(-1.0, -r, 101)[1:-1]])
    z = z[np.abs(z - moduli.z0) > 1e-2]
    g = gauss_map(moduli, ctx, z)
    gp = g * (0.5 * gauss_square_log_deriv(moduli, ctx, z) - 1.0 / z)
    R, Rp = gauss_ratio(moduli, ctx, z), gauss_ratio_deriv(moduli, ctx, z)
    F = R / g
    w_hopf = (Rp / g - R * gp / (g * g)) + F * F * gp
    want = _metric_from(np.abs(shape_factor_product(moduli, ctx, z)), w_hopf, gp)
    ms = first_form(moduli, ctx, z)
    scale = ms.E + ms.G
    for got, ref in zip((ms.E, ms.F, ms.G, ms.lambda_sq), want):
        assert (np.abs(got - ref) / scale).max() <= 1e-13


def test_shape_ratio_bounds(mod, ctx):
    th = np.linspace(-np.pi, np.pi, 513)[:-1]
    for rho in (1.0, mod.r):
        p = shape_ratio(mod, ctx, rho * np.exp(1j * th))
        assert np.abs(np.abs(p) - 1.0).max() < 1e-8
    zs = _interior_samples(mod, 400, seed=35, margin=0.02)
    assert np.abs(shape_ratio(mod, ctx, zs)).max() < 1.0


def test_shape_ratio_dual_route(mod, ctx):
    # |p| = e^4u |w_hopf / g'| from independently assembled pieces, R, R'
    # and u on the theta product
    zs = _interior_samples(mod, 60, seed=37)
    g = gauss_map(mod, ctx, zs)
    gp = gauss_map_deriv(mod, ctx, zs)
    R = gauss_ratio(mod, ctx, zs)
    Rp = gauss_ratio_deriv(mod, ctx, zs)
    e2 = np.exp(2.0 * potential_product(mod, ctx, zs))
    F = R / g
    w_hopf = Rp / g - R * gp / (g * g) + F * F * gp
    ref = e2**2 * np.abs(w_hopf / gp)
    got = np.abs(shape_ratio(mod, ctx, zs))
    assert (np.abs(got - ref) / ref).max() < 1e-10


@pytest.mark.parametrize("marker", ["z1", "z2"])
def test_shape_ratio_near_the_markers_against_oracle(mod, ctx, marker):
    # R/(1-R) has its zero and pole at z2 and z1, where a g'/g assembled from
    # W'/W cancels poles; p must keep its digits there.  r = 0.25 needs 40
    # terms for r^(2n) < 1e-48.
    for delta in (1e-9, 1e-7, 1e-5):
        z = complex(getattr(mod, marker), delta)
        want = complex(oracles.shape_ratio(mod.to_dict(), z, n=40))
        got = shape_ratio(mod, ctx, z)
        assert abs(got - want) <= 1e-12 * abs(want), (delta, got, want)


def test_shape_ratio_holomorphic(mod, ctx):
    # Cauchy-Riemann: d p / d zbar = 0 (away from the phase seam on arg z = pi)
    zs = _interior_samples(mod, 40, seed=39)
    zs = zs[np.abs(np.angle(zs)) < 2.8]
    d = 1e-6
    px = (shape_ratio(mod, ctx, zs + d) - shape_ratio(mod, ctx, zs - d)) / (2 * d)
    py = (shape_ratio(mod, ctx, zs + 1j * d) - shape_ratio(mod, ctx, zs - 1j * d)) / (2 * d)
    dbar = 0.5 * (px + 1j * py)
    assert (np.abs(dbar) / (1.0 + np.abs(px))).max() < 1e-4


def test_cross_route_agreement(mod, ctx):
    # generic-data route (g, g*, |xi| = e^u) against the direct route, with
    # g* and u from the raw quotients on the theta product
    zs = _interior_samples(mod, 100, seed=41)
    g = gauss_map(mod, ctx, zs)
    gs = second_gauss_map_product(mod, ctx, zs)
    xi = np.exp(potential_product(mod, ctx, zs))
    a = immerse(mod, ctx, zs)
    b = immerse_from_gauss_data(g, gs, xi)
    assert np.abs(a.horizontal - b.horizontal).max() < 1e-9
    assert np.abs(a.height - b.height).max() < 1e-9


def test_cross_route_at_ratio_zero(mod, ctx):
    # at z2 the second Gauss map is the AT_INFINITY sentinel and F = 0
    z = complex(mod.z2)
    g = gauss_map(mod, ctx, z)
    gs = second_gauss_map(mod, ctx, z)
    xi = np.exp(potential(mod, ctx, z))
    a = immerse(mod, ctx, z)
    b = immerse_from_gauss_data(g, gs, xi)
    assert abs(a.horizontal - b.horizontal) < 1e-12
    assert abs(a.height - b.height) < 1e-12
    assert abs(a.horizontal - g) < 1e-12  # F = 0 leaves the Gauss map value


def test_loop_integral_around_end(mod, ctx):
    # F g' has residue structure at z0 giving exactly i pi around the end
    n, rad = 4096, 0.08
    tt = np.linspace(0, 2 * np.pi, n + 1)[:-1]
    zc = mod.z0 + rad * np.exp(1j * tt)
    gp = gauss_map_deriv(mod, ctx, zc)
    F = inv_gauss_gap(mod, ctx, zc)
    dz = 1j * rad * np.exp(1j * tt) * (2 * np.pi / n)
    loop = (F * gp * dz).sum()
    assert abs(loop - 1j * np.pi) < 1e-10


def test_klein_map_values():
    pts = HalfSpacePoint(np.array([0.0 + 0.0j, 0.0 + 0.0j, 3.0 + 4.0j]), np.array([1.0, 2.0, 1.0]))
    k = klein_map(pts)
    assert k.shape == (3, 3)
    assert np.abs(k[0]).max() == 0.0
    assert k[1] == pytest.approx([0.0, 0.0, 3.0 / 5.0])
    assert np.linalg.norm(k, axis=-1).max() < 1.0
    ideal = klein_map(HalfSpacePoint(2.0 + 0.0j, 0.0))
    assert np.linalg.norm(ideal) == pytest.approx(1.0, abs=1e-15)
    with pytest.raises(ValueError):
        klein_map(HalfSpacePoint(0.0 + 0.0j, -1.0))


def test_brioschi_sphere_control():
    # ds^2 = cos^2(v) du^2 + dv^2 has K = +1
    h, v0 = 1e-3, 0.4
    vv = np.array([-1.0, 0.0, 1.0]) * h
    E = np.tile(np.cos(v0 + vv) ** 2, (3, 1)).T
    F = np.zeros((3, 3))
    G = np.ones((3, 3))
    assert brioschi_curvature(E, F, G, h) == pytest.approx(1.0, abs=1e-5)
    with pytest.raises(ValueError):
        brioschi_curvature(E[:2], F, G, h)


def test_intrinsic_flatness(mod, ctx):
    th = np.linspace(0.5, np.pi - 0.5, 5)
    pts = np.concatenate([np.sqrt(mod.r) * np.exp(1j * th), np.sqrt(mod.r) * np.exp(-1j * th)])
    ks = [intrinsic_curvature(mod, ctx, z) for z in pts]
    assert max(abs(k) for k in ks) < 1e-4


# --- rotational family ----------------------------------------------------


def test_rotational_frozen_value():
    rot = RotationalModuli.from_exponent(0.5)
    p = immerse_rotational(rot, 0.5 + 0.0j)
    assert p.height == pytest.approx(ROTATIONAL_PSI3_HALF, abs=1e-14)
    assert abs(p.horizontal) < 1e-14  # b = 1/2 collapses to the axis


def test_rotational_apex_and_end():
    for b in (0.3, 0.5, 0.6):
        rot = RotationalModuli.from_exponent(b)
        apex = immerse_rotational(rot, complex(rot.s_rot))
        assert abs(apex.horizontal) < 1e-12
        assert apex.height == pytest.approx(1.0, abs=1e-12)
        low = immerse_rotational(rot, 1e-8 * rot.s_rot + 0.0j)
        assert low.height < 1e-7
    with pytest.raises(ValueError):
        immerse_rotational(rot, complex(2.0 * rot.s_rot))
    with pytest.raises(ValueError):
        RotationalModuli.from_exponent(1.5)


def test_rotational_two_routes():
    rng = np.random.default_rng(43)
    for b in (0.3, 0.6):
        rot = RotationalModuli.from_exponent(b)
        r_disc, lam = rotational_disc(rot)
        assert lam * r_disc == pytest.approx(rot.s_rot, rel=1e-14)
        z = r_disc * rng.uniform(0.05, 1.0, 50) * np.exp(1j * rng.uniform(0, 2 * np.pi, 50))
        route1 = immerse_from_gauss_data(*rotational_gauss_data(rot, z))
        closed = immerse_rotational(rot, lam * z)
        assert np.abs(lam * route1.horizontal - closed.horizontal).max() < 1e-12
        assert np.abs(lam * route1.height - closed.height).max() < 1e-12


def test_rotational_degenerate_guards():
    rot = RotationalModuli.from_exponent(0.5)
    assert rot.degenerate
    with pytest.raises(DegenerateConfigurationError):
        rotational_disc(rot)
    with pytest.raises(DegenerateConfigurationError):
        rotational_gauss_data(rot, np.array([0.1 + 0.0j]))
    with pytest.raises(DegenerateConfigurationError):
        first_form_rotational(rot, 0.3 + 0.0j)


def test_rotational_metric_and_flatness():
    rot = RotationalModuli.from_exponent(0.6)
    rng = np.random.default_rng(45)
    w = rot.s_rot * rng.uniform(0.3, 0.9, 30) * np.exp(1j * rng.uniform(0, 2 * np.pi, 30))
    ms = first_form_rotational(rot, w)
    det = ms.E * ms.G - ms.F**2
    assert (np.abs(det - ms.lambda_sq**2) / np.abs(det)).max() < 1e-12
    # FD pullback of the closed form
    d = 1e-5

    def parts(ww):
        p = immerse_rotational(rot, ww)
        return p.horizontal, p.height

    hx1, v1 = parts(w + d)
    hx0, v0 = parts(w - d)
    hy1, w1 = parts(w + 1j * d)
    hy0, w0 = parts(w - 1j * d)
    _, vc = parts(w)
    E_fd = (np.abs((hx1 - hx0) / (2 * d)) ** 2 + ((v1 - v0) / (2 * d)) ** 2) / vc**2
    G_fd = (np.abs((hy1 - hy0) / (2 * d)) ** 2 + ((w1 - w0) / (2 * d)) ** 2) / vc**2
    scale = np.maximum(ms.E, ms.G)
    assert (np.abs(ms.E - E_fd) / scale).max() < 1e-6
    assert (np.abs(ms.G - G_fd) / scale).max() < 1e-6
    # Brioschi flatness of the closed-form metric
    h = 5e-4
    worst = 0.0
    for wc in w[:8]:
        ks = []
        for hh in (h, h / 2):
            st = np.array([[complex(i * hh, j * hh) for i in (-1, 0, 1)] for j in (-1, 0, 1)])
            m2 = first_form_rotational(rot, wc + st)
            ks.append(brioschi_curvature(m2.E, m2.F, m2.G, hh))
        worst = max(worst, abs((4 * ks[1] - ks[0]) / 3))
    assert worst < 1e-4


# --- scalar/array convention ------------------------------------------------

# (2, 3) points inside the flagship annulus, away from its markers; the
# rotational family sees them scaled into 0 < |g| <= s_rot
_GRID = np.array(
    [[0.45 + 0.2j, -0.5 + 0.3j, 0.3 - 0.6j], [-0.7 - 0.1j, 0.6 + 0.55j, -0.35 - 0.4j]]
)
_ROT = RotationalModuli.from_exponent(0.3)
_FLAG_CTX = FLAGSHIP.context()
_POINTWISE = {
    "theta1": lambda z: theta1(_FLAG_CTX, z),
    "dtheta1": lambda z: dtheta1(_FLAG_CTX, z),
    "log_slope": lambda z: log_slope(_FLAG_CTX, z),
    "log_slope_deriv": lambda z: log_slope_deriv(_FLAG_CTX, z),
    "slit_map": lambda z: slit_map(_FLAG_CTX, FLAGSHIP.z1, z),
    "slit_map_deriv": lambda z: slit_map_deriv(_FLAG_CTX, FLAGSHIP.z1, z),
    "theta_quotient": lambda z: theta_quotient(_FLAG_CTX, FLAGSHIP.z1, z),
    "immerse_rotational": lambda z: immerse_rotational(_ROT, 0.5 * z),
    "immerse_from_gauss_data": lambda z: immerse_from_gauss_data(
        *rotational_gauss_data(_ROT, 0.5 * z)
    ),
    "first_form_rotational": lambda z: first_form_rotational(_ROT, 0.5 * z),
    "intrinsic_curvature_rotational": lambda z: intrinsic_curvature_rotational(_ROT, 0.5 * z),
}
for _fn in (
    gauss_map_square, gauss_square_log_deriv, gauss_map, gauss_map_deriv, potential,
    inv_gauss_gap, second_gauss_map, immerse, first_form, shape_ratio, intrinsic_curvature,
):
    _POINTWISE[_fn.__name__] = lambda z, fn=_fn: fn(FLAGSHIP, _FLAG_CTX, z)


def _fields(value):
    if hasattr(value, "__dataclass_fields__"):
        return [getattr(value, name) for name in value.__dataclass_fields__]
    return [value]


@pytest.mark.parametrize("name", sorted(_POINTWISE))
def test_pointwise_convention(name):
    f = _POINTWISE[name]
    arrays = _fields(f(_GRID))
    for a in arrays:
        assert isinstance(a, np.ndarray) and a.shape == _GRID.shape
    for idx in np.ndindex(_GRID.shape):
        for point in (complex(_GRID[idx]), np.array(_GRID[idx])):
            values = _fields(f(point))
            assert len(values) == len(arrays)
            for v, a in zip(values, arrays):
                # a Python scalar of the array's kind, equal bit for bit
                assert type(v) is type(a[idx].item())
                assert np.asarray(v, dtype=a.dtype).tobytes() == a[idx].tobytes()


def test_first_form_stencil_batch_equals_per_stencil_calls():
    # criterion 6's curvature stencils: 100 centres, each with 3x3 offsets.
    # first_form and brioschi_curvature give each stencil the same bits in a
    # stacked call as alone, and one stencil's K is a float
    moduli, _ = solve_canonical(0.25, -0.5)
    ctx = moduli.context()
    fracs = np.linspace(0.45, 0.55, 5)
    angs = np.linspace(0.35, np.pi - 0.35, 10)
    angs = np.concatenate([angs, -angs])
    zs = (np.exp(np.log(moduli.r) * fracs)[:, None] * np.exp(1j * angs)[None, :]).ravel()
    offs = np.array([[complex(i, j) for i in (-1, 0, 1)] for j in (-1, 0, 1)])
    stencils = zs[:, None, None] + 5e-4 * offs[None]
    ms = first_form(moduli, ctx, stencils)
    batch = _fields(ms)
    stacked_k = brioschi_curvature(ms.E, ms.F, ms.G, 5e-4)
    assert stacked_k.shape == zs.shape
    for i, stencil in enumerate(stencils):
        for v, a in zip(_fields(first_form(moduli, ctx, stencil)), batch):
            assert v.tobytes() == a[i].tobytes()
        k = brioschi_curvature(ms.E[i], ms.F[i], ms.G[i], 5e-4)
        assert type(k) is float and np.float64(k).tobytes() == stacked_k[i].tobytes()


def _evaluated_points(moduli):
    """The points validate passes to shape_ratio and immerse, and the mesh
    rings canonical_mesh passes to immerse."""
    seen = {"shape_ratio": [], "immerse": []}
    with pytest.MonkeyPatch.context() as m:
        for module, name in ((validation, "shape_ratio"), (validation, "immerse"), (meshing, "immerse")):
            def recorded(mod_, ctx_, z, real=getattr(module, name), name=name):
                seen[name].append(np.asarray(z).ravel())
                return real(mod_, ctx_, z)

            m.setattr(module, name, recorded)
        validate_moduli(moduli)
        canonical_mesh(moduli)
    return {name: np.concatenate(zs) for name, zs in seen.items()}


def _bits(a):
    return np.ascontiguousarray(a).view(float).tobytes()


@pytest.mark.parametrize("r, s", [(0.25, -0.5), (0.6, -0.8), (0.1, -0.1)])
def test_mirror_symmetry_of_the_evaluators(r, s):
    # the markers are real, so z -> conj(z) maps the surface onto its mirror
    # image; validate and canonical_mesh evaluate the closed upper half of
    # each mirrored point set and read the lower half off these identities
    moduli, _ = solve_canonical(r, s)
    ctx = moduli.context()
    # -pi and the angles in (0, pi); theta = 0 is left out because a real z
    # is its own mirror, where only the sign of a zero imaginary part can differ
    n = 64
    ks = np.r_[0, n // 2 + 1 : n]
    ring = np.exp(1j * np.pi * (2 * ks - n) / n)
    grid = validation.interior_grid(r, 16)[:, 8:].ravel()
    end_ring = moduli.z0 + 1e-4 * ring
    z = np.concatenate([grid, (1.0 - 1e-4) * ring, (r + 1e-4) * ring, end_ring])
    zc = np.conj(z)
    assert _bits(shape_ratio(moduli, ctx, zc)) == _bits(np.conj(shape_ratio(moduli, ctx, z)))
    assert _bits(gauss_ratio(moduli, ctx, zc)) == _bits(np.conj(gauss_ratio(moduli, ctx, z)))
    a, b = immerse(moduli, ctx, z), immerse(moduli, ctx, zc)
    assert _bits(b.horizontal) == _bits(np.conj(a.horizontal))
    assert _bits(b.height) == _bits(a.height)
    # the first form: E, G and lambda_sq are even in Im z and F is odd
    m, mc = first_form(moduli, ctx, z), first_form(moduli, ctx, zc)
    for name in ("E", "G", "lambda_sq"):
        assert _bits(getattr(mc, name)) == _bits(getattr(m, name)), name
    assert _bits(mc.F) == _bits(-m.F)
    # the curvature stencil needs room inside the annulus, so it runs on the
    # grid and on the end circle; its sums are grouped symmetrically, so a
    # stencil and its mirror image give the same K, which is why validate
    # evaluates K at the positive-angle probes only
    zk = np.concatenate([grid, end_ring])
    k, kc = intrinsic_curvature(moduli, ctx, zk), intrinsic_curvature(moduli, ctx, np.conj(zk))
    assert _bits(kc) == _bits(k)


@pytest.mark.parametrize("r, s", [
    (0.25, -0.5), (0.6, -0.8), (0.1, -0.1),
    (0.05, -0.04), (0.321, -0.6), (0.375, -0.5), (0.429, -0.3), (0.5, -0.9),
])
def test_shared_theta_calls_keep_the_bits(r, s):
    # shape_ratio and immerse are projections of one pass over the four theta
    # arguments on the modular series: their values equal the compositions of
    # that pass's fields bit for bit, the two passes share R and the shape
    # factor, and both evaluators match the compositions of the
    # product evaluators within 1e-12 of max(1, |value|) on the point sets of
    # validate and of the mesh
    moduli, _ = solve_canonical(r, s)
    ctx = moduli.context()
    pts = _evaluated_points(moduli)
    z = pts["shape_ratio"]
    series = annulus_module._surface_series(moduli, ctx, z, ("g_log", "R", "factor", "Rp"), "shape_ratio")
    R, factor, g_log, Rp = series.R, series.factor, series.g_log, series.Rp
    W = gauss_map_square(moduli, ctx, z)
    got = shape_ratio(moduli, ctx, z)
    assert _bits(got) == _bits(factor * factor * z * z * (Rp / g_log + R * (R - 1.0)) / W)
    series = annulus_module._surface_series(moduli, ctx, z, ("g", "R", "factor"), "immerse")
    assert _bits(series.R) == _bits(R) and _bits(series.factor) == _bits(factor)
    # the product route: g'/g of g = sqrt(C) theta1(z2 z) / (z theta1(z1 z))
    R = gauss_ratio(moduli, ctx, z)
    g_log = (log_slope(ctx, moduli.z2 * z) - log_slope(ctx, moduli.z1 * z) - 1.0) / z
    factor = shape_factor_product(moduli, ctx, z)
    p = factor * factor * z * z * (gauss_ratio_deriv(moduli, ctx, z) / g_log + R * (R - 1.0)) / W
    assert (np.abs(got - p) / np.maximum(1.0, np.abs(p))).max() <= 1e-12

    # a mesh vertex can sit on the end z0, which immerse maps to its ideal
    # limit; the compositions cover the other points
    got = immerse(moduli, ctx, pts["immerse"])
    keep = np.abs(pts["immerse"] - moduli.z0) >= 1e-10
    z = pts["immerse"][keep]
    series = annulus_module._surface_series(moduli, ctx, z, ("g", "R", "factor"), "immerse")
    for g, R, e2, tol in (
        (series.g, series.R, np.abs(series.factor), 0.0),
        (gauss_map(moduli, ctx, z), gauss_ratio(moduli, ctx, z), np.abs(shape_factor_product(moduli, ctx, z)), 1e-12),
    ):
        F = R / g
        psi3 = e2 / (1.0 + e2 * e2 * np.abs(F) ** 2)
        horiz = g - psi3 * e2 * np.conj(F)
        for a, b in ((got.horizontal[keep], horiz), (got.height[keep], psi3)):
            if tol == 0.0:
                assert _bits(a) == _bits(b)
            else:
                assert (np.abs(a - b) / np.maximum(1.0, np.abs(b))).max() <= tol


def test_kernel_calls_per_point(monkeypatch):
    # a series pass makes one call, on one table with a row per theta
    # argument, highest series degree first, and names the leading rows that
    # need N1/D and the degree-2 sum: (rows, n1, n2).  shape_ratio's pass has
    # z0/z and z0 z at degree 2 and z1 z and z2 z at degree 1, and its W one
    # more pass over the two arguments of g (z1 z and z2 z at degree 0);
    # immerse, second_gauss_map and inv_gauss_gap have z0/z and z0 z at
    # degree 1 and z1 z and z2 z at degree 0; potential's shape factor has
    # z0/z, z0 z and z1 z at degree 0.  None calls the product.  first_form
    # takes g and the shape factor from a degree-0 table of all four
    # arguments; R, R' and W'/W stay on the product, with separate R and R'
    # calls
    ctx = FLAGSHIP.context()
    gauss_map(FLAGSHIP, ctx, 0.5j)  # builds the per-surface record
    orders, series = [], []
    for module in (theta_module, annulus_module):
        def counted(*args, fn=module._eval, **kw):
            orders.append(args[2])
            return fn(*args, **kw)

        monkeypatch.setattr(module, "_eval", counted)

    def series_counted(ctx, E, em1, n1, n2, fn=annulus_module._series_sums):
        series.append((len(E), n1, n2))
        return fn(ctx, E, em1, n1, n2)

    monkeypatch.setattr(annulus_module, "_series_sums", series_counted)
    for fn, want, want_series in (
        (shape_ratio, {}, [(4, 4, 2), (2, 0, 0)]),
        (immerse, {}, [(4, 2, 0)]),
        (second_gauss_map, {}, [(4, 2, 0)]),
        (inv_gauss_gap, {}, [(4, 2, 0)]),
        (gauss_map, {}, [(2, 0, 0)]),
        (potential, {}, [(3, 0, 0)]),
        (first_form, {1: 8, 2: 4}, [(4, 0, 0)]),
    ):
        orders.clear()
        series.clear()
        fn(FLAGSHIP, ctx, 0.4 + 0.3j)
        assert Counter(orders) == want, fn.__name__
        assert series == want_series, fn.__name__
    # the range check takes R alone, from z0/z and z0 z at degree 1, on its
    # 516 points in one chunk
    orders.clear()
    series.clear()
    assert validation.boundary_ranges_ok(FLAGSHIP)
    assert Counter(orders) == {} and series == [(2, 2, 0)]


def test_series_tables_hold_at_most_a_chunk(monkeypatch):
    # no table handed to the series holds more than _CHUNK entries, and a
    # chunk takes as many points as its pass's table allows: 512 for four
    # rows, 682 for potential's three, 1,024 for two.  A chunk repairs E - 1
    # at all its entries next to a zero of theta1 in at most one
    # _near_zero_em1 call, made before its series call
    ctx = FLAGSHIP.context()
    shapes, repairs = [], []

    def series_counted(*args, fn=annulus_module._series_sums, **kw):
        shapes.append(args[1].shape)
        return fn(*args, **kw)

    def repair_counted(*args, fn=annulus_module._near_zero_em1, **kw):
        repairs.append(len(shapes))
        return fn(*args, **kw)

    monkeypatch.setattr(annulus_module, "_series_sums", series_counted)
    monkeypatch.setattr(annulus_module, "_near_zero_em1", repair_counted)
    rng = np.random.default_rng(17)
    z = np.exp(rng.uniform(np.log(FLAGSHIP.r), 0.0, 5000)) * np.exp(1j * rng.uniform(-np.pi, np.pi, 5000))
    four_rows = [(4, 512)] * 9 + [(4, 392)]
    for fn, want in (
        (shape_ratio, four_rows + [(2, 1024)] * 4 + [(2, 904)]),
        (immerse, four_rows),
        (potential, [(3, 682)] * 7 + [(3, 226)]),
    ):
        shapes.clear()
        repairs.clear()
        fn(FLAGSHIP, ctx, z)
        assert shapes == want, fn.__name__
        assert max(rows * n for rows, n in shapes) <= _CHUNK
        # a repair is tagged with the number of series calls before it, so
        # two repairs in one chunk share a tag
        assert repairs and len(set(repairs)) == len(repairs), (fn.__name__, repairs)
