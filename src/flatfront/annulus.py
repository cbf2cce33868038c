"""Conformal data on the annulus r < |z| < 1 built from theta functions.

The moduli of a two-singularity surface are three real markers
z2 < z0 < z1 in (-1, -r) plus derived constants.  From them the module
evaluates:

* ``slit_map`` - the residue-one meromorphic map with a single simple pole
  at a marker (real on the boundary circles),
* ``gauss_ratio`` - the affine combination R = a_R * slit_map + b_R
  normalized by R(z1) = 1, R(z2) = 0, with its simple pole at z0,
* ``theta_quotient`` - the quotient theta1(marker/z) / theta1(marker z),
  unimodular on |z| = 1,
* ``gauss_map`` - g = sqrt(W) / z for W = R/(1-R) * Q1/Q2, in the closed
  form g = sqrt(C) theta1(z2 z) / (z theta1(z1 z)),
* ``gauss_map_square`` - W = (z g)^2,
* ``_shape_factor`` - Q1 z^m / (1-R), whose modulus is exp(2u),
* ``_gauss_log_deriv`` - g'/g = (log_slope(z2 z) - log_slope(z1 z) - 1) / z,
  from the theta product form of g, with no poles on the closed annulus,
* ``potential`` - the harmonic function u with exp(2u) = |Q1 z^m / (1-R)|,
  from the raw quotients (an independent route to the shape factor),
* ``inv_gauss_gap`` / ``second_gauss_map`` - F = R/g and g* = g - 1/F,
* ``_surface_series`` - R, the shape factor and g, or g'/g and R', from one
  pass of the complex modular series over the four theta arguments z0/z,
  z0 z, z1 z and z2 z: the data of ``immerse`` and ``shape_ratio``.

R is real on both circles, so it is elliptic on C*/r^2, with simple poles
at z0 and 1/z0.  Once R(z1) = 1 and R(z2) = 0, comparing divisors gives

    R     = K  theta1(z/z2) theta1(z z2) / (theta1(z/z0) theta1(z z0)),
    1 - R = K' theta1(z/z1) theta1(z z1) / (theta1(z/z0) theta1(z z0)),

with K' = theta1(z2/z0) theta1(z2 z0) / (theta1(z2/z1) theta1(z2 z1)).  With
theta1(1/w) = -w theta1(w) the composites W and Q1 z^m / (1-R) become plain
theta products: the simple zeros and poles that cancel pairwise in the raw
quotients, at z0, z1 and z2, never appear.  W has double zeros at r^(2k)/z2
and double poles at r^(2k)/z1, on the negative real axis off the annulus,
so its square root is single-valued with no branch to track.  The two
constants sqrt(C) and K' are computed once per surface.

A slit value takes two kernel calls, at marker/z and marker z, and the
kernel gives a point the same bits in any batch; so ``_slit_parts`` takes a
marker per point, and the four slit values that tie the stored fields to
the markers (slit_map(z0, z1), slit_map(z0, z2), slit_map(z1, z0) and
slit_map(z2, z0), see ``_marker_slits``) come from one two-call pass with
the bits of four separate ``slit_map`` calls.

Two kernels serve the module.  ``_surface_series``, which feeds the bulk
evaluators immerse and shape_ratio of the mesh and the validation battery,
runs on the complex modular series (theta._series_sums): 1 to 4 terms per
argument at every r from 0.023, where the product takes 6 to 88 and more,
and one log z and one exp per point shared by the four arguments.  Every
public map here, the per-surface constants sqrt(C) and K', and the first
form and curvature built on them in flatfront.immersion stay on the
product: the benchmark's probe workload records each query it makes and
its peak memory grows with their number, so faster single-point queries
there wait until the benchmark keeps a record of fixed size per query.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from functools import lru_cache

import numpy as np

from .theta import _CHUNK, ThetaContext, _eval, _expm1, _guard_series_zeros, _modular_terms, _series_sums, pointwise

ANNULUS_SLACK = 1e-12

# Tagged value for the second Gauss map at points where F vanishes.
AT_INFINITY = complex(np.inf, np.inf)


class DegenerateConfigurationError(ValueError):
    """Marker configuration that does not pin down the ratio map."""


class RepresentationError(ValueError):
    """Stored moduli fields that do not fit their markers, so the theta
    products of W, g and the shape factor do not represent the surface they
    describe: R(z1) = 1 with c1 = slit_map(z1, z0), R(z2) = 0 with
    c2 = slit_map(z2, z0) and s = -z2 c2, or z1 z2 r^(2(m+2)) = 1 fails."""


@dataclass(frozen=True)
class CanonicalModuli:
    """Solved marker configuration for a two-singularity surface.

    Orderings: -1 < z2 < z0 < z1 < -r, with s in (-1, 0) and m in (-3, -2).
    c_height is the height |z1| r^(m+1) of the inner singular point.

    The markers are real, so the Weierstrass data is real on the real axis
    and the surface is symmetric under z -> conj(z): the ratio R, the shape
    ratio and the horizontal part of the immersion conjugate, the first
    form's F changes sign, and the height, E, G and the finite-difference
    curvature stay the same, bit for bit.  Sampling code evaluates the
    closed upper half of a mirrored point set (`_mirror_angles`) and reads
    off the rest.
    """

    r: float
    s: float
    m: float
    z0: float
    z1: float
    z2: float
    c1: float
    c2: float
    a_R: float
    b_R: float
    c_height: float

    def __post_init__(self):
        if not 0.0 < self.r < 1.0:
            raise ValueError("r must lie in (0, 1)")
        if not -1.0 < self.s < 0.0:
            raise ValueError("s must lie in (-1, 0)")
        if not (-1.0 < self.z2 < self.z0 < self.z1 < -self.r):
            raise ValueError("markers must satisfy -1 < z2 < z0 < z1 < -r")
        if not self.c_height > 0.0:
            raise ValueError("c_height must be positive")

    def context(self) -> ThetaContext:
        return _context_for(self.r)

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict) -> "CanonicalModuli":
        return cls(**{f.name: float(data[f.name]) for f in fields(cls)})

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "CanonicalModuli":
        return cls.from_dict(json.loads(text))


def _mirror_angles(n: int, half_step: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """n angles pi (2k - n) / n, or pi (2k + 1 - n) / n with half_step, and
    the indices of their closed upper half: -pi and the angles >= 0.

    The numerators are integers, so negating one is exact: the angles are
    exactly odd under k -> n - k (n - 1 - k with half_step), exp(-i theta)
    is conj(exp(i theta)) bit for bit, and every angle outside the upper
    half mirrors one inside it.
    """
    num = 2 * np.arange(n) - n + int(half_step)
    return np.pi * num / n, np.flatnonzero((num >= 0) | (num == -n))


@lru_cache(maxsize=64)
def _context_for(r: float) -> ThetaContext:
    return ThetaContext.create(r)


def _require_annulus(ctx: ThetaContext, flat, who: str):
    a = np.abs(flat)
    if (a < ctx.r - ANNULUS_SLACK).any() or (a > 1.0 + ANNULUS_SLACK).any():
        raise ValueError(f"{who}: argument outside the closed annulus [{ctx.r}, 1]")


def _slit_parts(ctx: ThetaContext, marker, z, order: int, who: str = "slit_map"):
    """(slit_map, slit_map_deriv) at the flat points z from one kernel call
    per argument, marker/z and marker z; the derivative is None unless order
    is 2.  marker is a float or a float
    array that broadcasts against z.  No kernel value depends on the order,
    and a point's value not on its batch, so each value has the bits of its
    own evaluator."""
    _require_annulus(ctx, z, who)
    _, h_in, hp_in = _eval(ctx, marker / z, order)
    _, h_out, hp_out = _eval(ctx, marker * z, order)
    q = -(h_in + h_out) / marker
    return q, (hp_in / (z * z) - hp_out if order >= 2 else None)


def _marker_slits(ctx: ThetaContext, z0: float, z1: float, z2: float):
    """(slit_map(z0, z1), slit_map(z0, z2), c1, c2, slit_map_deriv(z0, z1),
    slit_map_deriv(z0, z2)), all but c1 and c2 complex, with the real parts
    c1 and c2 of slit_map(z1, z0) and slit_map(z2, z0), from one order-2
    pass over the four points, with the bits of one-point calls."""
    q, qp = _slit_parts(ctx, np.array([z0, z0, z1, z2]), np.array([z1, z2, z0, z0], dtype=np.complex128), 2)
    c1, c2 = float(q[2].real), float(q[3].real)
    return complex(q[0]), complex(q[1]), c1, c2, complex(qp[0]), complex(qp[1])


@pointwise
def slit_map(ctx: ThetaContext, marker: float, z):
    """Meromorphic map with one simple pole (residue 1) at ``marker``.

    Maps the annulus onto the plane minus two horizontal slits; real on
    |z| = 1 and |z| = r.  Equals -(log_slope(marker/z) + log_slope(marker z))
    / marker, which doubles as a cross-check route.
    """
    return _slit_parts(ctx, marker, z, 1)[0]


@pointwise
def slit_map_deriv(ctx: ThetaContext, marker: float, z):
    """d slit_map / dz."""
    return _slit_parts(ctx, marker, z, 2, "slit_map_deriv")[1]


@pointwise
def theta_quotient(ctx: ThetaContext, marker: float, z):
    """theta1(marker / z) / theta1(marker * z).

    For a marker in (-1, -r) the denominator never vanishes on the closed
    annulus, and the quotient's only zero there is z = marker (simple).
    Unimodular on |z| = 1.
    """
    _require_annulus(ctx, z, "theta_quotient")
    num, _, _ = _eval(ctx, marker / z, 0)
    den, _, _ = _eval(ctx, marker * z, 0)
    return num / den


def fit_gauss_ratio(ctx: ThetaContext, z0: float, z1: float, z2: float):
    """Coefficients (a_R, b_R) with R = a_R slit_map(z0, .) + b_R, R(z1)=1, R(z2)=0."""
    q_at_1, q_at_2 = slit_map(ctx, z0, np.array([z1, z2], dtype=np.complex128))
    return _ratio_coefficients(complex(q_at_1), complex(q_at_2), z1, z2)


def _ratio_coefficients(q_at_1: complex, q_at_2: complex, z1: float, z2: float):
    """fit_gauss_ratio from q_at_1 = slit_map(z0, z1) and q_at_2 = slit_map(z0, z2)."""
    gap = q_at_1 - q_at_2
    if abs(gap) < 1e-12 * (abs(q_at_1) + abs(q_at_2) + 1.0):
        raise DegenerateConfigurationError(
            f"slit map takes equal values at z1={z1} and z2={z2}"
        )
    if max(abs(q_at_1.imag), abs(q_at_2.imag)) > 1e-10 * (1.0 + abs(gap)):
        raise DegenerateConfigurationError("slit map not real at real markers")
    a = 1.0 / gap.real
    b = -a * q_at_2.real
    return a, b


def gauss_ratio(moduli: CanonicalModuli, ctx: ThetaContext, z):
    """R(z) = a_R * slit_map(z0, z) + b_R; simple pole at z0."""
    return moduli.a_R * slit_map(ctx, moduli.z0, z) + moduli.b_R


def gauss_ratio_deriv(moduli: CanonicalModuli, ctx: ThetaContext, z):
    return moduli.a_R * slit_map_deriv(ctx, moduli.z0, z)


@pointwise
def gauss_square_log_deriv(moduli: CanonicalModuli, ctx: ThetaContext, z):
    """W'/W = R'/(R(1-R)) + (z1 q1(z) - z2 q2(z)) / z.

    The poles at z1 and z2 cancel between the two groups; the subtraction
    loses accuracy within ~1e-6 of those markers but is exact elsewhere.
    """
    R, Rp = gauss_ratio(moduli, ctx, z), gauss_ratio_deriv(moduli, ctx, z)
    q1v, q2v = slit_map(ctx, moduli.z1, z), slit_map(ctx, moduli.z2, z)
    return Rp / (R * (1.0 - R)) + (moduli.z1 * q1v - moduli.z2 * q2v) / z


# --- Gauss map ----------------------------------------------------------

_RING_STEPS = 4096


def gauss_square_winding(moduli: CanonicalModuli, ctx: ThetaContext) -> int:
    """Winding number of W around the core circle |z| = sqrt(r).

    Zero for valid moduli.  A plain walk of W over the circle; W is built
    from the closed form of :func:`gauss_map`, so the walk audits that form
    (zero- and pole-free on the core circle), not an independent route.
    """
    th = np.linspace(0.0, 2.0 * np.pi, _RING_STEPS + 1)
    vals = gauss_map_square(moduli, ctx, np.sqrt(moduli.r) * np.exp(1j * th))
    inc = np.angle(vals[1:] / vals[:-1])
    if np.abs(inc).max() > 2.0:
        raise RepresentationError("winding audit needs more steps")
    total = inc.sum() / (2.0 * np.pi)
    n = int(round(total))
    if abs(total - n) > 1e-6:
        raise RepresentationError(f"winding of W did not close up: {total}")
    return n


@lru_cache(maxsize=128)
def _surface_constants(moduli: CanonicalModuli, ctx: ThetaContext) -> tuple[float, float]:
    """(sqrt(C), K') of the theta-product forms of g and the shape factor.

    C = -theta1(z1/z0) theta1(z1 z0) / (theta1(z2/z0) theta1(z2 z0)) and
    K' = theta1(z2/z0) theta1(z2 z0) / (theta1(z2/z1) theta1(z2 z1)); both
    are positive for markers in the order -1 < z2 < z0 < z1 < -r.  The forms
    depend on the markers alone, so the other stored fields are checked
    against them first, each to 1e-8 (relative for c1 and c2): R(z1) = 1
    (as a_R (slit_map(z0, z1) - slit_map(z0, z2)) = 1) and
    c1 = slit_map(z1, z0); R(z2) = 0, c2 = slit_map(z2, z0) and s = -z2 c2;
    z1 z2 r^(2(m+2)) = 1.  RepresentationError names the first that fails.
    """
    z0, z1, z2 = moduli.z0, moduli.z1, moduli.z2
    q1, q2, c1, c2, _, _ = _marker_slits(ctx, z0, z1, z2)
    gap = moduli.a_R * (q1 - q2) - 1.0
    if not (abs(gap) <= 1e-8 and abs(moduli.c1 - c1) <= 1e-8 * abs(c1)):
        raise RepresentationError(
            f"W is not a constant times (theta1(z2 z)/theta1(z1 z))^2: a_R (slit_map(z0, z1) - "
            f"slit_map(z0, z2)) - 1 = {gap}, c1 = {moduli.c1} against slit_map(z1, z0) = {c1}"
        )
    r_at_z2 = moduli.a_R * q2 + moduli.b_R
    s_gap = moduli.s + z2 * moduli.c2
    if not (abs(r_at_z2) <= 1e-8 and abs(moduli.c2 - c2) <= 1e-8 * abs(c2) and abs(s_gap) <= 1e-8):
        raise RepresentationError(
            f"moduli do not fit the marker z2: R(z2) = {r_at_z2}, c2 = {moduli.c2} "
            f"against slit_map(z2, z0) = {c2}, s + z2 c2 = {s_gap}"
        )
    m_gap = z1 * z2 * moduli.r ** (2.0 * (moduli.m + 2.0)) - 1.0
    if not abs(m_gap) <= 1e-8:
        raise RepresentationError(f"moduli do not fit the exponent m: z1 z2 r^(2(m+2)) - 1 = {m_gap}")
    pts = np.array([z1 / z0, z1 * z0, z2 / z0, z2 * z0, z2 / z1, z2 * z1], dtype=np.complex128)
    t = _eval(ctx, pts, 0)[0].real
    return float(np.sqrt(-t[0] * t[1] / (t[2] * t[3]))), float(t[2] * t[3] / (t[4] * t[5]))


@pointwise
def gauss_map(moduli: CanonicalModuli, ctx: ThetaContext, z):
    """The hyperbolic Gauss map g = sqrt(C) theta1(z2 z) / (z theta1(z1 z)).

    Holomorphic and zero-free on the closed annulus, with g^2 z^2 equal to
    R/(1-R) * Q1/Q2.  That composite has double zeros at r^(2k)/z2 and
    double poles at r^(2k)/z1, all on the negative real axis outside the
    annulus; so does the squared theta quotient, and both gain (z1/z2)^2
    under z -> r^2 z.  Their ratio C is therefore constant, positive, and
    computed once per surface.  g is negative on (-1, -r).  Raises
    RepresentationError for moduli whose fields do not fit their markers.
    """
    _require_annulus(ctx, z, "gauss_map")
    scale, _ = _surface_constants(moduli, ctx)
    num, _, _ = _eval(ctx, moduli.z2 * z, 0)
    den, _, _ = _eval(ctx, moduli.z1 * z, 0)
    return scale * num / (z * den)


@pointwise
def gauss_map_square(moduli: CanonicalModuli, ctx: ThetaContext, z):
    """W(z) = R/(1-R) * Q1/Q2 = (z * gauss_map)^2.

    Zero- and pole-free on the closed annulus: the 0/0 of the raw quotients
    at z0, z1 and z2 does not arise in the theta-product form.
    """
    zg = z * gauss_map(moduli, ctx, z)
    return zg * zg


def _gauss_map_deriv(moduli: CanonicalModuli, ctx: ThetaContext, z, g):
    """g' = g (W'/(2W) - 1/z) at flat points z, from g at the same points:
    first_form's route, which loses digits within about 1e-6 of z1 and z2
    (see gauss_square_log_deriv)."""
    return g * (0.5 * gauss_square_log_deriv(moduli, ctx, z) - 1.0 / z)


@pointwise
def gauss_map_deriv(moduli: CanonicalModuli, ctx: ThetaContext, z):
    """g'(z) = g(z) * g'/g(z), with g'/g from the theta product form of g
    (see _gauss_log_deriv), which keeps its digits next to z1 and z2."""
    return gauss_map(moduli, ctx, z) * _gauss_log_deriv(moduli, ctx, z)


# --- shape factor, potential and Gauss-map gap --------------------------


def _gauss_log_deriv(moduli: CanonicalModuli, ctx: ThetaContext, z):
    """g'/g at the flat points z from one order-1 kernel call at each of
    z2 z and z1 z.

    The log-derivative of g = sqrt(C) theta1(z2 z) / (z theta1(z1 z)) is
    g'/g = (h(z2 z) - h(z1 z) - 1) / z with h = log_slope.  Its terms have
    no poles on the closed annulus, so unlike W'/W (gauss_square_log_deriv)
    it keeps its digits next to z1 and z2.
    """
    h2 = _eval(ctx, moduli.z2 * z, 1)[1]
    h1 = _eval(ctx, moduli.z1 * z, 1)[1]
    return (h2 - h1 - 1.0) / z


def _shape_factor(moduli: CanonicalModuli, ctx: ThetaContext, z):
    """Q1 z^m / (1-R) = -z^(m+1) theta1(z/z0) theta1(z0 z) / (z1 K' theta1(z1 z)^2).

    On flat arrays z, with the principal-branch z^m; its modulus is exp(2u).
    theta1(z/z0) is read as -(z0/z) theta1(z0/z), by theta1(1/w) = -w
    theta1(w), so the factor's arguments are z0/z and z0 z, those of the
    slit map at z0, and z1 z, that of g.  Regular at z1 and z2 and zero at
    the end z0.  Raises RepresentationError for
    moduli whose fields do not fit their markers.
    """
    _, k_prime = _surface_constants(moduli, ctx)
    a, b, c = (_eval(ctx, w, 0)[0] for w in (moduli.z0 / z, moduli.z0 * z, moduli.z1 * z))
    a = -(moduli.z0 / z) * a
    return -z * np.exp(moduli.m * np.log(z)) * a * b / (moduli.z1 * k_prime * c * c)


@lru_cache(maxsize=128)
def _series_constants(moduli: CanonicalModuli, ctx: ThetaContext):
    """Per-surface constants of :func:`_surface_series`: (pi/l, the unit
    factors a0, a1, a2 of E at z0 z, z1 z, z2 z, and the real coefficients
    of g, the shape factor, R and R'), after the checks of
    :func:`_surface_constants`."""
    sqrt_c, k_prime = _surface_constants(moduli, ctx)
    k = _modular_terms(ctx.r)[0]
    ell = np.pi / k
    l0, l1, l2 = (float(np.log(-x)) for x in (moduli.z0, moduli.z1, moduli.z2))
    units = tuple(complex(np.exp(-1j * k * x)) for x in (l0, l1, l2))
    g_coef = (float(np.log(sqrt_c)) + (l2 - l1) * ((l1 + l2) / (4.0 * ell) - 0.5), (l2 - l1) / (2.0 * ell) - 1.0)
    f_coef = (
        float(np.log(moduli.z0 / (moduli.z1 * k_prime))) + (l0 * l0 - l1 * l1) / (2.0 * ell) - (l0 - l1),
        moduli.m + 1.0 - l1 / ell,
    )
    r_coef = (moduli.b_R - moduli.a_R * (l0 / ell - 1.0) / moduli.z0, -moduli.a_R * k / moduli.z0)
    return k, units, g_coef, f_coef, r_coef


def _surface_series(moduli: CanonicalModuli, ctx: ThetaContext, z, order: int, who: str):
    """(R, shape factor, g) at order 1, (R, shape factor, g'/g, R') at order
    2, at the flat points z, from the complex modular series at the four
    theta arguments z0/z, z0 z, z1 z and z2 z.

    A point is evaluated at zeta = z, or conj(z) when Im z has its sign bit
    set, and conjugated back: every output is conjugate at conjugate points,
    bit for bit.  With the principal log z of zeta (Im in [0, pi]) the four
    arguments take the logs lv = log|z_j| + log z - i pi and
    log|z0| + i pi - log z, all with |Im lv| <= pi, so their series variables
    E = exp(i s (pi/l) lv), s = +-1 the sign with |E| <= 1 (see the module
    docstring of flatfront.theta and theta._series_sums), are E_j = a_j w
    and conj(a0) w for one w = exp((pi/l) (Im log z - pi) - i (pi/l) Re log z)
    per point: one log and one exp serve all four.  Where an argument's |E - 1| < 1/2, next to
    a zero of theta1 (the end z0 for z0/z; 1/z2 or r^2/z1, just off the
    annulus, for the others), E - 1 is recomputed by _near_zero_em1, so it
    keeps its relative precision.

    In the quotients of g = sqrt(C) theta1(z2 z) / (z theta1(z1 z)) and of the
    shape factor z^m z0 theta1(z0/z) theta1(z0 z) / (z1 K' theta1(z1 z)^2)
    the series' constant cancels and the exp(lv^2/(4l)) factors combine to
    exp(c + b log z) with real c and b, which takes in 1/z and z^m:

        g      = exp(c_g + b_g log z) D2 / D1,
        factor = exp(c_f + b_f log z) Din D0 / D1^2,
        R      = R_c + i kappa (rho_in - rho_0),
        g'/g   = (b_g - i (pi/l) (rho_2 - rho_1)) / z,
        R'     = -(a_R/z0) (pi/l)^2 (tau_in - tau_0) / z,

    with D, rho = N1/D and tau of theta._series_sums at each argument, while
    sqrt(C) and K' still come from the product (_surface_constants).  Every
    argument is guarded against the zeros of theta1; the operations are
    elementwise and run over chunks of theta._CHUNK points, so a point gets
    the same bits in any batch.
    """
    _require_annulus(ctx, z, who)
    k, (a0, a1, a2), (cg, bg), (cf, bf), (r_c, kappa) = _series_constants(moduli, ctx)
    z0 = moduli.z0
    outs = [np.empty(z.shape, dtype=np.complex128) for _ in range(order + 2)]
    for lo in range(0, z.size, _CHUNK):
        part = slice(lo, lo + _CHUNK)
        zc = z[part]
        lower = np.signbit(zc.imag)
        mirrored = lower.any()
        zeta = np.where(lower, np.conj(zc), zc) if mirrored else zc
        lz = np.log(zeta)
        w = np.empty(zc.shape, dtype=np.complex128)
        w.real = k * (lz.imag - np.pi)
        w.imag = -k * lz.real
        w = np.exp(w)
        sums = []
        # (unit factor of E, sign s of E = exp(2isy), series order, marker,
        # whether the argument is marker/z)
        for unit, s, deg, marker, inverse in (
            (np.conj(a0), 1.0, order, z0, True),
            (a0, -1.0, order, z0, False),
            (a1, -1.0, order - 1, moduli.z1, False),
            (a2, -1.0, order - 1, moduli.z2, False),
        ):
            E = unit * w
            em1 = E - 1.0
            near = np.abs(em1) < 0.5
            if near.any():
                em1[near] = _near_zero_em1(ctx, k, s, marker, zeta[near], inverse)
                E[near] = em1[near] + 1.0
            _guard_series_zeros(ctx, em1, lambda m: marker / zc[m] if inverse else marker * zc[m])
            sums.append(_series_sums(ctx, E, em1, deg))
        (d_in, rho_in, tau_in), (d_0, rho_0, tau_0), (d_1, rho_1, _), (d_2, rho_2, _) = sums
        vals = [
            r_c + 1j * kappa * (rho_in - rho_0),
            np.exp(cf + bf * lz) * d_in * d_0 / (d_1 * d_1),
        ]
        if order < 2:
            vals.append(np.exp(cg + bg * lz) * d_2 / d_1)
        else:
            vals.append((bg - 1j * k * (rho_2 - rho_1)) / zeta)
            vals.append(-moduli.a_R * k * k * (tau_in - tau_0) / (z0 * zeta))
        for out, val in zip(outs, vals):
            out[part] = np.where(lower, np.conj(val), val) if mirrored else val
    return outs


def _near_zero_em1(ctx: ThetaContext, k: float, s: float, marker: float, zeta, inverse: bool):
    """E - 1 = expm1(i s (pi/l) log(v/v0)) at the argument v = marker/zeta
    (inverse) or marker zeta, with v0 the zero of theta1 nearest v: E is
    periodic in log v with period 2l, so the log may be taken from the zero.
    With d = v/v0 - 1, exact in the numerator z0 - zeta for the argument
    z0/zeta, the log is log1p-accurate: E - 1 keeps the relative precision
    of d, where E - 1 from E alone would cancel."""
    if inverse:
        d = (marker - zeta) / zeta
    else:
        v = marker * zeta
        d = v / ctx.nearest_zero(v) - 1.0
    # i s k log(1 + d), log(1 + d) = log|1 + d| + i arg(1 + d)
    x = np.empty(d.shape, dtype=np.complex128)
    x.real = -s * k * np.arctan2(d.imag, 1.0 + d.real)
    x.imag = 0.5 * s * k * np.log1p(d.real * (2.0 + d.real) + d.imag * d.imag)
    return _expm1(x)


@pointwise
def potential(moduli: CanonicalModuli, ctx: ThetaContext, z):
    """Harmonic potential u with exp(2u) = |Q1(z) z^m / (1 - R(z))|.

    Blows up logarithmically at the end z0 (where R has its pole); the
    evaluation there raises the underlying pole error.
    """
    _require_annulus(ctx, z, "potential")
    q1 = np.abs(theta_quotient(ctx, moduli.z1, z))
    R = gauss_ratio(moduli, ctx, z)
    return 0.5 * (np.log(q1) + moduli.m * np.log(np.abs(z)) - np.log(np.abs(1.0 - R)))


@pointwise
def inv_gauss_gap(moduli: CanonicalModuli, ctx: ThetaContext, z):
    """F = R / g = 1 / (g - g*); simple pole at z0, zero at z2."""
    return gauss_ratio(moduli, ctx, z) / gauss_map(moduli, ctx, z)


@pointwise
def second_gauss_map(moduli: CanonicalModuli, ctx: ThetaContext, z):
    """g* = g (R - 1) / R; the tagged value AT_INFINITY where R = 0 (at z2)."""
    g = gauss_map(moduli, ctx, z)
    R = gauss_ratio(moduli, ctx, z)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = g * (R - 1.0) / R
    return np.where(np.abs(R) < 1e-300, AT_INFINITY, out)
