"""Conformal data on the annulus r < |z| < 1 built from theta products.

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
* ``potential`` - the harmonic function u with exp(2u) = |Q1 z^m / (1-R)|,
  from the raw quotients (an independent route to the shape factor),
* ``inv_gauss_gap`` / ``second_gauss_map`` - F = R/g and g* = g - 1/F.

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
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from functools import lru_cache

import numpy as np

from .theta import ThetaContext, _eval, _log_slopes, pointwise

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


def _slit_parts(ctx: ThetaContext, marker: float, z, order: int, who: str = "slit_map"):
    """(slit_map, slit_map_deriv, theta1(marker z)) at the flat points z from
    one kernel call per argument, marker/z and marker z; the derivative is
    None unless order is 2.  theta1 and its first derivative do not depend
    on the order, so each value has the bits of its own evaluator."""
    _require_annulus(ctx, z, who)
    h_in, hp_in, _ = _log_slopes(ctx, marker / z, order)
    h_out, hp_out, theta_out = _log_slopes(ctx, marker * z, order)
    q = -(h_in + h_out) / marker
    qp = hp_in / (z * z) - hp_out if order >= 2 else None
    return q, qp, theta_out


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
    q_at_1 = slit_map(ctx, z0, complex(z1))
    q_at_2 = slit_map(ctx, z0, complex(z2))
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


def _square_log_deriv(moduli: CanonicalModuli, z, R, Rp, q1v, q2v):
    """W'/W from R, R' and the slit maps q1, q2 at the flat points z."""
    return Rp / (R * (1.0 - R)) + (moduli.z1 * q1v - moduli.z2 * q2v) / z


@pointwise
def gauss_square_log_deriv(moduli: CanonicalModuli, ctx: ThetaContext, z):
    """W'/W = R'/(R(1-R)) + (z1 q1(z) - z2 q2(z)) / z.

    The poles at z1 and z2 cancel between the two groups; the subtraction
    loses accuracy within ~1e-6 of those markers but is exact elsewhere.
    """
    R, Rp = gauss_ratio(moduli, ctx, z), gauss_ratio_deriv(moduli, ctx, z)
    q1v, q2v = slit_map(ctx, moduli.z1, z), slit_map(ctx, moduli.z2, z)
    return _square_log_deriv(moduli, z, R, Rp, q1v, q2v)


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
    q1, q2 = slit_map(ctx, z0, np.array([z1, z2], dtype=np.complex128))
    c1 = slit_map(ctx, z1, complex(z0)).real
    c2 = slit_map(ctx, z2, complex(z0)).real
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
    t, _, _ = _eval(ctx, np.array([z1 / z0, z1 * z0, z2 / z0, z2 * z0, z2 / z1, z2 * z1]), 0)
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
    return _gauss_map_parts(moduli, ctx, z)[0]


def _gauss_map_parts(moduli: CanonicalModuli, ctx: ThetaContext, z):
    """(gauss_map, theta1(z1 z)) at the flat points z."""
    _require_annulus(ctx, z, "gauss_map")
    scale, _ = _surface_constants(moduli, ctx)
    num, _, _ = _eval(ctx, moduli.z2 * z, 0)
    den, _, _ = _eval(ctx, moduli.z1 * z, 0)
    return scale * num / (z * den), den


@pointwise
def gauss_map_square(moduli: CanonicalModuli, ctx: ThetaContext, z):
    """W(z) = R/(1-R) * Q1/Q2 = (z * gauss_map)^2.

    Zero- and pole-free on the closed annulus: the 0/0 of the raw quotients
    at z0, z1 and z2 does not arise in the theta-product form.
    """
    zg = z * gauss_map(moduli, ctx, z)
    return zg * zg


def _gauss_map_deriv(moduli: CanonicalModuli, ctx: ThetaContext, z, g):
    """g' at flat points z, from g at the same points."""
    return g * (0.5 * gauss_square_log_deriv(moduli, ctx, z) - 1.0 / z)


@pointwise
def gauss_map_deriv(moduli: CanonicalModuli, ctx: ThetaContext, z):
    """g'(z) = g(z) * (W'/(2W) - 1/z)."""
    return _gauss_map_deriv(moduli, ctx, z, gauss_map(moduli, ctx, z))


# --- shape factor, potential and Gauss-map gap --------------------------


def _shape_factor(moduli: CanonicalModuli, ctx: ThetaContext, z, b=None, c=None):
    """Q1 z^m / (1-R) = -z^(m+1) theta1(z/z0) theta1(z z0) / (z1 K' theta1(z z1)^2).

    On flat arrays z, with the principal-branch z^m; its modulus is exp(2u).
    b and c, when given, are theta1(z z0) and theta1(z z1) at the same
    points.  Regular at z1 and z2 and zero at the end z0.  Raises
    RepresentationError for moduli whose fields do not fit their markers.
    """
    _, k_prime = _surface_constants(moduli, ctx)
    a, _, _ = _eval(ctx, z / moduli.z0, 0)
    b = _eval(ctx, z * moduli.z0, 0)[0] if b is None else b
    c = _eval(ctx, z * moduli.z1, 0)[0] if c is None else c
    return -z * np.exp(moduli.m * np.log(z)) * a * b / (moduli.z1 * k_prime * c * c)


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
