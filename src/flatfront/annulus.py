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
  form g = sqrt(C) theta1(z2 z) / (z theta1(z1 z)) with one constant C > 0
  per surface,
* ``potential`` - the harmonic function u with exp(2u) = |Q1 z^m / (1-R)|,
* ``inv_gauss_gap`` / ``second_gauss_map`` - F = R/g and g* = g - 1/F.

W is zero- and pole-free on the closed annulus: every singularity of the
building blocks cancels pairwise.  The evaluators below use fused forms so
the cancellation happens analytically, not by dividing huge by huge.

Off the annulus, once R(z1) = 1 and R(z2) = 0, W has double zeros at
r^(2k)/z2 and double poles at r^(2k)/z1, on the negative real axis.  The
squared quotient (theta1(z2 z) / theta1(z1 z))^2 has the same divisor, and
both gain the factor (z1/z2)^2 under z -> r^2 z, so their ratio is an
elliptic function without poles: a constant.  That fixes the square root of
W with no branch to track.  W keeps its own fused evaluation, which makes
g^2 z^2 = W a cross-check between two routes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from functools import lru_cache

import numpy as np

from .theta import ThetaContext, _eval, log_slope, log_slope_deriv, pointwise

ANNULUS_SLACK = 1e-12

# Tagged value for the second Gauss map at points where F vanishes.
AT_INFINITY = complex(np.inf, np.inf)


def is_at_infinity(w) -> bool:
    return bool(np.isinf(np.real(w)) or np.isinf(np.imag(w)))


class DegenerateConfigurationError(ValueError):
    """Marker configuration that does not pin down the ratio map."""


class RepresentationError(ValueError):
    """W has no single-valued square root of the closed form of gauss_map."""


@dataclass(frozen=True)
class CanonicalModuli:
    """Solved marker configuration for a two-singularity surface.

    Orderings: -1 < z2 < z0 < z1 < -r, with s in (-1, 0) and m in (-3, -2).
    c_height is the height |z1| r^(m+1) of the inner singular point.
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


@lru_cache(maxsize=64)
def _context_for(r: float) -> ThetaContext:
    return ThetaContext.create(r)


def _require_annulus(ctx: ThetaContext, flat, who: str):
    a = np.abs(flat)
    if (a < ctx.r - ANNULUS_SLACK).any() or (a > 1.0 + ANNULUS_SLACK).any():
        raise ValueError(f"{who}: argument outside the closed annulus [{ctx.r}, 1]")


@pointwise
def slit_map(ctx: ThetaContext, marker: float, z):
    """Meromorphic map with one simple pole (residue 1) at ``marker``.

    Maps the annulus onto the plane minus two horizontal slits; real on
    |z| = 1 and |z| = r.  Equals -(log_slope(marker/z) + log_slope(marker z))
    / marker, which doubles as a cross-check route.
    """
    _require_annulus(ctx, z, "slit_map")
    return -(log_slope(ctx, marker / z) + log_slope(ctx, marker * z)) / marker


@pointwise
def slit_map_deriv(ctx: ThetaContext, marker: float, z):
    """d slit_map / dz."""
    _require_annulus(ctx, z, "slit_map_deriv")
    return log_slope_deriv(ctx, marker / z) / (z * z) - log_slope_deriv(ctx, marker * z)


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


@lru_cache(maxsize=128)
def _marker_ratio_derivs(moduli: CanonicalModuli, ctx: ThetaContext):
    """R'(z1) and R'(z2) as floats (cached; both are real and nonzero)."""
    d1 = gauss_ratio_deriv(moduli, ctx, complex(moduli.z1))
    d2 = gauss_ratio_deriv(moduli, ctx, complex(moduli.z2))
    return d1.real, d2.real


def _pole_times_quotient(ctx: ThetaContext, marker: float, shift: float, flat):
    """(slit_map(marker, z) - shift) * theta_quotient(marker, z), fused.

    The simple pole of the slit map at ``marker`` and the simple zero of the
    quotient cancel; this form never divides by theta1(marker / z), so it is
    regular on the whole closed annulus (the only divisions are by
    theta1(marker z), which cannot vanish there, and by z).  Returns the
    fused value together with the plain quotient theta1(marker/z) /
    theta1(marker z), which callers reuse.
    """
    w1 = marker / flat
    w2 = marker * flat
    t1, d1, _ = _eval(ctx, w1, 1)
    t2, d2, _ = _eval(ctx, w2, 1)
    quot = t1 / t2
    return -d1 / (flat * t2) - (flat * d2 / t2 + shift) * quot, quot


@pointwise
def gauss_map_square(moduli: CanonicalModuli, ctx: ThetaContext, z):
    """W(z) = R/(1-R) * Q1/Q2 = (z * gauss_map)^2, branch-free.

    Zero- and pole-free on the closed annulus.  Two fused forms cover the
    cancellations: the default is regular at z0 and z1; within 1e-3 of z2 a
    second form regular at z1 and z2 takes over.
    """
    _require_annulus(ctx, z, "gauss_map_square")
    rp1, rp2 = _marker_ratio_derivs(moduli, ctx)

    fused1, q1_quot = _pole_times_quotient(ctx, moduli.z1, moduli.c1, z)
    num2, _, _ = _eval(ctx, moduli.z2 / z, 0)
    den2, _, _ = _eval(ctx, moduli.z2 * z, 0)
    # num2 vanishes at z2 itself; those entries are overwritten below.
    with np.errstate(divide="ignore", invalid="ignore"):
        out = -(q1_quot + fused1 / rp1) * (den2 / num2)

    near2 = np.abs(z - moduli.z2) < min(1e-3, 0.25 * (moduli.z0 - moduli.z2))
    if near2.any():
        fused2, _ = _pole_times_quotient(ctx, moduli.z2, moduli.c2, z[near2])
        out[near2] = -(rp2 / rp1) * fused1[near2] / fused2
    return out


@pointwise
def gauss_square_log_deriv(moduli: CanonicalModuli, ctx: ThetaContext, z):
    """W'/W = R'/(R(1-R)) + (z1 q1(z) - z2 q2(z)) / z.

    The poles at z1 and z2 cancel between the two groups; the subtraction
    loses accuracy within ~1e-6 of those markers but is exact elsewhere.
    """
    R = gauss_ratio(moduli, ctx, z)
    Rp = gauss_ratio_deriv(moduli, ctx, z)
    q1v = slit_map(ctx, moduli.z1, z)
    q2v = slit_map(ctx, moduli.z2, z)
    return Rp / (R * (1.0 - R)) + (moduli.z1 * q1v - moduli.z2 * q2v) / z


# --- Gauss map ----------------------------------------------------------

_RING_STEPS = 4096


def gauss_square_winding(moduli: CanonicalModuli, ctx: ThetaContext) -> int:
    """Winding number of W around the core circle |z| = sqrt(r).

    Zero for valid moduli, where W has the single-valued square root of
    :func:`gauss_map`.  A plain walk of W over the circle; independent of
    the closed form, so it serves as a cross-check.
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
def _gauss_scale(moduli: CanonicalModuli, ctx: ThetaContext) -> float:
    """sqrt(C) for the constant C = W(z) (theta1(z1 z) / theta1(z2 z))^2.

    Read at +sqrt(r), the core point farthest from the markers.  Moduli that
    do not satisfy R(z1) = 1, R(z2) = 0 give a W with another divisor, and
    the ratio is then not constant: RepresentationError unless C is real,
    positive and matches its value at -sqrt(r) to 1e-8 relative.
    """
    core = np.sqrt(moduli.r) * np.array([1.0, -1.0], dtype=np.complex128)
    quot = _eval(ctx, moduli.z2 * core, 0)[0] / _eval(ctx, moduli.z1 * core, 0)[0]
    c = gauss_map_square(moduli, ctx, core) / (quot * quot)
    if not (c[0].real > 0.0 and np.abs(c - c[0].real).max() <= 1e-8 * c[0].real):
        raise RepresentationError(
            f"W is not a constant times (theta1(z2 z)/theta1(z1 z))^2: C = {c[0]} at +sqrt(r), "
            f"{c[1]} at -sqrt(r)"
        )
    return float(np.sqrt(c[0].real))


@pointwise
def gauss_map(moduli: CanonicalModuli, ctx: ThetaContext, z):
    """The hyperbolic Gauss map g = sqrt(C) theta1(z2 z) / (z theta1(z1 z)).

    Holomorphic and zero-free on the closed annulus, with g^2 z^2 = W.  W has
    double zeros at r^(2k)/z2 and double poles at r^(2k)/z1, all on the
    negative real axis outside the annulus; so does the squared theta
    quotient, and both gain (z1/z2)^2 under z -> r^2 z.  Their ratio C is
    therefore constant, positive for valid moduli, and computed once per
    surface.  g is negative on (-1, -r).  Raises RepresentationError when
    the moduli fail that check.
    """
    _require_annulus(ctx, z, "gauss_map")
    scale = _gauss_scale(moduli, ctx)
    num, _, _ = _eval(ctx, moduli.z2 * z, 0)
    den, _, _ = _eval(ctx, moduli.z1 * z, 0)
    return scale * num / (z * den)


@pointwise
def gauss_map_deriv(moduli: CanonicalModuli, ctx: ThetaContext, z, *, g_val=None):
    """g'(z) = g(z) * (W'/(2W) - 1/z); g_val, when given, is g at the same points."""
    if g_val is None:
        g_val = gauss_map(moduli, ctx, z)
    return g_val * (0.5 * gauss_square_log_deriv(moduli, ctx, z) - 1.0 / z)


# --- potential and Gauss-map gap ----------------------------------------


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
def inv_gauss_gap(moduli: CanonicalModuli, ctx: ThetaContext, z, *, g_val=None):
    """F = R / g = 1 / (g - g*); simple pole at z0, zero at z2."""
    if g_val is None:
        g_val = gauss_map(moduli, ctx, z)
    return gauss_ratio(moduli, ctx, z) / g_val


@pointwise
def second_gauss_map(moduli: CanonicalModuli, ctx: ThetaContext, z, *, g_val=None):
    """g* = g (R - 1) / R; the tagged value AT_INFINITY where R = 0 (at z2)."""
    if g_val is None:
        g_val = gauss_map(moduli, ctx, z)
    R = gauss_ratio(moduli, ctx, z)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = g_val * (R - 1.0) / R
    return np.where(np.abs(R) < 1e-300, AT_INFINITY, out)
