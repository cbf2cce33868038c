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
* ``gauss_map`` - g = sqrt(W) / z for W = R/(1-R) * Q1/Q2; the square-root
  branch is that of a continued logarithm of W, read from one cached walk
  of the core circle |z| = sqrt(r) per surface and carried to each point
  along a radial leg,
* ``potential`` - the harmonic function u with exp(2u) = |Q1 z^m / (1-R)|,
* ``inv_gauss_gap`` / ``second_gauss_map`` - F = R/g and g* = g - 1/F.

W is zero- and pole-free on the closed annulus: every singularity of the
building blocks cancels pairwise.  The evaluators below use fused forms so
the cancellation happens analytically, not by dividing huge by huge.
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
    """The square root of W cannot be tracked to a single-valued branch."""


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


# --- square-root branch ------------------------------------------------

_RING_STEPS = 4096
_BRANCH_CHUNK = 4096
_K_RAD = 80


@lru_cache(maxsize=128)
def _core_ring(moduli: CanonicalModuli, ctx: ThetaContext):
    """The continued log of W on the core circle |z| = sqrt(r), and W's winding number.

    The samples sqrt(r) exp(i (pi - 2 pi j / N)), j = 0..N, walk the circle
    once clockwise from -sqrt(r), where the log starts on its principal
    value.  Returns (log samples, winding number).
    """
    th = np.pi - np.linspace(0.0, 2.0 * np.pi, _RING_STEPS + 1)
    vals = gauss_map_square(moduli, ctx, np.sqrt(moduli.r) * np.exp(1j * th))
    inc = np.log(vals[1:] / vals[:-1])
    if np.abs(inc.imag).max() > 2.0:
        raise RepresentationError("winding audit needs more steps")
    logs = np.log(vals[0]) + np.concatenate(([0.0], np.cumsum(inc)))
    total = (logs[0] - logs[-1]).imag / (2.0 * np.pi)
    n = int(round(total))
    if abs(total - n) > 1e-6:
        raise RepresentationError(f"winding of W did not close up: {total}")
    logs.flags.writeable = False
    return logs, n


def gauss_square_winding(moduli: CanonicalModuli, ctx: ThetaContext) -> int:
    """Winding number of W around the core circle |z| = sqrt(r)."""
    return _core_ring(moduli, ctx)[1]


def _radial_log(moduli, ctx, th, logm):
    """W at sqrt(r) exp(i th) and the continued-log increment of W from there
    along the ray to exp(logm + i th).

    Columns whose phase jump nears the wrap limit are retried on grids 8x and
    64x finer, a slice of columns at a time, so that no array outgrows the
    base chunk.
    """
    lr = np.log(np.sqrt(moduli.r))

    def path(t, cols):
        lm = lr + np.multiply.outer(t, logm[cols] - lr)
        return np.exp(lm + 1j * th[cols][None, :])

    vals = gauss_map_square(moduli, ctx, path(np.linspace(0.0, 1.0, _K_RAD + 1), slice(None)))
    inc = np.log(vals[1:] / vals[:-1])
    # cumsum, unlike sum, adds the rows in order for any batch width
    total = np.cumsum(inc, axis=0)[-1]
    bad = np.flatnonzero(np.abs(inc.imag).max(axis=0) > 2.0)
    for factor in (8, 64):
        if not bad.size:
            break
        tf = np.linspace(0.0, 1.0, factor * _K_RAD + 1)
        width = _BRANCH_CHUNK // factor
        failed = []
        for start in range(0, bad.size, width):
            cols = bad[start : start + width]
            vf = gauss_map_square(moduli, ctx, path(tf, cols))
            incf = np.log(vf[1:] / vf[:-1])
            ok = np.abs(incf.imag).max(axis=0) <= 2.0
            total[cols[ok]] = np.cumsum(incf[:, ok], axis=0)[-1]
            failed.append(cols[~ok])
        bad = np.concatenate(failed)
    if bad.size:
        raise RepresentationError("branch tracking failed along evaluation path")
    return vals[0], total


@pointwise
def gauss_map(moduli: CanonicalModuli, ctx: ThetaContext, z):
    """The hyperbolic Gauss map g = sqrt(W) / z on the closed annulus.

    Holomorphic and zero-free.  The square-root branch is that of the
    continued log of W based at -sqrt(r), taken along one path per point:
    the core circle |z| = sqrt(r) clockwise from angle pi to arg z, then
    the ray to |z|.  The core-circle leg is read from one cached walk per
    surface (the winding audit's), at the sample nearest arg z plus one
    step; only the radial leg is evaluated per point.  W has winding 0
    around the core for valid moduli, so the result does not depend on
    the wrap convention at arg = pi.  Raises RepresentationError when the
    winding audit says no single-valued branch exists.
    """
    _require_annulus(ctx, z, "gauss_map")
    ring_log, winding = _core_ring(moduli, ctx)
    if winding != 0:
        raise RepresentationError(f"W winds {winding} times around the core; branch undefined")
    th = np.angle(z)
    logm = np.log(np.abs(z))
    # a NaN point reads sample 0 and stays NaN through its radial leg
    near = np.rint((np.pi - np.nan_to_num(th)) * (_RING_STEPS / (2.0 * np.pi))).astype(np.intp)
    L = np.empty(z.shape, dtype=np.complex128)
    for start in range(0, z.size, _BRANCH_CHUNK):
        sl = slice(start, start + _BRANCH_CHUNK)
        w0, radial = _radial_log(moduli, ctx, th[sl], logm[sl])
        step = np.log(w0 / np.exp(ring_log[near[sl]]))
        if np.abs(step.imag).max() > 2.0:
            raise RepresentationError("branch tracking failed along evaluation path")
        L[sl] = ring_log[near[sl]] + step + radial
    return np.exp(0.5 * L) / z


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
