"""Immersions into the half-space model of hyperbolic 3-space.

The flat front determined by solved annulus moduli is evaluated as
psi = (horizontal, height) with height > 0, from the Weierstrass-style data
(g, g*, e^2u) built in the annulus layer:

    psi3        = e^2u / (1 + e^4u |F|^2),        F = 1/(g - g*) = R/g,
    psi1 + i psi2 = g - psi3 e^2u conj(F).

Both boundary circles collapse to cone points, (0,0,1) for |z| = 1 and
(0,0,c_height) for |z| = r; the puncture z0 is an ideal end where psi tends
to (g(z0), 0) on the boundary at infinity.

Also here: the first fundamental form and its conformal lower bound, the
shape ratio p with |p| = 1 exactly on the singular circles, a finite
difference Gauss curvature (Brioschi) used to certify intrinsic flatness,
the Klein ball change of model, and the closed-form rotational family used
as an independent cross-check of the generic evaluator.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from functools import lru_cache

import numpy as np

from .annulus import (
    CanonicalModuli,
    DegenerateConfigurationError,
    gauss_map,
    gauss_map_deriv,
    gauss_map_square,
    gauss_ratio,
    gauss_ratio_deriv,
    gauss_square_log_deriv,
    theta_quotient,
)
from .theta import ThetaContext, pointwise

END_TOL = 1e-10


@dataclass(eq=False)
class HalfSpacePoint:
    """Point(s) of the upper half-space model: horizontal complex, height > 0.

    Height 0 marks the ideal-end limit, not a point of hyperbolic space.
    """

    horizontal: np.ndarray | complex
    height: np.ndarray | float


@dataclass(eq=False)
class MetricSample:
    """First fundamental form coefficients and the conformal lower bound.

    ds^2 = E dx^2 + 2F dx dy + G dy^2; lambda_sq is the conformal factor of
    the comparison metric, with E G - F^2 = lambda_sq^2 identically.
    """

    E: np.ndarray | float
    F: np.ndarray | float
    G: np.ndarray | float
    lambda_sq: np.ndarray | float


def _e2u_fused(moduli, ctx, flat, R):
    """exp(2u) = |Q1 z^m / (1 - R)|, with the 0/0 at z1 evaluated fused.

    Near z1 both Q1 and 1 - R have simple zeros; there the equivalent form
    |W Q2 z^m / R| (regular at z1) takes over.
    """
    base = np.abs(theta_quotient(ctx, moduli.z1, flat)) * np.abs(flat) ** moduli.m
    with np.errstate(divide="ignore", invalid="ignore"):
        out = base / np.abs(1.0 - R)
    near1 = np.abs(flat - moduli.z1) < 1e-6
    if near1.any():
        sub = flat[near1]
        W = gauss_map_square(moduli, ctx, sub)
        q2 = theta_quotient(ctx, moduli.z2, sub)
        out[near1] = (
            np.abs(W) * np.abs(q2) * np.abs(sub) ** moduli.m / np.abs(R[near1])
        )
    return out


@lru_cache(maxsize=128)
def end_direction(moduli: CanonicalModuli, ctx: ThetaContext) -> complex:
    """Horizontal limit g(z0) of the ideal end."""
    return gauss_map(moduli, ctx, moduli.z0)


@pointwise
def immerse(moduli: CanonicalModuli, ctx: ThetaContext, z, end_tol: float = END_TOL):
    """Evaluate the flat front at annulus points.

    Each field of the result has z's shape, or is a Python scalar for a
    scalar z.  Points within end_tol of the end z0 come back as the ideal
    limit (g(z0), 0); everything else is an interior point with height > 0.
    """
    near_end = np.abs(z - moduli.z0) < end_tol
    work = z.copy()
    if near_end.any():
        work[near_end] = 0.5 * (moduli.z0 + moduli.z1)

    g = gauss_map(moduli, ctx, work)
    R = gauss_ratio(moduli, ctx, work)
    e2 = _e2u_fused(moduli, ctx, work, R)
    F = R / g
    psi3 = e2 / (1.0 + e2 * e2 * np.abs(F) ** 2)
    horiz = g - psi3 * e2 * np.conj(F)

    if near_end.any():
        horiz[near_end] = end_direction(moduli, ctx)
        psi3[near_end] = 0.0
    return HalfSpacePoint(horiz, psi3)


@pointwise
def immerse_from_gauss_data(g, g_star, xi_abs):
    """The same evaluation from raw data (g, g*, |xi|), with e^2u = |xi|^2.

    The three arguments share g's shape.  An infinite g* (the AT_INFINITY
    sentinel) means F = 0.  This route shares no annulus code with immerse,
    which makes the two mutually checkable.
    """
    g_star = np.asarray(g_star, dtype=np.complex128).reshape(-1)
    e2 = np.asarray(xi_abs, dtype=float).reshape(-1) ** 2
    gap = g - g_star
    with np.errstate(divide="ignore", invalid="ignore"):
        F = np.where(np.isinf(g_star.real) | np.isinf(g_star.imag), 0.0, 1.0 / gap)
    psi3 = e2 / (1.0 + e2 * e2 * np.abs(F) ** 2)
    horiz = g - psi3 * e2 * np.conj(F)
    return HalfSpacePoint(horiz, psi3)


def hyperbolic_distance(a: HalfSpacePoint, b: HalfSpacePoint):
    """Distance in the half-space model (the invariant metric).

    arccosh(1 + (|horizontal gap|^2 + height gap^2) / (2 h_a h_b)); requires
    strictly positive heights.
    """
    ha = np.asarray(a.height, dtype=float)
    hb = np.asarray(b.height, dtype=float)
    if (ha <= 0).any() or (hb <= 0).any():
        raise ValueError("hyperbolic_distance: heights must be positive")
    gap2 = np.abs(np.asarray(a.horizontal) - np.asarray(b.horizontal)) ** 2 + (ha - hb) ** 2
    out = np.arccosh(1.0 + gap2 / (2.0 * ha * hb))
    return float(out) if out.ndim == 0 else out


def klein_map(point: HalfSpacePoint) -> np.ndarray:
    """Half-space to Klein ball: y -> (2 y1, 2 y2, |y|^2 - 1) / (|y|^2 + 1).

    Stacks the result in a final axis of length 3.  Ideal points (height 0)
    land on the unit sphere.
    """
    horiz = np.asarray(point.horizontal, dtype=np.complex128)
    h = np.asarray(point.height, dtype=float)
    if (h < 0).any():
        raise ValueError("klein_map: negative height")
    n2 = np.abs(horiz) ** 2 + h * h
    den = n2 + 1.0
    return np.stack([2.0 * horiz.real / den, 2.0 * horiz.imag / den, (n2 - 1.0) / den], axis=-1)


# --- first fundamental form ---------------------------------------------


def _metric_from(e2, w_hopf, gp):
    """Assemble MetricSample from e^2u, the form coefficient, and g'."""
    A = e2 * e2 * w_hopf
    B = -np.conj(gp)
    S, D = A + B, A - B
    inv = 1.0 / (e2 * e2)
    E = np.abs(S) ** 2 * inv
    Fm = (S * np.conj(D)).imag * inv
    G = np.abs(D) ** 2 * inv
    lam2 = np.abs(gp) ** 2 * inv - e2 * e2 * np.abs(w_hopf) ** 2
    return E, Fm, G, lam2


@pointwise
def first_form(moduli: CanonicalModuli, ctx: ThetaContext, z, *, g_val=None):
    """First fundamental form of the front at interior points.

    Each field has z's shape (a Python float for a scalar z); g_val, when
    given, is g at the same points.  Undefined at the end z0 itself (the
    conformal factor blows up there).
    """
    g = gauss_map(moduli, ctx, z) if g_val is None else g_val
    gp = gauss_map_deriv(moduli, ctx, z, g_val=g)
    R = gauss_ratio(moduli, ctx, z)
    Rp = gauss_ratio_deriv(moduli, ctx, z)
    e2 = _e2u_fused(moduli, ctx, z, R)
    F = R / g
    Fp = Rp / g - R * gp / (g * g)
    w_hopf = Fp + F * F * gp
    return MetricSample(*_metric_from(e2, w_hopf, gp))


@pointwise
def shape_ratio(moduli: CanonicalModuli, ctx: ThetaContext, z):
    """The ratio p of the holomorphic form coefficients, branch-free.

    |p| equals 1 exactly on both singular circles and stays below 1 in the
    interior; |p| also equals e^4u |w_hopf / g'|.  Evaluation avoids the
    square-root branch of g by using only g'/g; the principal-branch power
    z^m makes the phase of p (not its modulus) jump across arg z = pi.
    Inaccurate within ~1e-6 of the markers, where the fused pieces cancel.
    """
    R = gauss_ratio(moduli, ctx, z)
    Rp = gauss_ratio_deriv(moduli, ctx, z)
    W = gauss_map_square(moduli, ctx, z)
    g_log = 0.5 * gauss_square_log_deriv(moduli, ctx, z) - 1.0 / z
    zm = np.exp(moduli.m * np.log(z))
    factor = theta_quotient(ctx, moduli.z1, z) * zm / (1.0 - R)
    near1 = np.abs(z - moduli.z1) < 1e-6
    if near1.any():
        sub = z[near1]
        factor[near1] = (
            W[near1] * theta_quotient(ctx, moduli.z2, sub) * zm[near1] / R[near1]
        )
    return factor * factor * z * z * (Rp / g_log + R * (R - 1.0)) / W


def brioschi_curvature(E, F, G, hu, hv) -> float:
    """Gauss curvature from 3x3 stencils of metric coefficients.

    E, F, G are arrays indexed [j, i] = value at (u0 + (i-1) hu,
    v0 + (j-1) hv); derivatives are central differences at the center.
    """
    E = np.asarray(E, dtype=float)
    F = np.asarray(F, dtype=float)
    G = np.asarray(G, dtype=float)
    if E.shape != (3, 3) or F.shape != (3, 3) or G.shape != (3, 3):
        raise ValueError("brioschi_curvature expects 3x3 stencils")
    Eu = (E[1, 2] - E[1, 0]) / (2 * hu)
    Ev = (E[2, 1] - E[0, 1]) / (2 * hv)
    Gu = (G[1, 2] - G[1, 0]) / (2 * hu)
    Gv = (G[2, 1] - G[0, 1]) / (2 * hv)
    Fu = (F[1, 2] - F[1, 0]) / (2 * hu)
    Fv = (F[2, 1] - F[0, 1]) / (2 * hv)
    Evv = (E[2, 1] - 2 * E[1, 1] + E[0, 1]) / (hv * hv)
    Guu = (G[1, 2] - 2 * G[1, 1] + G[1, 0]) / (hu * hu)
    Fuv = (F[2, 2] - F[2, 0] - F[0, 2] + F[0, 0]) / (4 * hu * hv)
    e, f, g = E[1, 1], F[1, 1], G[1, 1]
    M1 = np.array(
        [
            [-0.5 * Evv + Fuv - 0.5 * Guu, 0.5 * Eu, Fu - 0.5 * Ev],
            [Fv - 0.5 * Gu, e, f],
            [0.5 * Gv, f, g],
        ]
    )
    M2 = np.array([[0.0, 0.5 * Ev, 0.5 * Gu], [0.5 * Ev, e, f], [0.5 * Gu, f, g]])
    det = e * g - f * f
    return float((np.linalg.det(M1) - np.linalg.det(M2)) / (det * det))


def _stencil_curvature(form, z: complex, h: float, richardson: bool) -> float:
    """Brioschi curvature of ``form`` on a 3x3 stencil of spacing h around z,
    Richardson-combined with the h/2 stencil when ``richardson`` is set."""
    ks = []
    for hh in (h, 0.5 * h) if richardson else (h,):
        offs = np.array([[complex(i * hh, j * hh) for i in (-1, 0, 1)] for j in (-1, 0, 1)])
        ms = form(z + offs)
        ks.append(brioschi_curvature(ms.E, ms.F, ms.G, hh, hh))
    return (4.0 * ks[1] - ks[0]) / 3.0 if richardson else ks[0]


def intrinsic_curvature(
    moduli: CanonicalModuli, ctx: ThetaContext, z, h: float = 5e-4, richardson: bool = True
) -> float:
    """Finite-difference Gauss curvature of the front at an interior point.

    Flatness means this is zero up to stencil error.  The default pairs an
    h and h/2 stencil through Richardson extrapolation, which cancels the
    quadratic truncation term; h near 5e-4 balances the remaining
    truncation against roundoff amplified by the 1/h^2 weights.  Accuracy
    degrades where the metric is close to degenerate (|p| near 1, i.e.
    near the singular circles and the real axis).
    """
    return _stencil_curvature(lambda w: first_form(moduli, ctx, w), complex(z), h, richardson)


# --- rotational family ----------------------------------------------------


@dataclass(frozen=True)
class RotationalModuli:
    """Closed-form rotational front with one cone point and one ideal end.

    b in (0, 1) is the end exponent; a_rot = (1-b)^(b-1) b^-b normalizes the
    cone point to height exactly 1, reached on |g| = s_rot = sqrt(b/(1-b)).
    r_disc is the disc radius of the annulus-style parametrization; it
    degenerates (with the whole two-route comparison) at b = 1/2.
    """

    b: float
    a_sec: float
    a_rot: float
    s_rot: float
    r_disc: float

    @classmethod
    def from_exponent(cls, b: float) -> "RotationalModuli":
        if not 0.0 < b < 1.0:
            raise ValueError("exponent b must lie in (0, 1)")
        a_sec = 1.0 - 2.0 * b
        a_rot = (1.0 - b) ** (b - 1.0) * b ** (-b)
        s_rot = np.sqrt(b / (1.0 - b))
        if abs(a_sec) < 1e-12:
            r_disc = float("nan")
        else:
            r_disc = (b * (1.0 - b)) ** (1.0 / (2.0 * a_sec))
        return cls(b=b, a_sec=a_sec, a_rot=a_rot, s_rot=s_rot, r_disc=r_disc)

    @property
    def degenerate(self) -> bool:
        return abs(self.a_sec) < 1e-12

    @property
    def dilation(self) -> float:
        """The factor lambda with lambda * psi_route1(z) = psi(lambda z)."""
        if self.degenerate:
            raise DegenerateConfigurationError("no two-route dilation at b = 1/2")
        return self.s_rot / self.r_disc

    def to_dict(self) -> dict:
        return asdict(self)


def _check_rot_domain(rot, am):
    if (am <= 0.0).any() or (am > rot.s_rot * (1.0 + 1e-12)).any():
        raise ValueError(f"rotational domain is 0 < |g| <= {rot.s_rot}")


@pointwise
def immerse_rotational(rot: RotationalModuli, g):
    """Closed-form rotational front over 0 < |g| <= s_rot.

    The rim |g| = s_rot is the cone point (0, 1); |g| -> 0 is the ideal end.
    """
    am = np.abs(g)
    _check_rot_domain(rot, am)
    a, b = rot.a_rot, rot.b
    t = a * a * am ** (4.0 * b - 2.0)
    den = 1.0 + t * b * b
    horiz = g * (1.0 - t * (b - b * b)) / den
    height = a * am ** (2.0 * b) / den
    return HalfSpacePoint(horiz, height)


def rotational_gauss_data(rot: RotationalModuli, z):
    """Route-1 data (g, g*, |xi|) on the disc 0 < |z| <= r_disc.

    Satisfies dilation * route1(z) = immerse_rotational(dilation * z); no
    such normalization exists at b = 1/2.
    """
    if rot.degenerate:
        raise DegenerateConfigurationError("route-1 data degenerates at b = 1/2")
    z = np.asarray(z, dtype=np.complex128)
    b = rot.b
    return z, -z * (1.0 - b) / b, np.abs(z) ** b


@pointwise
def first_form_rotational(rot: RotationalModuli, g):
    """First fundamental form of the rotational front.

    Raises for b = 1/2, where the front collapses to the vertical axis and
    the form is identically degenerate.
    """
    if rot.degenerate:
        raise DegenerateConfigurationError("first form degenerates at b = 1/2")
    am = np.abs(g)
    _check_rot_domain(rot, am)
    a, b = rot.a_rot, rot.b
    e2 = a * am ** (2.0 * b)
    w_hopf = -b * (1.0 - b) / (g * g)
    gp = np.ones_like(g)
    return MetricSample(*_metric_from(e2, w_hopf, gp))


def intrinsic_curvature_rotational(
    rot: RotationalModuli, g, h: float = 5e-4, richardson: bool = True
) -> float:
    """Finite-difference Gauss curvature of the rotational front at a point."""
    return _stencil_curvature(lambda w: first_form_rotational(rot, w), complex(g), h, richardson)
