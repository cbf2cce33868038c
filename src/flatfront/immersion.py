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

immerse, shape_ratio and end_direction are projections of the complex
modular series (annulus._surface_series).  first_form takes g and the
shape factor from it and R, R' and W'/W from the theta product, and
intrinsic_curvature is built on first_form; the annulus module's
docstring says why those stay on the product.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .annulus import (
    CanonicalModuli,
    DegenerateConfigurationError,
    _surface_series,
    gauss_map_square,
    gauss_ratio,
    gauss_ratio_deriv,
    gauss_square_log_deriv,
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


def end_direction(moduli: CanonicalModuli) -> complex:
    """Horizontal limit g(z0) of the ideal end: gauss_map at z0, bit for bit,
    from the moduli's own theta context."""
    z0 = np.array([moduli.z0], dtype=np.complex128)
    g = _surface_series(moduli, moduli.context(), z0, ("g",), "end_direction").g
    return complex(g[0])


@pointwise
def immerse(moduli: CanonicalModuli, ctx: ThetaContext, z):
    """Evaluate the flat front at annulus points.

    Each field of the result has z's shape, or is a Python scalar for a
    scalar z.  Points within END_TOL of the end z0 come back as the ideal
    limit (g(z0), 0); everything else is an interior point with height > 0.
    g, R and e^2u come from one pass of the complex modular series
    (annulus._surface_series), which keeps R and e^2u to full relative
    precision next to the end; on the real axis, where g and R are real,
    the horizontal part is real too.
    """
    near_end = np.abs(z - moduli.z0) < END_TOL
    at_end = np.count_nonzero(near_end)
    work = np.where(near_end, 0.5 * (moduli.z0 + moduli.z1), z) if at_end else z

    s = _surface_series(moduli, ctx, work, ("g", "R", "factor"), "immerse")
    e2 = np.abs(s.factor)
    F = s.R / s.g
    psi3 = e2 / (1.0 + e2 * e2 * np.abs(F) ** 2)
    horiz = s.g - psi3 * e2 * np.conj(F)

    if at_end:
        horiz[near_end] = end_direction(moduli)
        psi3[near_end] = 0.0
    return HalfSpacePoint(horiz, psi3)


def hyperbolic_distance(a: HalfSpacePoint, b: HalfSpacePoint):
    """Distance in the half-space model (the invariant metric).

    arccosh(1 + (|horizontal gap|^2 + height gap^2) / (2 h_a h_b)); requires
    strictly positive heights.
    """
    ha = np.asarray(a.height, dtype=float)
    hb = np.asarray(b.height, dtype=float)
    if np.count_nonzero(ha <= 0) or np.count_nonzero(hb <= 0):
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
    if np.count_nonzero(h < 0):
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
def first_form(moduli: CanonicalModuli, ctx: ThetaContext, z):
    """First fundamental form of the front at interior points.

    Each field has z's shape (a Python float for a scalar z).  Undefined at
    the end z0 itself (the conformal factor blows up there).  g and the
    shape factor (|factor| = e^2u) come from one degree-0 series pass over
    all four theta arguments (annulus._surface_series); R, R' and W'/W, and
    so g' = g (W'/(2W) - 1/z), from the theta product, where W'/W loses
    digits within about 1e-6 of z1 and z2 (annulus.gauss_square_log_deriv).
    """
    s = _surface_series(moduli, ctx, z, ("g", "factor"), "first_form")
    g, e2 = s.g, np.abs(s.factor)
    gp = g * (0.5 * gauss_square_log_deriv(moduli, ctx, z) - 1.0 / z)
    R = gauss_ratio(moduli, ctx, z)
    Rp = gauss_ratio_deriv(moduli, ctx, z)
    F = R / g
    Fp = Rp / g - R * gp / (g * g)
    w_hopf = Fp + F * F * gp
    return MetricSample(*_metric_from(e2, w_hopf, gp))


@pointwise
def shape_ratio(moduli: CanonicalModuli, ctx: ThetaContext, z):
    """The ratio p of the holomorphic form coefficients.

    |p| equals 1 exactly on both singular circles and stays below 1 in the
    interior; |p| also equals e^4u |w_hopf / g'|.  Evaluated as
    p = factor^2 z^2 (R' / (g'/g) + R (R - 1)) / W with the shape factor
    Q1 z^m / (1-R) and W = (z g)^2.  Its principal-branch power z^m makes
    the phase of p (not its modulus) jump across arg z = pi.  g'/g comes
    from the theta form of g (see annulus.gauss_map_deriv), which has no
    poles to cancel, so p keeps its digits next to the markers z1 and z2.
    R, R', g'/g and the shape factor come from one pass of the complex
    modular series (annulus._surface_series), with z0/z and z0 z at degree
    2 and z1 z and z2 z at degree 1; W from gauss_map_square, a degree-0
    pass over z1 z and z2 z: two series calls, one per pass.
    """
    s = _surface_series(moduli, ctx, z, ("g_log", "R", "factor", "Rp"), "shape_ratio")
    W = gauss_map_square(moduli, ctx, z)
    return s.factor * s.factor * z * z * (s.Rp / s.g_log + s.R * (s.R - 1.0)) / W


def brioschi_curvature(E, F, G, h: float):
    """Gauss curvature from 3x3 stencils of metric coefficients.

    E, F, G are arrays indexed [..., j, i] = value at (u0 + (i-1) h,
    v0 + (j-1) h), stencils stacked on the leading axes; derivatives are
    central differences at the centre.  Returns a float for one stencil and
    an array of the leading shape for a stack.  Every sum is grouped
    symmetrically under j -> 2 - j, so a stencil and its mirror image (E and
    G even in v, F odd) give the same K bit for bit.
    """
    E, F, G = (np.asarray(x, dtype=float) for x in (E, F, G))
    if E.shape[-2:] != (3, 3) or F.shape != E.shape or G.shape != E.shape:
        raise ValueError("brioschi_curvature expects 3x3 stencils")
    # a degenerate metric (det = 0) gives an inf or nan K, which the caller
    # reports as a failing value
    with np.errstate(divide="ignore", invalid="ignore"):
        Eu = (E[..., 1, 2] - E[..., 1, 0]) / (2 * h)
        Ev = (E[..., 2, 1] - E[..., 0, 1]) / (2 * h)
        Gu = (G[..., 1, 2] - G[..., 1, 0]) / (2 * h)
        Gv = (G[..., 2, 1] - G[..., 0, 1]) / (2 * h)
        Fu = (F[..., 1, 2] - F[..., 1, 0]) / (2 * h)
        Fv = (F[..., 2, 1] - F[..., 0, 1]) / (2 * h)
        Evv = ((E[..., 2, 1] + E[..., 0, 1]) - 2 * E[..., 1, 1]) / (h * h)
        Guu = ((G[..., 1, 2] + G[..., 1, 0]) - 2 * G[..., 1, 1]) / (h * h)
        Fuv = ((F[..., 2, 2] + F[..., 0, 0]) - (F[..., 2, 0] + F[..., 0, 2])) / (4 * h * h)
        e, f, g = E[..., 1, 1], F[..., 1, 1], G[..., 1, 1]
        det = e * g - f * f
        # det [[a, 0.5 Eu, c], [d, e, f], [0.5 Gv, f, g]] by its first row
        a = (-0.5 * Evv + Fuv) - 0.5 * Guu
        c = Fu - 0.5 * Ev
        d = Fv - 0.5 * Gu
        det1 = a * det - 0.5 * Eu * (d * g - f * 0.5 * Gv) + c * (d * f - e * 0.5 * Gv)
        # det [[0, 0.5 Ev, 0.5 Gu], [0.5 Ev, e, f], [0.5 Gu, f, g]] by its first row
        det2 = -0.5 * Ev * (0.5 * Ev * g - f * 0.5 * Gu) + 0.5 * Gu * (0.5 * Ev * f - e * 0.5 * Gu)
        k = (det1 - det2) / (det * det)
    return float(k) if k.ndim == 0 else k


def _stencil_curvature(form, z, h: float):
    """Brioschi curvature of ``form`` on 3x3 stencils of spacing h and h/2
    around each centre of the flat array z, Richardson-combined; one
    ``form`` and one ``brioschi_curvature`` call per spacing cover all
    centres."""
    ks = []
    for hh in (h, 0.5 * h):
        offs = np.array([[complex(i * hh, j * hh) for i in (-1, 0, 1)] for j in (-1, 0, 1)])
        ms = form(z[:, None, None] + offs)
        ks.append(brioschi_curvature(ms.E, ms.F, ms.G, hh))
    # inf - inf where both spacings see a degenerate metric: the nan is the value
    with np.errstate(invalid="ignore"):
        return (4.0 * ks[1] - ks[0]) / 3.0


# Stencil spacing of intrinsic_curvature.  An h and an h/2 stencil are paired
# through Richardson extrapolation, which cancels the quadratic truncation
# term; h near 5e-4 balances the remaining truncation against roundoff
# amplified by the 1/h^2 weights.
CURVATURE_STEP = 5e-4


@pointwise
def intrinsic_curvature(moduli: CanonicalModuli, ctx: ThetaContext, z):
    """Finite-difference Gauss curvature of the front at interior points z.

    Flatness means this is zero up to stencil error (spacing CURVATURE_STEP).
    Accuracy degrades where the metric is close to degenerate (|p| near 1,
    i.e. near the singular circles and the real axis).  A centre gets the
    same value in any batch, and conjugate centres the same value bit for bit.
    """
    return _stencil_curvature(lambda w: first_form(moduli, ctx, w), z, CURVATURE_STEP)


# --- rotational family ----------------------------------------------------


@dataclass(frozen=True)
class RotationalModuli:
    """Closed-form rotational front with one cone point and one ideal end.

    b in (0, 1) is the end exponent; a_rot = (1-b)^(b-1) b^-b normalizes the
    cone point to height exactly 1, reached on |g| = s_rot = sqrt(b/(1-b)).
    At b = 1/2 (a_sec = 1 - 2b = 0) the front collapses to the vertical axis.
    """

    b: float
    a_sec: float
    a_rot: float
    s_rot: float

    @classmethod
    def from_exponent(cls, b: float) -> "RotationalModuli":
        if not 0.0 < b < 1.0:
            raise ValueError("exponent b must lie in (0, 1)")
        a_rot = (1.0 - b) ** (b - 1.0) * b ** (-b)
        return cls(b=b, a_sec=1.0 - 2.0 * b, a_rot=a_rot, s_rot=np.sqrt(b / (1.0 - b)))

    @property
    def degenerate(self) -> bool:
        return abs(self.a_sec) < 1e-12


def _check_rot_domain(rot, am):
    if np.count_nonzero(am <= 0.0) or np.count_nonzero(am > rot.s_rot * (1.0 + 1e-12)):
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


@pointwise
def intrinsic_curvature_rotational(rot: RotationalModuli, g, h: float = CURVATURE_STEP):
    """Finite-difference Gauss curvature of the rotational front at points g,
    as intrinsic_curvature computes it."""
    return _stencil_curvature(lambda w: first_form_rotational(rot, w), g, h)
