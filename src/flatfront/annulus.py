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
  form g = sqrt(C) theta1(z2 z) / (z theta1(z1 z)), on the modular series,
* ``gauss_map_square`` - W = (z g)^2,
* ``potential`` - the harmonic function u with exp(2u) = |Q1 z^m / (1-R)|,
  the modulus of the shape factor Q1 z^m / (1-R),
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
so its square root is single-valued with no branch to track.

A theta context is its radius, so a function of the whole surface, such
as ``gauss_square_winding``, takes the moduli alone and reads the context
the moduli build once and keep, ``moduli.context()``.  A point evaluator
takes (moduli, ctx, z) and raises ValueError for a context of another
radius than the moduli's.  Per surface the evaluators read one record
(``_surface``, cached on the moduli and their context), built once the
stored fields pass their checks: the constants of the modular series per
theta argument and per field; the per-radius tables are the context's
own.  The record's theta values, like the solve's closing step
and ``solver.residuals``, come from one kernel call over the eight
arguments of the four slit values that tie the stored fields to the
markers (``_marker_slits``), with the bits of separate ``slit_map`` calls.

Two kernels serve the module.  ``_surface_series`` runs on the complex
modular series (theta._series_sums), with 1 to 4 terms per argument from
r = 0.023, where the product takes 6 to 88 and more, and one log z and one
exp per point.  Each evaluator names the fields it uses, and the pass
evaluates only the theta arguments those need, in one table per pass and
one series call per chunk; the table's plan is fixed per set of fields
and built at import, and a pass of one chunk hands back its arrays as
they are:

    g, g'/g (g_log)        z1 z, z2 z
    shape factor (factor)  z0/z, z0 z, z1 z
    R, R' (R, Rp)          z0/z, z0 z

first_form reads g and the shape factor from one such pass over all four
arguments.  The slit maps and all built on them,
theta_quotient, gauss_ratio and first_form's R, R' and W'/W, and so the
curvature, stay on the product: they take most of the probe benchmark's
query time, and its peak memory grows with the queries it records, so
faster queries wait until it keeps a record of fixed size per query.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields
from functools import cached_property, lru_cache
from itertools import combinations
from typing import NamedTuple

import numpy as np

from .theta import _CHUNK, ThetaContext, _column, _eval, _expm1, _guard_series_zeros, _series_sums, pointwise

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
        """The theta context of radius r, built once per instance or kept from the solve."""
        return self._context

    @cached_property
    def _context(self) -> ThetaContext:
        return ThetaContext.create(self.r)

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


def _require_context(moduli: CanonicalModuli, ctx: ThetaContext):
    """Raise ValueError unless ctx is a context for the moduli's radius."""
    if ctx.r != moduli.r:
        raise ValueError(f"theta context for r = {ctx.r} used with moduli of r = {moduli.r}")


def _require_annulus(ctx: ThetaContext, flat, who: str):
    a = np.abs(flat)
    if np.count_nonzero(a < ctx.r - ANNULUS_SLACK) or np.count_nonzero(a > 1.0 + ANNULUS_SLACK):
        raise ValueError(f"{who}: argument outside the closed annulus [{ctx.r}, 1]")


def _slit_parts(ctx: ThetaContext, marker, z, order: int, who: str = "slit_map"):
    """(slit_map, slit_map_deriv) at the flat points z from one kernel call
    per argument, marker/z and marker z; the derivative is None unless order
    is 2.  No kernel value depends on the order, and a point's value not on
    its batch, so each value has the bits of its own evaluator."""
    _require_annulus(ctx, z, who)
    _, h_in, hp_in = _eval(ctx, marker / z, order)
    _, h_out, hp_out = _eval(ctx, marker * z, order)
    q = -(h_in + h_out) / marker
    return q, (hp_in / (z * z) - hp_out if order >= 2 else None)


def _marker_slits(ctx: ThetaContext, z0: float, z1: float, z2: float, extra=()):
    """(slit_map(z0, z1), slit_map(z0, z2), c1, c2, slit_map_deriv(z0, z1),
    slit_map_deriv(z0, z2), thetas), all but c1 and c2 complex, with the
    real parts c1 and c2 of slit_map(z1, z0) and slit_map(z2, z0), from one
    order-2 kernel call over the slit arguments marker/z and marker z of
    the four (marker, z) pairs and the real points extra.  thetas holds
    theta1 at z1 z0 and z2 z0, two of the slit arguments, then at extra.
    No kernel value depends on the order, and a point's value not on its
    batch, so each value has the bits of its one-point evaluator."""
    markers = np.array([z0, z0, z1, z2])
    z = np.array([z1, z2, z0, z0], dtype=np.complex128)
    _require_annulus(ctx, z, "slit_map")
    args = np.concatenate([markers / z, markers * z, np.array(extra, dtype=np.complex128)])
    theta, h, hp = _eval(ctx, args, 2)
    q = -(h[:4] + h[4:8]) / markers
    qp = hp[:4] / (z * z) - hp[4:8]
    c1, c2 = float(q[2].real), float(q[3].real)
    return complex(q[0]), complex(q[1]), c1, c2, complex(qp[0]), complex(qp[1]), theta[6:]


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
    _require_context(moduli, ctx)
    return moduli.a_R * slit_map(ctx, moduli.z0, z) + moduli.b_R


def gauss_ratio_deriv(moduli: CanonicalModuli, ctx: ThetaContext, z):
    _require_context(moduli, ctx)
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


def gauss_square_winding(moduli: CanonicalModuli) -> int:
    """Winding number of W around the core circle |z| = sqrt(r), in the
    moduli's theta context.

    Zero for valid moduli.  A plain walk of W over the circle; W is built
    from the closed form of :func:`gauss_map`, so the walk audits that form
    (zero- and pole-free on the core circle), not an independent route.
    """
    th = np.linspace(0.0, 2.0 * np.pi, _RING_STEPS + 1)
    vals = gauss_map_square(moduli, moduli.context(), np.sqrt(moduli.r) * np.exp(1j * th))
    inc = np.angle(vals[1:] / vals[:-1])
    if np.abs(inc).max() > 2.0:
        raise RepresentationError("winding audit needs more steps")
    total = inc.sum() / (2.0 * np.pi)
    n = int(round(total))
    if abs(total - n) > 1e-6:
        raise RepresentationError(f"winding of W did not close up: {total}")
    return n


class _Surface(NamedTuple):
    """The per-surface constants of :func:`_surface_series`, built once per
    (moduli, ctx) by :func:`_surface`.

    unit, sign, marker and inverse are read-only columns over the pass's
    theta arguments z0/z, z0 z, z1 z, z2 z: the unit factor of E (conj(a0),
    a0, a1, a2), the sign s of E = exp(2isy), the marker and whether the
    argument is marker/z.  g_coef, f_coef and r_coef are the real
    coefficients (c, b) of g, the shape factor and (R_c, kappa) of R and R'.
    """

    unit: np.ndarray
    sign: np.ndarray
    marker: np.ndarray
    inverse: np.ndarray
    g_coef: tuple[float, float]
    f_coef: tuple[float, float]
    r_coef: tuple[float, float]


@lru_cache(maxsize=128)
def _surface(moduli: CanonicalModuli, ctx: ThetaContext) -> _Surface:
    """The :class:`_Surface` of the moduli, after checking their stored fields.

    C = -theta1(z1/z0) theta1(z1 z0) / (theta1(z2/z0) theta1(z2 z0)) and
    K' = theta1(z2/z0) theta1(z2 z0) / (theta1(z2/z1) theta1(z2 z1)); both
    are positive for markers in the order -1 < z2 < z0 < z1 < -r.  The forms
    depend on the markers alone, so the other stored fields are checked
    against them first, each to 1e-8 (relative for c1 and c2): R(z1) = 1
    (as a_R (slit_map(z0, z1) - slit_map(z0, z2)) = 1) and
    c1 = slit_map(z1, z0); R(z2) = 0, c2 = slit_map(z2, z0) and s = -z2 c2;
    z1 z2 r^(2(m+2)) = 1.  RepresentationError names the first that fails,
    and ValueError a context for another radius.  Every theta value comes
    from the one marker pass.
    """
    _require_context(moduli, ctx)
    z0, z1, z2 = moduli.z0, moduli.z1, moduli.z2
    # theta1 at z1 z0 and z2 z0 comes with the slit arguments.  The
    # quotients z1/z0 and z2/z0 are added in float64: the slit arguments are
    # complex quotients, which round about a quarter of them differently
    q1, q2, c1, c2, _, _, t = _marker_slits(ctx, z0, z1, z2, (z1 / z0, z2 / z0, z2 / z1, z2 * z1))
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
    # theta1 at the products (p) z1 z0, z2 z0, the quotients (q) z1/z0,
    # z2/z0, z2/z1 and the product z2 z1
    p10, p20, q10, q20, q21, p21 = t.real
    sqrt_c = float(np.sqrt(-q10 * p10 / (q20 * p20)))
    k_prime = float(q20 * p20 / (q21 * p21))
    k = ctx.k
    ell = np.pi / k
    l0, l1, l2 = (float(np.log(-x)) for x in (z0, z1, z2))
    a0, a1, a2 = (complex(np.exp(-1j * k * x)) for x in (l0, l1, l2))
    g_coef = (float(np.log(sqrt_c)) + (l2 - l1) * ((l1 + l2) / (4.0 * ell) - 0.5), (l2 - l1) / (2.0 * ell) - 1.0)
    f_coef = (
        float(np.log(z0 / (z1 * k_prime))) + (l0 * l0 - l1 * l1) / (2.0 * ell) - (l0 - l1),
        moduli.m + 1.0 - l1 / ell,
    )
    r_coef = (moduli.b_R - moduli.a_R * (l0 / ell - 1.0) / z0, -moduli.a_R * k / z0)
    args = ([a0.conjugate(), a0, a1, a2], [1.0, -1.0, -1.0, -1.0], [z0, z0, z1, z2], [True, False, False, False])
    return _Surface(*(_column(np.array(a)) for a in args), g_coef, f_coef, r_coef)


@pointwise
def gauss_map(moduli: CanonicalModuli, ctx: ThetaContext, z):
    """The hyperbolic Gauss map g = sqrt(C) theta1(z2 z) / (z theta1(z1 z)).

    Holomorphic and zero-free on the closed annulus, with g^2 z^2 equal to
    R/(1-R) * Q1/Q2.  That composite has double zeros at r^(2k)/z2 and
    double poles at r^(2k)/z1, all on the negative real axis outside the
    annulus; so does the squared theta quotient, and both gain (z1/z2)^2
    under z -> r^2 z.  Their ratio C is therefore constant, positive, and
    computed once per surface, on the product.  g is negative on (-1, -r).
    The g field of the complex modular series (_surface_series) at z1 z and
    z2 z.  Raises RepresentationError for moduli whose fields do not fit
    their markers.
    """
    return _surface_series(moduli, ctx, z, ("g",), "gauss_map").g


@pointwise
def gauss_map_square(moduli: CanonicalModuli, ctx: ThetaContext, z):
    """W(z) = R/(1-R) * Q1/Q2 = (z g)^2, with g from _surface_series.

    Zero- and pole-free on the closed annulus: the 0/0 of the raw quotients
    at z0, z1 and z2 does not arise in the theta-product form.
    """
    zg = z * _surface_series(moduli, ctx, z, ("g",), "gauss_map_square").g
    return zg * zg


@pointwise
def gauss_map_deriv(moduli: CanonicalModuli, ctx: ThetaContext, z):
    """g' = g * g'/g, both from one pass of the complex modular series at
    z1 z and z2 z (_surface_series).  g'/g has no poles on the closed
    annulus, so unlike W'/W (gauss_square_log_deriv) it keeps its digits
    next to z1 and z2, and g' is finite at the end z0."""
    s = _surface_series(moduli, ctx, z, ("g", "g_log"), "gauss_map_deriv")
    return s.g * s.g_log


# --- shape factor, potential and Gauss-map gap --------------------------


class _Series(NamedTuple):
    """The fields of one :func:`_surface_series` pass, None where not asked."""

    g: np.ndarray | None
    g_log: np.ndarray | None
    R: np.ndarray | None
    factor: np.ndarray | None
    Rp: np.ndarray | None


class _Plan(NamedTuple):
    """The table plan of one field set of :func:`_surface_series`, which
    depends on the names alone: which fields are asked (in _Series order),
    the record columns of the table's rows (z0/z, z0 z, z1 z, z2 z as 0 to
    3), highest series degree first, the points per chunk, the rows n1 and
    n2 that want N1/D and the degree-2 sum, and the rows of z0/z, z0 z,
    z1 z and z2 z (None: unused)."""

    ask: tuple[bool, ...]
    rows: np.ndarray
    step: int
    n1: int
    n2: int
    j: tuple[int | None, ...]


def _plan(names) -> _Plan:
    ask_g, ask_log, ask_r, ask_f, ask_rp = ask = tuple(map(names.__contains__, _Series._fields))
    # the series degree of z0/z and z0 z, of z1 z and of z2 z (None: unused)
    deg_0 = 2 if ask_rp else 1 if ask_r else 0 if ask_f else None
    deg_1 = 1 if ask_log else 0 if ask_g or ask_f else None
    deg_2 = 1 if ask_log else 0 if ask_g else None
    degs = (deg_0, deg_0, deg_1, deg_2)
    rows = sorted((i for i, d in enumerate(degs) if d is not None), key=lambda i: -degs[i])
    n1, n2 = (sum(degs[i] >= deg for i in rows) for deg in (1, 2))
    j = tuple(map({i: j for j, i in enumerate(rows)}.get, range(4)))
    step = _CHUNK // len(rows)
    rows = np.array(rows)
    rows.flags.writeable = False
    return _Plan(ask, rows, step, n1, n2, j)


_FACTOR = _Series._fields.index("factor")
# The plan of every nonempty field set, keyed by the set of names: 31
# entries, built at import.
_PLANS = {
    frozenset(names): _plan(names)
    for n in range(1, len(_Series._fields) + 1)
    for names in combinations(_Series._fields, n)
}


def _surface_series(moduli: CanonicalModuli, ctx: ThetaContext, z, fields, who: str) -> _Series:
    """The fields of :class:`_Series` named in ``fields`` (g, g'/g, the shape
    factor, R and R') at the flat points z, from one pass of the complex
    modular series over the theta arguments they use, each at the highest
    series degree asked of it:

        g       z1 z, z2 z (degree 0)      exp(c_g + b_g log z) D2 / D1
        g_log   z1 z, z2 z (1)             (b_g - i (pi/l) (rho_2 - rho_1)) / z
        factor  z0/z, z0 z, z1 z (0)       exp(c_f + b_f log z) Din D0 / D1^2
        R       z0/z, z0 z (1)             R_c + i kappa (rho_in - rho_0)
        Rp      z0/z, z0 z (2)             -(a_R/z0) (pi/l)^2 (tau_in - tau_0) / z

    with D, rho = N1/D and tau of theta._series_sums at each argument.  No
    value depends on the degree, so a field has the same bits whatever
    fields come with it.  g and g_log are regular at the end z0, where
    theta1(z0/z) vanishes; a pass without factor, R and Rp skips z0/z.

    A point is evaluated at zeta = z, or conj(z) when Im z has its sign bit
    set, and conjugated back: every field is conjugate at conjugate points,
    bit for bit.  g, g_log, R and Rp are real on the real axis, where the
    pass takes their real parts before that step; the shape factor keeps the
    phase of its principal z^m.  With the principal log z of zeta (Im in [0, pi]) the four
    arguments take the logs lv = log|z_j| + log z - i pi and
    log|z0| + i pi - log z, all with |Im lv| <= pi, so their series variables
    E = exp(i s (pi/l) lv), s = +-1 the sign with |E| <= 1 (see the module
    docstring of flatfront.theta and theta._series_sums), are E_j = a_j w
    and conj(a0) w for one w = exp((pi/l) (Im log z - pi) - i (pi/l) Re log z)
    per point: one log and one exp serve all four, and the table of E is
    one product of the record's unit factors with w.  Where an entry has
    |E - 1| < 1/2, next to a zero of theta1 (the end z0 for z0/z; 1/z2 or
    r^2/z1, just off the annulus, for the others), one _near_zero_em1 call
    per chunk recomputes E - 1 at all such entries, with the sign, marker
    and flag of each one's argument from the record, so it keeps its
    relative precision, and one _guard_series_zeros call guards them.

    In the quotients of g = sqrt(C) theta1(z2 z) / (z theta1(z1 z)) and of the
    shape factor z^m z0 theta1(z0/z) theta1(z0 z) / (z1 K' theta1(z1 z)^2)
    the series' constant cancels and the exp(lv^2/(4l)) factors combine to
    exp(c + b log z) with real c and b, which takes in 1/z and z^m.  pi/l
    comes from the context and the other constants from the record
    (_surface), whose c and b take sqrt(C) and K' from the product.  One
    table per pass holds the arguments, a row each, highest degree first;
    the fields read its rows by index, and
    theta._series_sums runs once per chunk of theta._CHUNK // rows points,
    so no table holds more than theta._CHUNK entries.  The table's plan
    depends on the set of names alone, so the pass looks it up in _PLANS,
    built at import; the names' order and repeats do not matter, and an
    unknown name raises ValueError.  A pass of one chunk (an empty batch
    runs one empty chunk) hands back that chunk's arrays as they are; the
    chunks of a larger batch are copied into outputs made up front, so no
    chunk's arrays outlive its step.  The operations are elementwise,
    so a point gets the same bits in any batch.
    """
    plan = _PLANS.get(frozenset(fields))
    if plan is None:
        unknown = sorted(set(fields) - set(_Series._fields))
        raise ValueError(f"{who}: unknown series fields {unknown}" if unknown else f"{who}: no series field asked")
    (ask_g, ask_log, ask_r, ask_f, ask_rp), rows, step, n1, n2, (j_in, j_0, j_1, j_2) = plan
    _require_annulus(ctx, z, who)
    surface = _surface(moduli, ctx)
    k = ctx.k
    (cg, bg), (cf, bf), (r_c, kappa) = surface.g_coef, surface.f_coef, surface.r_coef
    z0 = moduli.z0
    unit = surface.unit[rows]
    # a pass of one chunk hands back that chunk's arrays; several chunks are
    # copied into outputs made up front, so no chunk outlives its step
    outs = [np.empty(z.shape, dtype=np.complex128) if ask else None for ask in plan.ask] if z.size > step else None
    # an empty batch runs one empty chunk, so that every field comes back
    for lo in range(0, z.size or 1, step):
        part = slice(lo, lo + step)
        zc = z[part]
        # count_nonzero costs a fraction of any() on a batch of a few points
        lower = np.signbit(zc.imag)
        mirrored = np.count_nonzero(lower)
        axis = zc.imag == 0.0 if np.count_nonzero(zc.imag) < zc.size else None
        zeta = np.where(lower, np.conj(zc), zc) if mirrored else zc
        # log z from log|zeta| and arg zeta: numpy's complex log costs 5 to
        # 20 times as much per point
        lz = np.empty(zc.shape, dtype=np.complex128)
        lz.real = np.log(np.abs(zeta))
        lz.imag = np.arctan2(zeta.imag, zeta.real)
        w = np.empty(zc.shape, dtype=np.complex128)
        w.real = k * (lz.imag - np.pi)
        w.imag = -k * lz.real
        w = np.exp(w)
        # a row is the unit-times-array product a lone argument takes, so
        # its bits do not depend on the table's shape
        E = unit * w
        em1 = E - 1.0
        near = np.abs(em1) < 0.5
        if np.count_nonzero(near):
            row, col = np.nonzero(near)
            arg = rows[row]
            marker, inverse = surface.marker[arg, 0], surface.inverse[arg, 0]
            em1[row, col] = dm = _near_zero_em1(ctx, surface.sign[arg, 0], marker, zeta[col], inverse)
            E[row, col] = dm + 1.0
            # a zero of theta1 can only lie among these entries
            at = zc[col]
            _guard_series_zeros(ctx, dm, lambda m: np.where(inverse[m], marker[m] / at[m], marker[m] * at[m]))
        D, rho, tau = _series_sums(ctx, E, em1, n1, n2)
        vals = [
            np.exp(cg + bg * lz) * D[j_2] / D[j_1] if ask_g else None,
            (bg - 1j * k * (rho[j_2] - rho[j_1])) / zeta if ask_log else None,
            r_c + 1j * kappa * (rho[j_in] - rho[j_0]) if ask_r else None,
            np.exp(cf + bf * lz) * D[j_in] * D[j_0] / (D[j_1] * D[j_1]) if ask_f else None,
            -moduli.a_R * k * k * (tau[j_in] - tau[j_0]) / (z0 * zeta) if ask_rp else None,
        ]
        for f, val in enumerate(vals):
            if val is None:
                continue
            if axis is not None and f != _FACTOR:
                val[axis] = val[axis].real
            if mirrored:
                val = np.where(lower, np.conj(val), val)
            if outs is None:
                vals[f] = val
            else:
                outs[f][part] = val
    return _Series(*(vals if outs is None else outs))


def _near_zero_em1(ctx: ThetaContext, s, marker, zeta, inverse):
    """E - 1 = expm1(i s (pi/l) log(v/v0)) at table entries, each with its
    sign s, marker, zeta and flag inverse (arrays): the argument is
    v = marker/zeta where inverse is set, else marker zeta, and v0 the zero
    of theta1 nearest v.  E is periodic in log v with period 2l, so the log
    may be taken from the zero.  With d = v/v0 - 1, exact in the numerator
    marker - zeta for marker/zeta, the log is log1p-accurate: E - 1 keeps
    the relative precision of d, where E - 1 from E alone would cancel."""
    v = marker * zeta
    d = np.where(inverse, (marker - zeta) / zeta, v / ctx.nearest_zero(v) - 1.0)
    # i s k log(1 + d), log(1 + d) = log|1 + d| + i arg(1 + d)
    x = np.empty(d.shape, dtype=np.complex128)
    x.real = -s * ctx.k * np.arctan2(d.imag, 1.0 + d.real)
    x.imag = 0.5 * s * ctx.k * np.log1p(d.real * (2.0 + d.real) + d.imag * d.imag)
    return _expm1(x)


@pointwise
def potential(moduli: CanonicalModuli, ctx: ThetaContext, z):
    """Harmonic potential u with exp(2u) = |Q1(z) z^m / (1 - R(z))|, the
    modulus of the shape factor: log|factor| / 2 from the factor field of
    _surface_series, finite at z1, where Q1 and 1 - R both vanish.  Blows
    up logarithmically at the end z0, where R has its pole and the
    evaluation raises the underlying pole error."""
    return 0.5 * np.log(np.abs(_surface_series(moduli, ctx, z, ("factor",), "potential").factor))


@pointwise
def inv_gauss_gap(moduli: CanonicalModuli, ctx: ThetaContext, z):
    """F = R / g = 1 / (g - g*); simple pole at z0, zero at z2.  R and g
    come from one pass of _surface_series."""
    s = _surface_series(moduli, ctx, z, ("g", "R"), "inv_gauss_gap")
    return s.R / s.g


@pointwise
def second_gauss_map(moduli: CanonicalModuli, ctx: ThetaContext, z):
    """g* = g (R - 1) / R, with R and g from one pass of _surface_series;
    the tagged value AT_INFINITY at z2, the one zero of R on the annulus,
    whatever R's rounding reads there."""
    s = _surface_series(moduli, ctx, z, ("g", "R"), "second_gauss_map")
    with np.errstate(divide="ignore", invalid="ignore"):
        out = s.g * (s.R - 1.0) / s.R
    return np.where(z == moduli.z2, AT_INFINITY, out)
