"""Annular Jacobi theta product and its logarithmic-derivative functions.

The basic object is the truncated infinite product

    theta1(z) = C * (1 - 1/z) * prod_{k=1..n} (1 - r^(2k) z) (1 - r^(2k) / z),

with C = prod_{k=1..n} (1 - r^(2k)) and modulus 0 < r < 1.  Its zeros are
exactly the real points r^(2k) for integer k, all simple.  The product is
well conditioned only on the band r <= |z| <= 1/r; arguments outside the
band are routed through the functional equations

    theta1(z) = -r^2 z theta1(r^2 z),        theta1(z) = -(1/z) theta1(1/z),

applied repeatedly, which is exact and keeps every factor O(1).

Derivatives come from the same product.  Away from zeros the logarithmic
derivative sum is used; within distance 1e-6 of a zero the vanishing factor
is split off and the remaining product is differentiated explicitly, so the
derivative stays accurate through the zero itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Truncation: n_terms is chosen so r^(2 n_terms) < TRUNCATION_TOL.
TRUNCATION_TOL = 1e-18

# |theta1| below POLE_GUARD * amplitude counts as landing on a zero.
POLE_GUARD = 1e-13

# Switch distance to the isolated-factor derivative path near a zero.
NEAR_ZERO_DIST = 1e-6

_MAX_REDUCTIONS = 2048


class ThetaPoleError(ZeroDivisionError):
    """An evaluation landed on (or numerically next to) a zero of theta1.

    ``location`` carries the nearest zero r^(2k) when it is identifiable.
    """

    def __init__(self, message: str, location=None):
        super().__init__(message)
        self.location = location


@dataclass(frozen=True)
class ThetaContext:
    """Modulus r plus the truncation data shared by every evaluation.

    c_const is the tail constant C = prod (1 - r^(2k)); it lies in (0, 1).
    Build instances with :meth:`create` so n_terms honors the truncation
    tolerance.
    """

    r: float
    n_terms: int
    c_const: float

    def __post_init__(self):
        if not 0.0 < self.r < 1.0:
            raise ValueError(f"modulus r must lie in (0, 1), got {self.r}")
        if self.n_terms < 1:
            raise ValueError("n_terms must be at least 1")
        if not 0.0 < self.c_const < 1.0:
            raise ValueError("c_const must lie in (0, 1)")

    @staticmethod
    def _tail_constant(r: float, n_terms: int) -> float:
        k = np.arange(1, n_terms + 1, dtype=float)
        return float(np.prod(1.0 - r ** (2.0 * k)))

    @classmethod
    def create(cls, r: float, tol: float = TRUNCATION_TOL) -> "ThetaContext":
        r = float(r)
        if not 0.0 < r < 1.0:
            raise ValueError(f"modulus r must lie in (0, 1), got {r}")
        if not 0.0 < tol < 1.0:
            raise ValueError("truncation tolerance must lie in (0, 1)")
        n = max(1, math.ceil(math.log(tol) / (2.0 * math.log(r))))
        c = cls._tail_constant(r, n)
        if c <= 0.0:
            # the factor product underflows long before this r reaches 1
            raise ValueError(
                f"modulus r={r} is too close to 1 for double precision "
                "(truncated product constant underflows)"
            )
        return cls(r=r, n_terms=n, c_const=c)

    def with_terms(self, n_terms: int) -> "ThetaContext":
        """Same modulus with a different truncation length (for convergence checks)."""
        return ThetaContext(self.r, n_terms, self._tail_constant(self.r, n_terms))

    def nearest_zero(self, z: complex) -> float:
        """The zero r^(2k) whose modulus is closest to |z| (k rounded)."""
        az = abs(z)
        if az == 0.0:
            return 0.0
        k = round(math.log(az) / (2.0 * math.log(self.r)))
        return self.r ** (2 * k)


def _as_flat(z):
    arr = np.asarray(z, dtype=np.complex128)
    return arr.reshape(-1), arr.shape, np.ndim(z) == 0


def _band_core(ctx: ThetaContext, v, order: int, skip_unit: bool):
    """Product and log-derivative sums over the truncated factor list.

    Returns (prod, L, Lp) with prod the factor product (including c_const),
    L the sum of f'/f over factors and Lp its derivative.  When skip_unit is
    set the (1 - 1/v) factor is left out of all three, which is what the
    near-zero path needs.
    """
    r = ctx.r
    prod = np.full(v.shape, ctx.c_const, dtype=np.complex128)
    L = np.zeros(v.shape, dtype=np.complex128) if order >= 1 else None
    Lp = np.zeros(v.shape, dtype=np.complex128) if order >= 2 else None

    if not skip_unit:
        f0 = 1.0 - 1.0 / v
        prod = prod * f0
        if order >= 1:
            L = L + 1.0 / (v * v - v)
        if order >= 2:
            l0 = 1.0 / (v * v - v)
            Lp = Lp - (2.0 * v - 1.0) * l0 * l0

    for k in range(1, ctx.n_terms + 1):
        p = r ** (2 * k)
        a = 1.0 - p * v
        b = 1.0 - p / v
        prod = prod * (a * b)
        if order >= 1:
            L = L + (-p / a + p / (v * (v - p)))
        if order >= 2:
            vb = v * (v - p)
            Lp = Lp + (-(p * p) / (a * a) - p * (2.0 * v - p) / (vb * vb))
    return prod, L, Lp


def _band_eval(ctx: ThetaContext, v, order: int):
    """(theta, theta', theta'') on the band r <= |v| <= 1/r.

    The only zero inside the band is v = 1; entries within NEAR_ZERO_DIST of
    it are recomputed with the vanishing factor isolated, which keeps the
    derivatives exact at the zero itself.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        prod, L, Lp = _band_core(ctx, v, order, skip_unit=False)
        t0 = prod
        t1 = prod * L if order >= 1 else None
        t2 = prod * (L * L + Lp) if order >= 2 else None

    flagged = np.abs(v - 1.0) < NEAR_ZERO_DIST
    if flagged.any():
        vf = v[flagged]
        P1, L1, L1p = _band_core(ctx, vf, order, skip_unit=True)
        f0 = 1.0 - 1.0 / vf
        t0 = t0.copy()
        t0[flagged] = f0 * P1
        if order >= 1:
            f0p = 1.0 / (vf * vf)
            t1 = t1.copy()
            t1[flagged] = f0p * P1 + f0 * P1 * L1
        if order >= 2:
            f0pp = -2.0 / (vf * vf * vf)
            t2 = t2.copy()
            t2[flagged] = f0pp * P1 + 2.0 * f0p * P1 * L1 + f0 * P1 * (L1 * L1 + L1p)
    return t0, t1, t2


def _reduce_band(ctx: ThetaContext, z):
    """Track theta1(z) = c * z^k * theta1(z * r^(2n)) into the band.

    Returns (c, k, n, v) arrays with r <= |v| <= 1/r elementwise.
    """
    r = ctx.r
    r2 = r * r
    v = z.copy()
    c = np.ones(z.shape, dtype=np.complex128)
    k = np.zeros(z.shape, dtype=np.int64)
    n = np.zeros(z.shape, dtype=np.int64)
    hi = 1.0 / r
    for _ in range(_MAX_REDUCTIONS):
        mask = np.abs(v) > hi
        if not mask.any():
            break
        c[mask] *= -np.power(r, 2.0 * n[mask] + 2.0)
        k[mask] += 1
        n[mask] += 1
        v[mask] *= r2
    else:
        raise ValueError("argument reduction did not terminate; |z| out of range")
    for _ in range(_MAX_REDUCTIONS):
        mask = np.abs(v) < r
        if not mask.any():
            break
        c[mask] *= -np.power(r, -2.0 * n[mask])
        k[mask] -= 1
        n[mask] -= 1
        v[mask] /= r2
    else:
        raise ValueError("argument reduction did not terminate; |z| out of range")
    return c, k, n, v


def _eval(ctx: ThetaContext, z, order: int):
    """theta1 and derivatives at arbitrary nonzero arguments (flat arrays)."""
    if (z == 0).any():
        raise ValueError("theta1 is undefined at z = 0")
    c, k, n, v = _reduce_band(ctx, z)
    t0, t1, t2 = _band_eval(ctx, v, order)
    zk = np.power(z, k)
    theta = c * zk * t0
    if order == 0:
        return theta, None, None
    q = np.power(ctx.r, 2.0 * n)
    kz = k / z
    dtheta = c * zk * (kz * t0 + q * t1)
    if order == 1:
        return theta, dtheta, None
    d2 = c * zk * (k * (k - 1) / (z * z) * t0 + 2.0 * kz * q * t1 + q * q * t2)
    return theta, dtheta, d2


def _amplitude(ctx: ThetaContext, z):
    """Crude upper bound for |theta1| used to calibrate the pole guard."""
    c, k, _, v = _reduce_band(ctx, z)
    av = np.abs(v)
    r2 = ctx.r * ctx.r
    tail = r2 / (1.0 - r2)
    return (
        np.abs(c)
        * np.abs(np.power(z, k))
        * ctx.c_const
        * (1.0 + 1.0 / av)
        * np.exp((av + 1.0 / av) * tail)
    )


def _finish(scalar, shape, arr):
    if scalar:
        return complex(arr[0])
    return arr.reshape(shape)


def theta1(ctx: ThetaContext, z):
    """The annular theta product at z (scalar or array)."""
    flat, shape, scalar = _as_flat(z)
    t0, _, _ = _eval(ctx, flat, 0)
    return _finish(scalar, shape, t0)


def dtheta1(ctx: ThetaContext, z):
    """First derivative of theta1, exact through the zeros."""
    flat, shape, scalar = _as_flat(z)
    _, t1, _ = _eval(ctx, flat, 1)
    return _finish(scalar, shape, t1)


def _guard_zero(ctx: ThetaContext, flat, t0, on_pole: str):
    bad = np.abs(t0) < POLE_GUARD * _amplitude(ctx, flat)
    if not bad.any():
        return None
    if on_pole == "nan":
        return bad
    where = flat[bad][0]
    raise ThetaPoleError(
        f"theta1 vanishes at z = {where}; nearest zero {ctx.nearest_zero(where)}",
        location=ctx.nearest_zero(where),
    )


def log_slope(ctx: ThetaContext, z, on_pole: str = "raise"):
    """d log theta1 / d log z, i.e. z * theta1'(z) / theta1(z).

    Real on the real axis, with simple poles at the zeros r^(2k).  Satisfies
    log_slope(z) = 1 + log_slope(r^2 z) and log_slope(z) + log_slope(1/z) = -1,
    in particular log_slope(r) = -1.
    """
    flat, shape, scalar = _as_flat(z)
    t0, t1, _ = _eval(ctx, flat, 1)
    bad = _guard_zero(ctx, flat, t0, on_pole)
    out = flat * t1 / t0
    if bad is not None:
        out[bad] = np.nan
    return _finish(scalar, shape, out)


def log_slope_deriv(ctx: ThetaContext, z, on_pole: str = "raise"):
    """Derivative of log_slope with respect to z."""
    flat, shape, scalar = _as_flat(z)
    t0, t1, t2 = _eval(ctx, flat, 2)
    bad = _guard_zero(ctx, flat, t0, on_pole)
    h = flat * t1 / t0
    out = t1 / t0 + flat * t2 / t0 - h * h / flat
    if bad is not None:
        out[bad] = np.nan
    return _finish(scalar, shape, out)


def pair_slope(ctx: ThetaContext, center, z, on_pole: str = "raise"):
    """log_slope(z / center) + log_slope(z * center).

    For a real center in (-1, -r) this is the building block of the moduli
    conditions: it is real on the real axis, tends to -1 as z -> -1 along
    (-1, 0), and blows up at z = center where the first argument crosses the
    zero at 1.
    """
    center = np.asarray(center, dtype=np.complex128)
    return log_slope(ctx, np.asarray(z) / center, on_pole=on_pole) + log_slope(
        ctx, np.asarray(z) * center, on_pole=on_pole
    )

