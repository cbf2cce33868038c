"""Annular Jacobi theta product and its logarithmic-derivative functions.

The basic object is the truncated infinite product

    theta1(z) = C * (1 - 1/z) * prod_{k=1..n} (1 - r^(2k) z) (1 - r^(2k) / z),

with C = prod_{k=1..n} (1 - r^(2k)) and modulus 0 < r < 1.  Its zeros are
exactly the real points r^(2k) for integer k, all simple.  The product is
well conditioned only on the band r <= |z| <= 1/r.  Every point is carried
into the band in one step by the functional equation

    theta1(z) = (-1)^k r^(k(k+1)) z^k theta1(r^(2k) z),

with k = rint(log|z| / (-2 log r)), which puts r^(2k) z nearest in
log-modulus to the band's one zero 1; so r^(-2k) is the zero nearest z.

On the band the vanishing factor (1 - 1/v) is split off at every point:
theta and its derivatives come by the product rule from that factor and
from the product and logarithmic-derivative sums of the other factors, none
of which is singular on the band, so the derivatives stay accurate next to
a zero and through it.

The logarithmic derivatives have their poles at these known zeros and
nowhere else, so their guard is structural: a point within relative
distance ZERO_DIST of its nearest zero r^(2k) raises ThetaPoleError, and
every other point is evaluated, however small theta1 is there.

The input's dtype selects the arithmetic.  Complex points run in
complex128; float64 points, the real arguments of the moduli solve, stay in
float64 and give the bits of the complex path's real part.  Products and
sums of zero-imaginary operands round as their real counterparts, and numpy
divides complex numbers by Smith's formula, which for zero imaginary parts
is x * (1/y); so the real path writes every quotient that way (one division
function per call, chosen from the dtype), and takes z**k from numpy's
complex integer power.

Evaluation runs over chunks of points.  Each chunk builds the factor table
(1 - r^(2k) v)(1 - r^(2k) / v) for a block of k in a few array operations,
plus the tables of the log-derivative terms, and multiplies (or adds) the
rows into the result in order of k.  Every point sees the same operations
in the same order as in a term-by-term loop, so a value does not depend on
the batch it is computed in: a scalar call and the same point inside a batch
of any size agree bit for bit.
"""

from __future__ import annotations

import functools
import inspect
import math
from dataclasses import dataclass, fields, is_dataclass, replace

import numpy as np

# Truncation: n_terms is chosen so r^(2 n_terms) < TRUNCATION_TOL.
TRUNCATION_TOL = 1e-18

# A point z with |z - r^(2k)| <= ZERO_DIST * r^(2k), for its nearest zero
# r^(2k), counts as landing on that zero.
ZERO_DIST = 1e-13


class ThetaPoleError(ZeroDivisionError):
    """An evaluation landed on (or within ZERO_DIST of) a zero of theta1.

    ``location`` carries that zero r^(2k).
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

    def band_index(self, z):
        """The integer k, as a float, that takes nonzero z to the band:
        r <= |z r^(2k)| <= 1/r, elementwise."""
        return np.rint(np.log(np.abs(z)) / (-2.0 * math.log(self.r)))

    def nearest_zero(self, z):
        """The zero r^(-2k) nearest to nonzero z in log-modulus, elementwise,
        with k = band_index(z): the zero that the band reduction moves to 1.

        A scalar z gets the float r ** (-2 * k) of the factor columns; numpy's
        power over an array may round that value differently in the last bit.
        """
        return self.r ** (-2.0 * self.band_index(z))


def _shaped(arr, shape):
    return arr.reshape(shape) if shape else arr.item()


def pointwise(fn):
    """The scalar/array convention of the point evaluators.

    The point argument (``z``, or ``g`` in the rotational family) reaches
    the body as a flat complex128 array.  Every array the body returns,
    directly or as a dataclass field, comes back in the shape of the point
    argument; a scalar or 0-d point gets Python scalars (complex or float)
    instead.
    """
    names = list(inspect.signature(fn).parameters)
    name = "z" if "z" in names else "g"
    pos = names.index(name)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if len(args) > pos:
            point = np.asarray(args[pos], dtype=np.complex128)
            args = (*args[:pos], point.reshape(-1), *args[pos + 1 :])
        else:
            point = np.asarray(kwargs[name], dtype=np.complex128)
            kwargs[name] = point.reshape(-1)
        out = fn(*args, **kwargs)
        shape = point.shape
        if is_dataclass(out):
            return replace(out, **{f.name: _shaped(getattr(out, f.name), shape) for f in fields(out)})
        return _shaped(out, shape)

    return wrapper


# Points per chunk, and bounds on the entries of one table.  A table has a
# row per term k and a column per point of the chunk; it covers as many k at
# a time as fit in one entry per point of the batch, but no fewer than
# _TABLE_MIN and no more than _TABLE_MAX entries (64 to 512 KiB).  So a small
# batch needs little scratch memory, and a large one folds long rows.
_CHUNK = 2048
_TABLE_MIN = 4096
_TABLE_MAX = 32768


def _real_quotient(x, y):
    """x / y as numpy's complex division rounds it for zero imaginary parts."""
    return x * (1.0 / y)


def _quotient(z):
    """The division of an evaluation at the points z: numpy's own for
    complex z, :func:`_real_quotient` for float z."""
    return np.divide if np.iscomplexobj(z) else _real_quotient


@functools.lru_cache(maxsize=128)
def _term_columns(r: float, n_terms: int, dtype):
    """The columns p_k = r^(2k), -p_k and -p_k^2 for k = 1..n_terms.

    Each is a read-only (n_terms, 1) array of the given dtype whose entries
    are the Python floats r ** (2 * k) and their negations, so a table row
    carries the same operands as one factor of the product.
    """
    p = [r ** (2 * k) for k in range(1, n_terms + 1)]
    cols = []
    for vals in (p, [-x for x in p], [-(x * x) for x in p]):
        col = np.array(vals, dtype=dtype).reshape(-1, 1)
        col.flags.writeable = False
        cols.append(col)
    return tuple(cols)


def _fold(ufunc, out, rows):
    """out = ufunc(out, row) for each row in turn, left operand first.

    A one-point out is folded in fresh arrays: numpy runs a one-element
    operation written in place as a reduction, whose complex product rounds
    differently from the elementwise one.
    """
    if out.size > 1:
        for row in rows:
            ufunc(out, row, out)
        return
    acc = out
    for row in rows:
        acc = ufunc(acc, row)
    out[...] = acc


def _band_core(ctx: ThetaContext, v, order: int, div):
    """Product and log-derivative sums over the factors other than (1 - 1/v).

    Returns (P, L, Lp) with P = C * prod_k (1 - p_k v)(1 - p_k / v), L the
    sum of f'/f over these factors and Lp its derivative, all of v's dtype.
    None of these factors vanishes on the band.  Every quotient with a
    numerator other than 1 goes through div (see :func:`_quotient`): complex
    tables divide in numpy's scalar loop, float tables as x * (1/y), which
    is the same bits and several times cheaper.

    Each chunk of _CHUNK points builds its factor table (1 - p_k v)(1 - p_k/v)
    and the matching L and Lp term tables, one row per k, for a block of k
    at a time, and folds the rows into the outputs in order of k.  The
    arithmetic per point is that of a term-by-term loop, so a point gets the
    same bits whatever batch it is part of.
    """
    step = min(max(v.size, _TABLE_MIN), _TABLE_MAX) // max(min(v.size, _CHUNK), 1)
    cols = _term_columns(ctx.r, ctx.n_terms, v.dtype.type)
    blocks = [[col[k : k + step] for col in cols] for k in range(0, ctx.n_terms, step)]
    P = np.empty(v.shape, dtype=v.dtype)
    L = np.zeros(v.shape, dtype=v.dtype) if order >= 1 else None
    Lp = np.zeros(v.shape, dtype=v.dtype) if order >= 2 else None
    for lo in range(0, v.size, _CHUNK):
        chunk = slice(lo, lo + _CHUNK)
        w = v[chunk]
        P[chunk] = ctx.c_const
        for p, neg_p, neg_pp in blocks:
            a = 1.0 - p * w
            # explicit calls keep the operand order of a complex product,
            # which is not commutative bit for bit
            _fold(np.multiply, P[chunk], np.multiply(a, 1.0 - div(p, w)))
            if order >= 1:
                vb = w * (w - p)
                _fold(np.add, L[chunk], div(neg_p, a) + div(p, vb))
            if order >= 2:
                terms = div(neg_pp, a * a) - div(np.multiply(p, 2.0 * w - p), vb * vb)
                _fold(np.add, Lp[chunk], terms)
    return P, L, Lp


def _band_eval(ctx: ThetaContext, v, order: int, div):
    """(theta, theta', theta'') on the band r <= |v| <= 1/r.

    The band's one zero is that of f0 = 1 - 1/v, which is split off at every
    point: theta = f0 P, and the derivatives follow by the product rule from
    f0' = 1/v^2, f0'' = -2/v^3 and the sums of :func:`_band_core`.  No term
    is singular at v = 1, so the derivatives keep their relative precision
    next to the zero and through it.
    """
    P, L, Lp = _band_core(ctx, v, order, div)
    t0 = (1.0 - 1.0 / v) * P
    t1 = t2 = None
    if order >= 1:
        f0p = 1.0 / (v * v)
        t1 = f0p * P + t0 * L
    if order >= 2:
        # an explicit call: for large v the operator form would be
        # evaluated as (L * L + Lp) * t0, which rounds differently
        t2 = div(-2.0, v * v * v) * P + 2.0 * f0p * P * L + np.multiply(t0, L * L + Lp)
    return t0, t1, t2


def _reduce_band(ctx: ThetaContext, z):
    """theta1(z) = c * z^k * theta1(v) with v = q z, q = r^(2k), in one step.

    k = ctx.band_index(z) puts v in the band r <= |v| <= 1/r, and k-fold use
    of theta1(z) = -r^2 z theta1(r^2 z) gives c = (-1)^k r^(k(k+1)).
    Returns (c, k, q, v): c and q float64, k int64, v of z's dtype.  A NaN
    point gets k = 0 and stays NaN.
    """
    k = ctx.band_index(z)
    k[np.isnan(k)] = 0.0
    k = k.astype(np.int64)
    q = np.power(ctx.r, 2.0 * k)
    c = np.where(k & 1, -1.0, 1.0) * np.power(ctx.r, k * (k + 1.0))
    return c, k, q, z * q


def _eval(ctx: ThetaContext, z, order: int):
    """theta1 and derivatives at nonzero finite arguments (flat arrays).

    Returns (theta, theta', theta''), with None past ``order``, of z's
    dtype: complex128, or float64 with the bits of the complex path's real
    part.  theta and theta' do not depend on ``order``.
    """
    if (z == 0).any() or np.isinf(z).any():
        raise ValueError("theta1 is undefined at z = 0 and at infinity")
    div = _quotient(z)
    c, k, q, v = _reduce_band(ctx, z)
    t0, t1, t2 = _band_eval(ctx, v, order, div)
    # the complex integer power's bits; numpy's float64 power rounds otherwise
    zk = np.power(z, k) if np.iscomplexobj(z) else np.power(z + 0j, k).real
    theta = c * zk * t0
    dtheta = d2 = None
    if order >= 1:
        kz = div(k, z)
        dtheta = c * zk * (kz * t0 + q * t1)
    if order >= 2:
        d2 = c * zk * (div(k * (k - 1), z * z) * t0 + 2.0 * kz * q * t1 + q * q * t2)
    return theta, dtheta, d2


@pointwise
def theta1(ctx: ThetaContext, z):
    """The annular theta product at z: a Python complex for a scalar z, else
    an array of z's shape (the :func:`pointwise` convention)."""
    return _eval(ctx, z, 0)[0]


@pointwise
def dtheta1(ctx: ThetaContext, z):
    """First derivative of theta1, exact through the zeros."""
    return _eval(ctx, z, 1)[1]


def _guard_zero(ctx: ThetaContext, z):
    """Raise ThetaPoleError if a point lies on a zero (see ZERO_DIST)."""
    zero = ctx.nearest_zero(z)
    bad = np.abs(z - zero) <= ZERO_DIST * zero
    if bad.any():
        where = complex(z[bad.argmax()])
        location = float(ctx.nearest_zero(where))
        raise ThetaPoleError(f"theta1 vanishes at z = {where}; nearest zero {location}", location=location)


def _log_slopes(ctx: ThetaContext, z, order: int):
    """(log_slope, log_slope_deriv, theta1) at the flat points z from one
    kernel call, the second None unless order is 2; float z stays float."""
    t0, t1, t2 = _eval(ctx, z, order)
    _guard_zero(ctx, z)
    div = _quotient(z)
    h = div(z * t1, t0)
    if order < 2:
        return h, None, t0
    return h, div(t1, t0) + div(z * t2, t0) - div(h * h, z), t0


def _pair_slope(ctx: ThetaContext, center, z):
    """pair_slope on flat arrays of centres and points, with both log_slope
    arguments in one kernel call; float arrays stay float."""
    h = _log_slopes(ctx, np.concatenate([_quotient(z)(z, center), z * center]), 1)[0]
    return h[: z.size] + h[z.size :]


@pointwise
def log_slope(ctx: ThetaContext, z):
    """d log theta1 / d log z, i.e. z * theta1'(z) / theta1(z).

    Real on the real axis, with simple poles at the zeros r^(2k).  Satisfies
    log_slope(z) = 1 + log_slope(r^2 z) and log_slope(z) + log_slope(1/z) = -1,
    in particular log_slope(r) = -1.
    """
    return _log_slopes(ctx, z, 1)[0]


@pointwise
def log_slope_deriv(ctx: ThetaContext, z):
    """Derivative of log_slope with respect to z."""
    return _log_slopes(ctx, z, 2)[1]


def pair_slope(ctx: ThetaContext, center, z):
    """log_slope(z / center) + log_slope(z * center).

    For a real center in (-1, -r) this is the building block of the moduli
    conditions: it is real on the real axis, tends to -1 as z -> -1 along
    (-1, 0), and blows up at z = center where the first argument crosses the
    zero at 1.  Complex, in the broadcast shape of center and z, or a Python
    complex when both are scalars.
    """
    center, z = np.broadcast_arrays(
        np.asarray(center, dtype=np.complex128), np.asarray(z, dtype=np.complex128)
    )
    return _shaped(_pair_slope(ctx, center.reshape(-1), z.reshape(-1)), z.shape)
