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

On the band the kernel returns theta1 with its log slope h = z theta1'/theta1
and the derivative h' directly.  The band's one zero is that of the factor
(v - 1)/v, and the difference v - 1 is exact next to v = 1; so theta1
keeps its relative precision next to a zero, and h and h' take the zero's
pole as the exact terms 1/(v - 1) and -1/(v - 1)^2 plus the sums of the
other factors, none of which is singular on the band.  theta1' itself
(:func:`dtheta1`) follows from the same sums by the product rule, exact
through the zeros.

The logarithmic derivatives have their poles at these known zeros and
nowhere else, so their guard is structural: a point within relative
distance ZERO_DIST of its nearest zero r^(2k) raises ThetaPoleError, and
every other point is evaluated, however small theta1 is there.

The product runs in complex128.  A second kernel evaluates the same
function by Jacobi's imaginary transformation (DLMF 20.7.30), which trades
the nome r for q' = exp(-pi^2 / l), l = -log r, in its theta-quotient form:
with y = pi lv / (2l) for a log lv of the argument, |Im lv| <= pi, theta1
is a Gaussian in lv times

    sum (-1)^n q'^(n(n+1)) sin((2n+1) y),

whose n-th term is at most q'^(n^2).  q' is small exactly where r is not:
the series needs 6 terms at r = 0.001, 4 at r = 0.05, 2 from r = 0.386 and
1 from r = 0.789 on, at every point and with no band reduction, where the
product needs 3, 7, 22 and 88 or more.  One coefficient table, the
context's c_n (ThetaContext.series_coefs), serves it in two precisions:

- float64 at positive real points, where y is real and the sum is a real
  sine series: the moduli solve takes log_slope and its derivative there
  (:func:`_real_log_slopes`);
- complex128 elsewhere, as D = sum (-1)^n q'^(n(n+1)) (E^(n+1) - E^(-n)) in
  E = exp(+-i pi lv / l), |E| <= 1 (:func:`_series_sums`): the annulus layer
  builds the data of immerse, shape_ratio and gauss_map and the range
  check's R from it (annulus._surface_series), the bulk of the mesh's and
  the validation battery's work.

Every other evaluator, the public functions here among them, stays on the
product, which also keeps the per-surface record's sqrt(C) and K' and the
solve's residual check on a route of their own: the check, which evaluates
the solved markers on the product, certifies the series' solve across the
two kernels.

Each pair of factors of the band product is one symmetric factor

    D_k = (1 - r^(2k) v)(1 - r^(2k) / v) = (1 + r^(4k)) - r^(2k) (v + 1/v),

the form of the classical product theta1 = 2 q^(1/4) sin z prod (1 - q^(2n))
(1 - 2 q^(2n) cos 2z + q^(4n)) with v = e^(2iz); so a term needs no division
for theta and one, r^(2k) / D_k, for the logarithmic derivatives.

Evaluation runs over chunks of points.  Each chunk builds the table of D_k
for a block of k in a few array operations, from the context's columns
(ThetaContext.term_columns), plus the table of the log-derivative terms,
and multiplies (or adds) the rows into the result in order of k.  Every
point sees the same operations in the same order as in a term-by-term
loop, so a value does not depend on the batch it is computed in: a scalar
call and the same point inside a batch of any size agree bit for bit.
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
    """The modulus r of the annulus, the one field.

    Everything else the kernels read is a function of r, built on first use
    and kept on the instance: the product's truncation n_terms and tail
    constant c_const, and the two kernels' term tables.  Equality and
    hashing read r alone.  Raises ValueError unless r lies in (0, 1) and
    c_const is positive in double precision.
    """

    r: float

    def __post_init__(self):
        if not 0.0 < self.r < 1.0:
            raise ValueError(f"modulus r must lie in (0, 1), got {self.r}")
        if self.c_const <= 0.0:
            # the factor product underflows long before this r reaches 1
            raise ValueError(
                f"modulus r={self.r} is too close to 1 for double precision "
                "(truncated product constant underflows)"
            )

    @classmethod
    def create(cls, r: float) -> "ThetaContext":
        return cls(float(r))

    @functools.cached_property
    def n_terms(self) -> int:
        """The product's term count: the least n >= 1 with r^(2n) < TRUNCATION_TOL."""
        return max(1, math.ceil(math.log(TRUNCATION_TOL) / (2.0 * math.log(self.r))))

    @functools.cached_property
    def c_const(self) -> float:
        """The tail constant C = prod_{k <= n_terms} (1 - r^(2k)), in (0, 1)."""
        return float(np.prod(1.0 - self.r ** (2.0 * np.arange(1, self.n_terms + 1))))

    @functools.cached_property
    def two_l(self) -> float:
        """2l = -2 log r, the log-modulus period of the band reduction."""
        return -2.0 * math.log(self.r)

    @functools.cached_property
    def term_columns(self):
        """The product's read-only complex columns p_k = r^(2k) and 1 + p_k^2,
        k = 1..n_terms, from the Python floats r ** (2 * k): a table row has
        the operands of one factor D_k = (1 + p_k^2) - p_k (v + 1/v)."""
        p = [self.r ** (2 * k) for k in range(1, self.n_terms + 1)]
        return tuple(_column(np.array(vals, dtype=np.complex128)) for vals in (p, [1.0 + x * x for x in p]))

    @functools.cached_property
    def k(self) -> float:
        """pi/l, l = -log r, the modular series' rate: q' = exp(-pi k)."""
        return math.pi * math.pi / -math.log(self.r) / math.pi

    @functools.cached_property
    def series_coefs(self) -> tuple:
        """c_n = (-1)^n q'^(n(n+1)), n < N, of the modular series as Python
        floats, with N the least count with q'^(N^2) < TRUNCATION_TOL: the
        n-th term is at most q'^(n^2) at real points and wherever
        q' <= |E| <= 1.  N is 4 from r = 0.023, 3 from r = 0.118, 2 from
        r = 0.386 and 1 from r = 0.789 on; the product takes 6, 10, 22, 88."""
        x = math.pi * math.pi / -math.log(self.r)  # -log q'
        n = math.floor(math.sqrt(-math.log(TRUNCATION_TOL) / x)) + 1
        return tuple((-1.0) ** j * math.exp(-x * j * (j + 1)) for j in range(n))

    @functools.cached_property
    def sine_columns(self):
        """The read-only float64 columns m_n = 2n + 1, c_n, m_n c_n and
        m_n^2 c_n of the real sine sums (:func:`_real_log_slopes`)."""
        m, c = np.arange(1.0, 2.0 * len(self.series_coefs), 2.0), np.array(self.series_coefs)
        mc = m * c
        return tuple(_column(a) for a in (m, c, mc, m * mc))

    def band_index(self, z):
        """The integer k, as a float, that takes nonzero z to the band:
        r <= |z r^(2k)| <= 1/r, elementwise."""
        return np.rint(np.log(np.abs(z)) / self.two_l)

    def nearest_zero(self, z):
        """The zero r^(-2k) nearest to nonzero z in log-modulus, elementwise,
        with k = band_index(z): the zero that the band reduction moves to 1.

        A scalar z gets the float r ** (-2 * k) of the factor columns; numpy's
        power over an array may round that value differently in the last bit.
        """
        return self.r ** (-2.0 * self.band_index(z))


def _column(values):
    """values as a read-only (n, 1) column."""
    col = values.reshape(-1, 1)
    col.flags.writeable = False
    return col


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


# Points per chunk, and the entries of one table: a row per term k and a
# column per point of the chunk, for as many k at a time as fit in
# _TABLE_MAX entries (512 KiB).  So a call of a few dozen points, the
# product's usual size, folds every term in one block, and a chunk 16.
_CHUNK = 2048
_TABLE_MAX = 32768


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


def _band_core(ctx: ThetaContext, v, order: int):
    """Product and sums over the band factors other than (v - 1)/v.

    Returns (P, S1, S2): P = C * prod_k D_k, and at orders 1 and 2 the sums
    S1 = sum t_k and S2 = sum t_k^2 of t_k = p_k / D_k (None past order).
    Each pair of factors is one symmetric factor

        D_k = (1 - p_k v)(1 - p_k / v) = (1 + p_k^2) - p_k u,   u = v + 1/v,

    none of which vanishes on the band.  With u' = 1 - 1/v^2 the
    log-derivative of D_k is -u' t_k and the derivative of t_k is u' t_k^2,
    so S1 and S2 carry the log slopes of :func:`_eval`; a term costs no
    division at order 0 and one, t_k, at orders 1 and 2.

    Each chunk of _CHUNK points computes u once and builds the table of D_k,
    and of t_k at orders 1 and 2, one row per k, for a block of k at a time,
    and folds the rows into the outputs in order of k.  The arithmetic per
    point is that of a term-by-term loop, so a point gets the same bits
    whatever batch it is part of.
    """
    step = _TABLE_MAX // max(min(v.size, _CHUNK), 1)
    blocks = [[col[k : k + step] for col in ctx.term_columns] for k in range(0, ctx.n_terms, step)]
    P = np.empty(v.shape, dtype=v.dtype)
    S1 = np.zeros(v.shape, dtype=v.dtype) if order >= 1 else None
    S2 = np.zeros(v.shape, dtype=v.dtype) if order >= 2 else None
    for lo in range(0, v.size, _CHUNK):
        chunk = slice(lo, lo + _CHUNK)
        w = v[chunk]
        u = w + 1.0 / w
        P[chunk] = ctx.c_const
        for p, one_pp in blocks:
            D = one_pp - p * u
            _fold(np.multiply, P[chunk], D)
            if order >= 1:
                t = p / D
                _fold(np.add, S1[chunk], t)
            if order >= 2:
                _fold(np.add, S2[chunk], t * t)
    return P, S1, S2


def _reduce_band(ctx: ThetaContext, z):
    """theta1(z) = c * z^k * theta1(v) with v = q z, q = r^(2k), in one step.

    k = ctx.band_index(z) puts v in the band r <= |v| <= 1/r, and k-fold use
    of theta1(z) = -r^2 z theta1(r^2 z) gives c = (-1)^k r^(k(k+1)).
    Returns (c, k, q, v): c and q float64, k int64, v complex.  A NaN point
    gets k = 0 and stays NaN; z = 0 and infinite z raise ValueError.
    """
    if np.count_nonzero(z == 0) or np.count_nonzero(np.isinf(z)):
        raise ValueError("theta1 is undefined at z = 0 and at infinity")
    k = ctx.band_index(z)
    k[np.isnan(k)] = 0.0
    k = k.astype(np.int64)
    q = np.power(ctx.r, 2.0 * k)
    c = np.where(k & 1, -1.0, 1.0) * np.power(ctx.r, k * (k + 1.0))
    return c, k, q, z * q


def _guard_zero(ctx: ThetaContext, z, k):
    """Raise ThetaPoleError if a point lies on a zero (see ZERO_DIST); k is
    ctx.band_index(z), so r^(-2k) is each point's nearest zero."""
    zero = ctx.r ** (-2.0 * k)
    bad = np.abs(z - zero) <= ZERO_DIST * zero
    if np.count_nonzero(bad):
        where = complex(z[bad.argmax()])
        location = float(ctx.nearest_zero(where))
        raise ThetaPoleError(f"theta1 vanishes at z = {where}; nearest zero {location}", location=location)


def _eval(ctx: ThetaContext, z, order: int):
    """(theta1, log_slope, log_slope_deriv) at nonzero finite complex128
    arguments (flat arrays), with None past ``order``.

    With v = q z in the band (:func:`_reduce_band`) and the sums of
    :func:`_band_core`,

        theta1(z)          = c z^k ((v - 1)/v) P,
        log_slope(z)       = k + 1/(v - 1) - (v - 1/v) S1,
        log_slope_deriv(z) = q (-1/(v - 1)^2 - (1 + 1/v^2) S1
                                - (v - 1/v)(1 - 1/v^2) S2).

    v - 1 is exact next to the band's zero v = 1, so all three keep their
    relative precision there.  At orders 1 and 2 a point on a zero raises
    ThetaPoleError before any division.  No value depends on ``order``.
    """
    c, k, q, v = _reduce_band(ctx, z)
    if order >= 1:
        _guard_zero(ctx, z, k)
    P, S1, S2 = _band_core(ctx, v, order)
    d = v - 1.0
    zk = np.power(z, k)
    theta = c * zk * (d / v * P)
    if order < 1:
        return theta, None, None
    iv = 1.0 / v
    w = v - iv
    h = k + 1.0 / d - w * S1
    if order < 2:
        return theta, h, None
    iv2 = iv * iv
    du = 1.0 - iv2
    return theta, h, (-1.0 / (d * d) - (1.0 + iv2) * S1 - w * du * S2) * q


@pointwise
def theta1(ctx: ThetaContext, z):
    """The annular theta product at z: a Python complex for a scalar z, else
    an array of z's shape (the :func:`pointwise` convention)."""
    return _eval(ctx, z, 0)[0]


@pointwise
def dtheta1(ctx: ThetaContext, z):
    """First derivative of theta1, exact through the zeros.

    The product rule on theta1 = c z^k f P, f = (v - 1)/v (see :func:`_eval`),
    gives theta1' = c z^k (k/z f P + q P (1/v^2 - f (1 - 1/v^2) S1)).
    Explicit calls keep the operand order of each complex product, which is
    not commutative bit for bit, so a point gets the same bits in any batch.
    """
    c, k, q, v = _reduce_band(ctx, z)
    P, S1, _ = _band_core(ctx, v, 1)
    f = (v - 1.0) / v
    iv2 = 1.0 / (v * v)
    band = np.multiply(P, iv2 - np.multiply(f, 1.0 - iv2) * S1)
    zk = np.power(z, k)
    return c * zk * (k / z * (f * P) + q * band)


def _real_log_slopes(ctx: ThetaContext, w, order: int):
    """(log_slope, log_slope_deriv) at flat float64 points w > 0 from the
    modular series, the second None unless order is 2.

    w is reduced into the band as by the product, v = r^(2k) w with
    k = ctx.band_index(w).  At the real point y = pi log v / (2l) the sum
    of :func:`_series_sums` is, up to a unit factor, the real sine series
    S = sum c_n sin(m_n y); theta1(v) is S times a Gaussian in log v, and
    with S1 = sum m_n c_n cos(m_n y) and S2 = sum m_n^2 c_n sin(m_n y)
    (c_n, m_n of ThetaContext.sine_columns)

        log_slope(w)       = k - 1/2 + log v / (2l) + (pi/2l) S1/S,
        log_slope_deriv(w) = (1/(2l) - (pi/2l)^2 (S2/S + (S1/S)^2)) / w.

    S vanishes only at y = 0, through sin y, so both keep their relative
    precision next to the zero.  log v is log w - 2kl, which carries the
    rounding of log w, about eps |log w|, where |log w| < 2, and
    log(r^(2k) w), which carries that of the two products, about 2 eps,
    elsewhere; the first keeps thin annuli, where log_slope changes by
    (pi/2l)^2 per unit of log v, accurate.  Each sum is built as a table
    with a row per n and folded in order of n, so a point gets the same
    bits in any batch.  Raises ValueError unless every w is finite and
    positive, and ThetaPoleError at a zero r^(2k) as log_slope does.
    """
    if not np.all((w > 0.0) & (w < math.inf)):
        raise ValueError("the modular series takes finite positive arguments")
    m, c, mc, mmc = ctx.sine_columns
    half = math.pi / ctx.two_l
    log_w = np.log(w)
    k = np.rint(log_w / ctx.two_l)  # ctx.band_index(w)
    _guard_zero(ctx, w, k)
    log_v = log_w - k * ctx.two_l
    far = np.abs(log_w) >= 2.0
    if np.count_nonzero(far):
        log_v[far] = np.log(w[far] * np.power(ctx.r, 2.0 * k[far]))
    my = m * (half * log_v)
    sin_my = np.sin(my)
    S = np.zeros(w.shape)
    _fold(np.add, S, c * sin_my)
    S1 = np.zeros(w.shape)
    _fold(np.add, S1, mc * np.cos(my))
    rho = S1 / S
    h = (k - 0.5) + log_v / ctx.two_l + half * rho
    if order < 2:
        return h, None
    S2 = np.zeros(w.shape)
    _fold(np.add, S2, mmc * sin_my)
    return h, (1.0 / ctx.two_l - half * half * (S2 / S + rho * rho)) / w


def _series_sums(ctx: ThetaContext, E, em1, order: int):
    """(D, N1/D, N2/D - (N1/D)^2) of the modular series at E, flat complex
    arrays with q' <= |E| <= 1, em1 = E - 1; None past ``order``.

        D  = sum c_n (E^(n+1) - E^(-n)) = (E - 1) sum c_n (E^-n + ... + E^n),
        N1 = sum c_n ((n+1) E^(n+1) + n E^(-n)),
        N2 = sum c_n ((n+1)^2 E^(n+1) - n^2 E^(-n)),

    with the c_n of ThetaContext.series_coefs.  D vanishes only at E = 1,
    and only through its factor E - 1: a caller that hands in a
    cancellation-free em1 keeps D's relative precision next to a zero.  The operations are
    elementwise and run in a fixed order, so a point gets the same bits in
    any batch.
    """
    c = ctx.series_coefs
    S, N1, N2 = 1.0, E, E
    if len(c) > 1:
        inv = 1.0 / E
        up, down, G = E, inv, 1.0 + (E + inv)
        for n in range(1, len(c)):
            if n > 1:
                down = down * inv
                G = G + (up + down)
            up = up * E
            S = S + c[n] * G
            if order >= 1:
                N1 = N1 + c[n] * ((n + 1) * up + n * down)
            if order >= 2:
                N2 = N2 + c[n] * ((n + 1) ** 2 * up - n * n * down)
    D = em1 * S
    if order < 1:
        return D, None, None
    rho = N1 / D
    return D, rho, (N2 / D - rho * rho if order >= 2 else None)


def _expm1(w):
    """exp(w) - 1 at complex w without cancellation next to w = 0."""
    a, b = w.real, w.imag
    s = np.sin(0.5 * b)
    out = np.empty(w.shape, dtype=np.complex128)
    out.real = np.expm1(a) * np.cos(b) - 2.0 * s * s
    out.imag = np.exp(a) * np.sin(b)
    return out


def _guard_series_zeros(ctx: ThetaContext, em1, args):
    """Raise ThetaPoleError as :func:`_guard_zero` does at the points whose
    series variable E is within a few ZERO_DIST (times pi/l) of 1, the image
    of every zero; args(mask) gives those points' theta1 arguments."""
    near = np.abs(em1) <= 2.0 * ZERO_DIST * ctx.k
    if np.count_nonzero(near):
        v = args(near)
        _guard_zero(ctx, v, ctx.band_index(v))


@pointwise
def log_slope(ctx: ThetaContext, z):
    """d log theta1 / d log z, i.e. z * theta1'(z) / theta1(z).

    Real on the real axis, with simple poles at the zeros r^(2k).  Satisfies
    log_slope(z) = 1 + log_slope(r^2 z) and log_slope(z) + log_slope(1/z) = -1,
    in particular log_slope(r) = -1.
    """
    return _eval(ctx, z, 1)[1]


@pointwise
def log_slope_deriv(ctx: ThetaContext, z):
    """Derivative of log_slope with respect to z."""
    return _eval(ctx, z, 2)[2]


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
    c, w = center.reshape(-1), z.reshape(-1)
    # both log_slope arguments in one kernel call
    h = _eval(ctx, np.concatenate([w / c, w * c]), 1)[1]
    return _shaped(h[: w.size] + h[w.size :], z.shape)
