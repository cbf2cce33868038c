"""Solve the two-singularity moduli for a given annulus radius and slope.

Input is (r, s) with r in (0, 1) and s in (-1, 0); the normalized slope s
prescribes the pairing value at the inner marker.  The solve runs in three
stages:

1. exponent: m in (-3, -2) from the balance
       2 log_slope(r^(-2(m+2))) = 1 + s + m,
   which fixes the marker product P = r^(-2(m+2)) = z1 z2;
2. inner split: for a candidate end marker z0, the point z2 in (-1, z0)
   with pair_slope(z0, z2) = s;
3. end marker: scan z0 over (-1, -r) for pair_slope(z0, P / z2(z0)) = s - 2,
   take the first sign change (the one nearest -1), and polish (z0, z2) by
   Newton's method on both pairing conditions at once, starting from the
   secant point of that bracket and staying inside it.

Stages 1 and 2 use the one root finder, bracketed_root: a safeguarded
(Illinois) regula falsi that works elementwise on arrays.  The scan solves
stage 2 for all its candidates in one array call, and each of its iterations
evaluates only the candidates not yet settled.  No step depends on timing or
randomness, so results are deterministic bit for bit.

Every argument of the three stages is real, so the solver calls the flat
bodies of the theta functions on float64 arrays, which the kernel evaluates
in float64 with the bits of its complex path (see flatfront.theta).  A
pairing value takes both of its log_slope arguments from one kernel call,
and a Newton step takes log_slope and its derivative from one order-2 call.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .annulus import CanonicalModuli, fit_gauss_ratio, slit_map, slit_map_deriv
from .theta import ThetaContext, ThetaPoleError, _log_slopes, _pair_slope

SCAN_POINTS = 256
RESIDUAL_TOL = 1e-10
# Iteration cap of bracketed_root and of the stage-3 Newton loop.  Every
# third step of bracketed_root at least halves the bracket, so a bracket of
# width 1 reaches 4 ulp in at most about 150 steps.
MAX_ITERS = 200


class BracketError(RuntimeError):
    """A root bracket could not be established or refined."""


class RangeNormalizationError(ValueError):
    """Parameters outside the normalized ranges r in (0,1), s in (-1,0)."""


@dataclass
class SolverTrace:
    """Diagnostics of one canonical solve, serializable for the CLI sidecar.

    exponent_iterations and scan_iterations count the iterations of
    bracketed_root in stage 1 and in the stage-2 solve of the scan (function
    evaluations after the bracket ends).  outer_iterations counts the Newton
    steps of stage 3, each one order-2 kernel call.
    """

    r: float
    s: float
    m: float = 0.0
    exponent_bracket: tuple = ()
    exponent_iterations: int = 0
    scan_points: int = 0
    scan_iterations: int = 0
    outer_sign_changes: int = 0
    chosen_bracket: tuple = ()
    outer_iterations: int = 0
    residuals: dict = field(default_factory=dict)

    def to_dict(self) -> dict:
        return asdict(self)


def _check_rs(r: float, s: float):
    if not 0.0 < r < 1.0:
        raise RangeNormalizationError(f"radius r={r} outside (0, 1)")
    if not -1.0 < s < 0.0:
        raise RangeNormalizationError(f"slope s={s} outside (-1, 0)")


def bracketed_root(fn, lo, hi, flo=None, fhi=None):
    """Root of fn on the sign-changing bracket [lo, hi], elementwise.

    Illinois regula falsi: each step goes to the secant point of the
    bracket, computed with the stored value at an end kept twice in a row
    halved.  A step bisects instead when the secant point is not inside the
    bracket (an infinite or NaN value) or when the last two steps have not
    halved the bracket.  An entry stops at fn == 0 or at a bracket width of
    4 ulp; MAX_ITERS bounds the loop.  Returns (root, iterations).

    With scalar lo and hi, fn is called with floats, the root is a float and
    a bracket without a sign change raises BracketError.  With arrays, fn is
    called as fn(x, i) once per iteration, on the entries still active only:
    x holds their points and i their indices into the flattened broadcast
    arrays, so fn subsets any per-entry parameter with i.  A point's value
    must not depend on the batch it is evaluated in; then each entry gets
    the same bits as in a scalar call.  Entries without a sign change come
    back as NaN.
    """
    scalar = np.ndim(lo) == 0 and np.ndim(hi) == 0
    f = (lambda x, i: fn(x.item())) if scalar else fn
    ends = np.broadcast_arrays(lo, hi)
    shape = ends[0].shape
    a, b = (np.array(v, dtype=float).ravel() for v in ends)
    every = np.arange(a.size)
    fa = np.array(f(a, every) if flo is None else flo, dtype=float).reshape(a.shape)
    fb = np.array(f(b, every) if fhi is None else fhi, dtype=float).reshape(a.shape)
    found = np.where(fa == 0.0, a, np.where(fb == 0.0, b, np.nan))
    bracketed = np.sign(fa) * np.sign(fb) < 0.0
    if scalar and not bracketed[0] and np.isnan(found[0]):
        raise BracketError(f"no sign change on [{lo}, {hi}]")

    def wide(a, b):
        return np.abs(b - a) > 4.0 * np.spacing(np.maximum(np.abs(a), np.abs(b)))

    active = bracketed & wide(a, b)
    x = a
    kept = np.zeros(a.shape, dtype=int)  # end kept by the last step: -1 lo side, +1 hi side
    width = np.abs(b - a)
    w1 = w2 = np.full(a.shape, np.inf)
    n = 0
    while active.any() and n < MAX_ITERS:
        with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
            c = b - fb * (b - a) / (fb - fa)
        left, right = np.minimum(a, b), np.maximum(a, b)
        secant = (left <= c) & (c <= right) & (width <= 0.5 * w2)
        # a secant point rounded onto or next to an end moves 2 ulp inside, so
        # a root approached from one side closes the bracket instead of
        # bisecting all the way down to it
        step = 2.0 * np.spacing(np.maximum(np.abs(a), np.abs(b)))
        c = np.clip(c, left + step, right - step)
        x = np.where(active, np.where(secant, c, a + 0.5 * (b - a)), x)
        i = np.flatnonzero(active)
        fx = np.zeros(a.shape)
        fx[i] = f(x[i], i)
        n += 1
        to_a = active & (np.sign(fx) == np.sign(fa))
        to_b = active & ~to_a
        fb = np.where(to_a & (kept == 1), 0.5 * fb, fb)
        fa = np.where(to_b & (kept == -1), 0.5 * fa, fa)
        a, fa = np.where(to_a, x, a), np.where(to_a, fx, fa)
        b, fb = np.where(to_b, x, b), np.where(to_b, fx, fb)
        kept = np.where(to_a, 1, np.where(to_b, -1, kept))
        w2, w1, width = w1, width, np.abs(b - a)
        hit = active & (fx == 0.0)
        found = np.where(hit, x, found)
        active &= ~hit & wide(a, b)
    root = np.where(bracketed & np.isnan(found), a + 0.5 * (b - a), found)
    return (float(root[0]), n) if scalar else (root.reshape(shape), n)


def solve_exponent(ctx: ThetaContext, s: float):
    """Stage 1: the exponent m in (-3, -2) and the bracket used.

    The balance function blows up to +inf at m = -3 (marker product at r^2)
    and to -inf at m = -2 (product at 1), so a bracket always exists; the
    inset shrinks adaptively until the signs differ.
    """
    r = ctx.r

    def balance(m):
        P = r ** (-2.0 * (m + 2.0))
        return 2.0 * float(_log_slopes(ctx, np.array([P]), 1)[0][0]) - 1.0 - s - m

    for k in range(3, 13):
        eps = 10.0 ** (-k)
        lo, hi = -3.0 + eps, -2.0 - eps
        flo, fhi = balance(lo), balance(hi)
        if (flo > 0) != (fhi > 0):
            m, iters = bracketed_root(balance, lo, hi, flo, fhi)
            return m, (lo, hi), iters
    raise BracketError("stage 1: exponent balance has no sign change in (-3, -2)")


def _pair_minus_s(ctx, centers, w, s):
    return _pair_slope(ctx, centers, w) - s


def _inner_split(ctx: ThetaContext, z0s, s):
    """Stage 2 for an array of candidate end markers.

    For each z0 the target z2 lies in (-1, z0), where the pairing value
    decreases from just above s near -1 to +inf at z0.  Entries without a
    sign change come back as NaN.  Returns (z2s, iterations).
    """
    z0s = np.asarray(z0s, dtype=float)
    lo = -1.0 + (1.0 + z0s) * 1e-6
    hi = z0s - np.abs(z0s) * 1e-9
    return bracketed_root(lambda w, i: _pair_minus_s(ctx, z0s[i], w, s), lo, hi)


def _outer_scan(ctx: ThetaContext, s: float, P: float, n=SCAN_POINTS):
    """The scan: stage 2 for a grid of candidate z0, then the residual of the
    stage-3 outer pairing at each.

    Candidates whose inner split fails, or whose partner P/z2 would not lie
    in (z0, -r), are marked NaN.  Returns (z0 grid, residual grid, z2 grid,
    iterations of the stage-2 solve).
    """
    r = ctx.r
    z0s = np.linspace(-1.0 + 1e-6, -r * (1.0 + 1e-6), n)
    z2s, iters = _inner_split(ctx, z0s, s)
    with np.errstate(invalid="ignore", divide="ignore"):
        z1s = P / z2s
        ok = (z0s * z2s > P) & (z1s < -r)
    vals = np.full(z0s.shape, np.nan)
    if ok.any():
        vals[ok] = _pair_minus_s(ctx, z0s[ok], z1s[ok], s - 2.0)
    return z0s, vals, z2s, iters


def _sign_changes(z0s, vals):
    """Consecutive valid pairs with a sign change, ordered as scanned."""
    out = []
    idx = np.flatnonzero(np.isfinite(vals[:-1]) & np.isfinite(vals[1:]))
    for i in idx:
        if (vals[i] > 0) != (vals[i + 1] > 0):
            out.append(i)
    return out


def _newton_markers(ctx: ThetaContext, s, P, z0, z2, bracket):
    """Stage 3 polish: Newton's method on (z0, z2) inside the scan bracket.

    Solves F1 = pair_slope(z0, z2) - s = 0 and F2 = pair_slope(z0, z1) -
    (s - 2) = 0 with z1 = P/z2.  Each step takes log_slope and its
    derivative at the points z2/z0, z2 z0, z1/z0, z1 z0 from one kernel
    call, builds the Jacobian by the chain rule and solves it by Cramer's
    rule.  Newton reaches the rounding floor and then wanders there, so the
    loop stops at F1 = F2 = 0 or at the first step, measured in ulps, that
    is not at most half the one before (that step is not taken).  Returns
    (z0, z2, steps).
    """
    prev = math.inf
    for n in range(1, MAX_ITERS + 1):
        z1 = P / z2
        pts = np.array([z2 / z0, z2 * z0, z1 / z0, z1 * z0])
        L, D = _log_slopes(ctx, pts, 2)
        f1 = L[0] + L[1] - s
        f2 = L[2] + L[3] - (s - 2.0)
        if f1 == 0.0 and f2 == 0.0:
            return z0, z2, n
        # d pair_slope(z0, w) / d z0 = w (L'(w z0) - L'(w/z0) / z0^2)
        # d pair_slope(z0, w) / d w  = L'(w/z0) / z0 + L'(w z0) z0
        j11 = z2 * (D[1] - D[0] / (z0 * z0))
        j12 = D[0] / z0 + D[1] * z0
        j21 = z1 * (D[3] - D[2] / (z0 * z0))
        j22 = -(z1 / z2) * (D[2] / z0 + D[3] * z0)  # dz1/dz2 = -z1/z2
        det = j11 * j22 - j12 * j21
        d0 = (f1 * j22 - j12 * f2) / det
        d2 = (j11 * f2 - f1 * j21) / det
        size = max(abs(d0) / math.ulp(z0), abs(d2) / math.ulp(z2))
        if size > 0.5 * prev:
            return z0, z2, n
        prev = size
        z0, z2 = z0 - d0, z2 - d2
        if not bracket[0] <= z0 <= bracket[1]:
            raise BracketError(f"stage 3: Newton step left the scan bracket {bracket}: z0={z0}")
        if not -1.0 < z2 < z0 < P / z2 < -ctx.r:
            raise BracketError(f"stage 3: Newton step broke -1 < z2 < z0 < z1 < -r: z0={z0}, z2={z2}")
    raise BracketError(f"stage 3: Newton did not settle in {MAX_ITERS} steps")


def solve_canonical(
    r: float, s: float, ctx: ThetaContext | None = None, tol: float = RESIDUAL_TOL
):
    """Full canonical solve: (r, s) -> (CanonicalModuli, SolverTrace).

    Raises RangeNormalizationError for parameters outside the normalized
    rectangle and BracketError, its message starting with the failing
    stage, when a root stage fails to bracket or converge or the solved
    configuration misses the residual tolerance.
    """
    _check_rs(r, s)
    if ctx is None:
        ctx = ThetaContext.create(r)
    trace = SolverTrace(r=r, s=s)

    stage = 1
    try:
        m, m_bracket, m_iters = solve_exponent(ctx, s)
        P = r ** (-2.0 * (m + 2.0))
        trace.m = m
        trace.exponent_bracket = m_bracket
        trace.exponent_iterations = m_iters

        stage = 2
        z0s, vals, z2s, trace.scan_iterations = _outer_scan(ctx, s, P)
        trace.scan_points = int(z0s.size)

        stage = 3
        changes = _sign_changes(z0s, vals)
        trace.outer_sign_changes = len(changes)
        if not changes:
            raise BracketError(f"stage 3: outer pairing has no sign change for r={r}, s={s}")
        i = changes[0]
        trace.chosen_bracket = (float(z0s[i]), float(z0s[i + 1]))
        t = vals[i] / (vals[i] - vals[i + 1])
        z0, z2, trace.outer_iterations = _newton_markers(
            ctx, s, P,
            float(z0s[i] + t * (z0s[i + 1] - z0s[i])),
            float(z2s[i] + t * (z2s[i + 1] - z2s[i])),
            trace.chosen_bracket,
        )
        z1 = P / z2
        c1 = slit_map(ctx, z1, complex(z0)).real
        c2 = slit_map(ctx, z2, complex(z0)).real
        a_R, b_R = fit_gauss_ratio(ctx, z0, z1, z2)
    except ThetaPoleError as exc:
        # a probe exactly on a zero r^(2k) of theta1 is a stage failure
        raise BracketError(
            f"stage {stage}: search stepped onto a theta zero for r={r}, s={s}: {exc}"
        ) from exc
    moduli = CanonicalModuli(
        r=r, s=s, m=m, z0=z0, z1=z1, z2=z2, c1=c1, c2=c2,
        a_R=a_R, b_R=b_R, c_height=abs(z1) * r ** (m + 1.0),
    )

    res = residuals(moduli, ctx)
    trace.residuals = res
    worst = max(abs(v) for v in res.values())
    if worst > tol:
        raise BracketError(f"stage 3: solved configuration fails residual check: {res}")
    return moduli, trace


def residuals(moduli: CanonicalModuli, ctx: ThetaContext | None = None) -> dict:
    """Raw closing residuals of a configuration, from scratch.

    c1_res: period balance  m + c1 z1 - z1 R'(z1) + z2 R'(z2)
    c2_res: end balance     c1 z1 - c2 z2 - 2
    c3_res: product balance z1 z2 r^(2(m+2)) - 1

    All three vanish identically for correctly solved moduli; they are
    evaluated from the stored fields only, so corrupted files show up.
    """
    if ctx is None:
        ctx = ThetaContext.create(moduli.r)
    a = moduli.a_R
    rp1 = a * slit_map_deriv(ctx, moduli.z0, complex(moduli.z1)).real
    rp2 = a * slit_map_deriv(ctx, moduli.z0, complex(moduli.z2)).real
    c1_res = moduli.m + moduli.c1 * moduli.z1 - moduli.z1 * rp1 + moduli.z2 * rp2
    c2_res = moduli.c1 * moduli.z1 - moduli.c2 * moduli.z2 - 2.0
    c3_res = moduli.z1 * moduli.z2 * moduli.r ** (2.0 * (moduli.m + 2.0)) - 1.0
    return {"c1_res": float(c1_res), "c2_res": float(c2_res), "c3_res": float(c3_res)}
