"""Solve the two-singularity moduli for a given annulus radius and slope.

Input is (r, s) with r in (0, 1) and s in (-1, 0); the normalized slope s
prescribes the pairing value at the inner marker.  The solve runs in three
stages, each a one-dimensional root problem:

1. exponent: m in (-3, -2) from the balance
       2 log_slope(r^(-2(m+2))) = 1 + s + m,
   which fixes the marker product P = r^(-2(m+2)) = z1 z2;
2. inner split: for a candidate end marker z0, the point z2 in (-1, z0)
   with pair_slope(z0, z2) = s;
3. end marker: scan z0 over (-1, -r) for pair_slope(z0, P / z2(z0)) = s - 2,
   then refine the first sign change (the one nearest -1).

Every stage uses the one root finder, bracketed_root: a safeguarded
(Illinois) regula falsi that works elementwise on arrays.  The scan of stage
3 solves stage 2 for all its candidates in one array call, and each step of
the stage-3 refinement solves stage 2 for one candidate.  No step depends on
timing or randomness, so results are deterministic bit for bit.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .annulus import CanonicalModuli, fit_gauss_ratio, slit_map, slit_map_deriv
from .theta import ThetaContext, ThetaPoleError, log_slope, pair_slope

SCAN_POINTS = 256
RESIDUAL_TOL = 1e-10
# Iteration cap of bracketed_root.  Every third step at least halves the
# bracket, so a bracket of width 1 reaches 4 ulp in at most about 150 steps.
MAX_ITERS = 200


class BracketError(RuntimeError):
    """A root bracket could not be established or refined."""


class RangeNormalizationError(ValueError):
    """Parameters outside the normalized ranges r in (0,1), s in (-1,0)."""


@dataclass
class SolverTrace:
    """Diagnostics of one canonical solve, serializable for the CLI sidecar.

    exponent_iterations and outer_iterations count the iterations of
    bracketed_root in stages 1 and 3 (function evaluations after the
    bracket ends).
    """

    r: float
    s: float
    m: float = 0.0
    exponent_bracket: tuple = ()
    exponent_iterations: int = 0
    scan_points: int = 0
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
    called once per iteration with an array of the broadcast shape (entries
    that have stopped repeat their last point), and entries without a sign
    change come back as NaN.
    """
    scalar = np.ndim(lo) == 0 and np.ndim(hi) == 0
    f = (lambda x: np.float64(fn(float(x)))) if scalar else fn
    a, b = (np.array(v, dtype=float) for v in np.broadcast_arrays(lo, hi))
    fa = np.array(f(a) if flo is None else flo, dtype=float)
    fb = np.array(f(b) if fhi is None else fhi, dtype=float)
    found = np.where(fa == 0.0, a, np.where(fb == 0.0, b, np.nan))
    bracketed = np.sign(fa) * np.sign(fb) < 0.0
    if scalar and not (bracketed or fa == 0.0 or fb == 0.0):
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
        fx = np.asarray(f(x), dtype=float)
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
    return (float(root), n) if scalar else (root, n)


def solve_exponent(ctx: ThetaContext, s: float):
    """Stage 1: the exponent m in (-3, -2) and the bracket used.

    The balance function blows up to +inf at m = -3 (marker product at r^2)
    and to -inf at m = -2 (product at 1), so a bracket always exists; the
    inset shrinks adaptively until the signs differ.
    """
    r = ctx.r

    def balance(m):
        P = r ** (-2.0 * (m + 2.0))
        return 2.0 * log_slope(ctx, complex(P)).real - 1.0 - s - m

    for k in range(3, 13):
        eps = 10.0 ** (-k)
        lo, hi = -3.0 + eps, -2.0 - eps
        flo, fhi = balance(lo), balance(hi)
        if (flo > 0) != (fhi > 0):
            m, iters = bracketed_root(balance, lo, hi, flo, fhi)
            return m, (lo, hi), iters
    raise BracketError("exponent balance has no sign change in (-3, -2)")


def _pair_minus_s(ctx, centers, w, s):
    return pair_slope(ctx, centers * (1.0 + 0.0j), w * (1.0 + 0.0j)).real - s


def _inner_split(ctx: ThetaContext, z0s, s):
    """Stage 2 for an array of candidate end markers.

    For each z0 the target z2 lies in (-1, z0), where the pairing value
    decreases from just above s near -1 to +inf at z0.  Entries without a
    sign change come back as NaN.
    """
    z0s = np.asarray(z0s, dtype=float)
    lo = -1.0 + (1.0 + z0s) * 1e-6
    hi = z0s - np.abs(z0s) * 1e-9
    return bracketed_root(lambda w: _pair_minus_s(ctx, z0s, w, s), lo, hi)[0]


def solve_inner_point(ctx: ThetaContext, z0: float, s: float) -> float:
    """Stage 2 for a single end marker: z2 in (-1, z0) with pairing value s."""
    z2 = float(_inner_split(ctx, np.array([z0]), s)[0])
    if math.isnan(z2):
        raise BracketError(f"no inner split for z0={z0}")
    return z2


def _outer_scan(ctx: ThetaContext, s: float, P: float, n=SCAN_POINTS):
    """Stage 3 scan: residual of the outer pairing over candidate z0.

    Candidates whose inner split fails, or whose partner P/z2 would not lie
    in (z0, -r), are marked NaN.  Returns (z0 grid, residual grid).
    """
    z0s = np.linspace(-1.0 + 1e-6, -ctx.r * (1.0 + 1e-6), n)
    return z0s, _outer_values(ctx, s, P, z0s)


def _sign_changes(z0s, vals):
    """Consecutive valid pairs with a sign change, ordered as scanned."""
    out = []
    idx = np.flatnonzero(np.isfinite(vals[:-1]) & np.isfinite(vals[1:]))
    for i in idx:
        if (vals[i] > 0) != (vals[i + 1] > 0):
            out.append(i)
    return out


def _outer_values(ctx, s, P, z0s):
    """Outer pairing residual for an array of candidates (NaN when invalid)."""
    r = ctx.r
    z2s = _inner_split(ctx, z0s, s)
    with np.errstate(invalid="ignore", divide="ignore"):
        z1s = P / z2s
        ok = (z0s * z2s > P) & (z1s < -r)
    vals = np.full(z0s.shape, np.nan)
    if ok.any():
        vals[ok] = _pair_minus_s(ctx, z0s[ok], z1s[ok], s - 2.0)
    return vals


def solve_canonical(
    r: float, s: float, ctx: ThetaContext | None = None, tol: float = RESIDUAL_TOL
):
    """Full canonical solve: (r, s) -> (CanonicalModuli, SolverTrace).

    Raises RangeNormalizationError for parameters outside the normalized
    rectangle and BracketError when a root stage fails to bracket or the
    solved configuration misses the residual tolerance.
    """
    _check_rs(r, s)
    if ctx is None:
        ctx = ThetaContext.create(r)
    trace = SolverTrace(r=r, s=s)

    try:
        m, m_bracket, m_iters = solve_exponent(ctx, s)
        P = r ** (-2.0 * (m + 2.0))
        trace.m = m
        trace.exponent_bracket = m_bracket
        trace.exponent_iterations = m_iters

        z0s, vals = _outer_scan(ctx, s, P)
        trace.scan_points = int(z0s.size)
        changes = _sign_changes(z0s, vals)
        trace.outer_sign_changes = len(changes)
        if not changes:
            raise BracketError(f"outer pairing has no sign change for r={r}, s={s}")
        i = changes[0]
        trace.chosen_bracket = (float(z0s[i]), float(z0s[i + 1]))

        def outer(z0):
            val = _outer_values(ctx, s, P, np.array([z0]))[0]
            if math.isnan(val):
                raise BracketError("outer refinement lost the sign change")
            return val

        z0, trace.outer_iterations = bracketed_root(
            outer, float(z0s[i]), float(z0s[i + 1]), float(vals[i]), float(vals[i + 1])
        )

        z2 = solve_inner_point(ctx, z0, s)
        z1 = P / z2
        c1 = slit_map(ctx, z1, complex(z0)).real
        c2 = slit_map(ctx, z2, complex(z0)).real
        a_R, b_R = fit_gauss_ratio(ctx, z0, z1, z2)
    except ThetaPoleError as exc:
        # a probe exactly on a zero r^(2k) of theta1 is a stage failure
        raise BracketError(f"search stepped onto a theta zero for r={r}, s={s}: {exc}") from exc
    moduli = CanonicalModuli(
        r=r, s=s, m=m, z0=z0, z1=z1, z2=z2, c1=c1, c2=c2,
        a_R=a_R, b_R=b_R, c_height=abs(z1) * r ** (m + 1.0),
    )

    res = residuals(moduli, ctx)
    trace.residuals = res
    worst = max(abs(v) for v in res.values())
    if worst > tol:
        raise BracketError(f"solved configuration fails residual check: {res}")
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
