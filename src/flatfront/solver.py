"""Solve the two-singularity moduli for a given annulus radius and slope.

Input is (r, s) with r in (0, 1) and s in (-1, 0); the normalized slope s
prescribes the pairing value at the inner marker.  The solve runs in three
stages:

1. exponent: m in (-3, -2) from the balance
       2 log_slope(r^(-2(m+2))) = 1 + s + m,
   which fixes the marker product P = r^(-2(m+2)) = z1 z2; the root finder
   runs on the balance times -sin(pi (m+2)), which is positive on (-3, -2)
   and cancels the balance's poles at both ends, where P is a zero of
   theta1;
2. inner split: for a candidate end marker z0, the point z2 in (-1, z0)
   with pair_slope(z0, z2) = s;
3. end marker: scan z0 over (-1, -r) for pair_slope(z0, P / z2(z0)) = s - 2,
   take the first sign change (the one nearest -1), and polish (z0, z2) by
   Newton's method on both pairing conditions at once, starting from the
   secant point of that bracket and staying inside it.

Every stage finds its root by Newton's method.  Stages 1 and 2 use
bracketed_root, which bisects its sign bracket where a Newton step would
leave it or fails to halve, elementwise on arrays.  Neither stage depends
on the other, so the scan solves both in one array call: stage 1 is one
more entry beside stage 2 for each candidate, and each iteration evaluates,
and updates, only the entries not yet settled, each stage getting the bits
of a call of its own.  No step depends on timing or randomness, so results
are deterministic bit for bit.

Every argument of the three stages is a positive real, so the stages take
log_slope and its derivative from the modular series, which the surface
evaluators take at complex points, in its real form in float64 (see
flatfront.theta): it needs at most 4 terms from r = 0.023 on and 1 from
r = 0.789, where the product needs 6 and 88.  A Newton step takes both at
all its points, of stages 1 and 2 alike, from one order-2 series call, a
pairing value of the scan from one order-1 call.  Every stage stops at the
same rounding floor, FLOOR_ULPS.

The closing step reads c1 = slit_map(z1, z0), c2 = slit_map(z2, z0), the
two slit values of fit_gauss_ratio and R'(z1), R'(z2) from one marker pass
of the product kernel (annulus._marker_slits: one order-2 call over the
eight arguments marker/z and marker z of the four slit values).  The
kernel gives a point the same bits in any batch, so the moduli and the
residuals equal those of the one-point calls and of residuals() bit for
bit.  The residuals thus come from the product, a route independent of
the series that found the markers: the check certifies the solve across
both kernels.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass, field

import numpy as np

from .annulus import CanonicalModuli, _marker_slits, _ratio_coefficients
from .theta import ThetaContext, ThetaPoleError, _real_log_slopes

SCAN_POINTS = 256
RESIDUAL_TOL = 1e-10
# Iteration cap of bracketed_root and of the stage-3 Newton loop.  A step of
# bracketed_root either at most halves the step before it or halves the
# bracket, so a solve stops long before the cap; it bounds a loop that a
# faulty function would keep going.
MAX_ITERS = 200
# Stage 1's bracket.  The balance runs from +inf at m = -3 (marker product
# r^2, a zero of theta1) to -inf at m = -2 (product 1); this inset keeps a
# sign change for r from 0.01 to 0.99 and s from -0.999999 to -1e-6.
EXPONENT_BRACKET = (-3.0 + 1e-3, -2.0 - 1e-3)
# The rounding floor of every stage: a root finder stops after a step of at
# most this many ulp.  Rounding noise in a pairing puts its root anywhere
# within about 10 ulp where its slope is near 0.4 (stage 2 at r = 0.05,
# s = -0.99); a Newton step inside that noise need not halve, so a lower
# floor sends bracketed_root off bisecting a one-sided bracket, and stage 3
# on a step or two that the noise decides.
FLOOR_ULPS = 16.0


class BracketError(RuntimeError):
    """A root bracket could not be established or refined."""


class RangeNormalizationError(ValueError):
    """Parameters outside the normalized ranges r in (0,1), s in (-1,0)."""


@dataclass
class SolverTrace:
    """Diagnostics of one canonical solve, serializable for the CLI sidecar.

    Stage 1, on the pole-free balance, and the stage-2 solve of the scan
    share one bracketed_root call, each iteration one order-2 series call
    over their active entries.  exponent_iterations and scan_iterations
    count, per stage, the calls after the one at the bracket ends that held
    one of its entries: the iterations of a call of its own.
    outer_iterations counts the order-2 series calls of stage 3, one per
    Newton step taken or refused.  The solve makes one call of the product
    kernel, the closing marker pass, whose values also give the residuals.
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


def bracketed_root(fn, lo, hi):
    """Roots of fn on the sign-changing brackets [lo, hi], elementwise.

    fn(x, i) returns (f, f') at the points x; i holds their indices into the
    flattened broadcast arrays of lo and hi, so fn subsets any per-entry
    parameter with i, and the roots come back in that flat order.  The
    first call takes both ends of every bracket, each later call the entries
    still active only, in increasing order of i.  A point's value must not
    depend on the batch it is evaluated in; then each entry gets the same
    bits as in a one-entry call.

    Each entry starts at the end with the smaller |f|.  A step is Newton's,
    x - f/f', when that lands in the bracket and is at most half the step
    before it (the first step is measured against the bracket); otherwise
    the step bisects the bracket.  The new point replaces the end whose
    value has its sign.  An entry stops at f == 0 or after a step of at most
    FLOOR_ULPS ulp; MAX_ITERS bounds the loop.  Returns (roots, iterations),
    the iterations counting the calls after the one at the ends.  Entries
    without a sign change come back as NaN.

    The state of the active entries is held in compact arrays: an entry
    leaves them once, when it stops, and its root is written out then, so
    a step costs array operations on the active entries only.
    """
    a, b = (np.array(v, dtype=float).ravel() for v in np.broadcast_arrays(lo, hi))
    k = np.arange(a.size)
    both = np.concatenate([a, b])
    f, d = fn(both, np.concatenate([k, k]))
    fa, fb = f[: a.size], f[a.size :]
    roots = np.where(fa == 0.0, a, np.where(fb == 0.0, b, np.nan))
    side = np.sign(fa)  # the sign a new point needs to replace a
    live = np.flatnonzero(side * np.sign(fb) < 0.0)
    start = np.where(np.abs(fa) <= np.abs(fb), k, k + a.size)[live]
    x, fx, dfx = both[start], f[start], d[start]
    a, b, side = a[live], b[live], side[live]
    step = np.abs(b - a)
    n = 0
    while live.size and n < MAX_ITERS:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            newton = x - fx / dfx
            inside = (np.minimum(a, b) <= newton) & (newton <= np.maximum(a, b))
            shrinks = np.abs(newton - x) <= 0.5 * step
        new = np.where(inside & shrinks, newton, a + 0.5 * (b - a))
        step = np.abs(new - x)
        # an entry stops on a zero of fn at x, or after a step to new of at
        # most FLOOR_ULPS ulp
        hit = fx == 0.0
        done = hit | ~(step > FLOOR_ULPS * np.spacing(np.abs(new)))
        if np.count_nonzero(done):
            roots[live[done]] = np.where(hit, x, new)[done]
            keep = ~done
            live, a, b, new, side, step = (v[keep] for v in (live, a, b, new, side, step))
        x = new
        if not live.size:
            break
        fx, dfx = fn(x, live)
        n += 1
        to_a = np.sign(fx) == side
        a = np.where(to_a, x, a)
        b = np.where(to_a, b, x)
    roots[live] = x
    return roots, n


def _pairing(ctx: ThetaContext, z0, w, order: int):
    """pair_slope(z0, w) on a flat array w, with its derivatives in w and in
    z0 at order 2 (None at order 1), from one series call of that order; z0
    is a float or an array like w.  The pairing does not depend on the
    order."""
    return _pair_slopes(z0, w, *_real_log_slopes(ctx, np.concatenate([w / z0, w * z0]), order))


def _pair_slopes(z0, w, L, D):
    """_pairing from the log slopes L and derivatives D (or None) at the
    stacked points w/z0 and w z0."""
    if D is None:
        return L[: w.size] + L[w.size :], None, None
    inv, fwd = D[: w.size], D[w.size :]
    # d pair_slope(z0, w) / d w  = L'(w/z0) / z0 + L'(w z0) z0
    # d pair_slope(z0, w) / d z0 = w (L'(w z0) - L'(w/z0) / z0^2)
    return L[: w.size] + L[w.size :], inv / z0 + fwd * z0, w * (fwd - inv / (z0 * z0))


def _inner_split(ctx: ThetaContext, z0s, s, exponent=False):
    """Stage 2 for an array of candidate end markers and, with exponent,
    stage 1 as one more entry of the same bracketed_root call.

    For each z0 the target z2 lies in (-1, z0), where the pairing rises
    from about -1 near -1, which is below every s, to +inf at z0.  Neither
    stage depends on the other, and the loop is elementwise, so each gets
    the bits of a call of its own.  Each iteration takes the log slopes of
    every active entry from one order-2 series call: at P = r^(-2(m+2))
    for the exponent, at w/z0 and w z0 for a split.

    Stage 1 runs on the pole-free balance.  With h = log_slope, the balance
    f(m) = 2 h(P) - 1 - s - m, with m-derivative 2 h'(P) (-2 log r) P - 1,
    has poles at both ends of (-3, -2), where P is the zero r^2 or 1 of
    theta1, and a Newton step from the bracket ends, 1e-3 inside them,
    barely moves.  The root finder runs on F(m) = -sin(pi (m+2)) f(m)
    instead: the factor is positive on (-3, -2), so F has the sign and the
    root of f, and its simple zeros at m = -3 and m = -2 cancel the poles.

    Entries without a sign change come back as NaN.  Returns (z2s, m,
    iterations): m is None without exponent, and iterations is the pair
    (stage 1, stage 2), each counting the calls after the first that held
    one of its entries.
    """
    r = ctx.r
    z0s = np.asarray(z0s, dtype=float)
    lo = -1.0 + (1.0 + z0s) * 1e-6
    hi = z0s - np.abs(z0s) * 1e-9
    e = int(exponent)  # entry 0 is the exponent's, if any
    if e:
        lo, hi = np.r_[EXPONENT_BRACKET[0], lo], np.r_[EXPONENT_BRACKET[1], hi]
        z0s = np.r_[np.nan, z0s]  # so that z0s[i] is an entry's z0
    calls = [0, 0]

    def fn(x, i):
        bal = i < e
        split = ~bal
        m, w, z0 = x[bal], x[split], z0s[i[split]]
        calls[0] += m.size > 0
        calls[1] += w.size > 0
        P = r ** (-2.0 * (m + 2.0))
        h, dh = _real_log_slopes(ctx, np.concatenate([P, w / z0, w * z0]), 2)
        pair, dw, _ = _pair_slopes(z0, w, h[m.size :], dh[m.size :])
        h, dh = h[: m.size], dh[: m.size]
        f = 2.0 * h - 1.0 - s - m
        phase = math.pi * (m + 2.0)
        sin, cos = np.sin(phase), np.cos(phase)
        out, d = np.empty(x.size), np.empty(x.size)
        out[bal], d[bal] = -sin * f, -sin * (2.0 * dh * ctx.two_l * P - 1.0) - math.pi * cos * f
        out[split], d[split] = pair - s, dw
        return out, d

    roots, _ = bracketed_root(fn, lo, hi)
    return roots[e:], (roots[0] if e else None), (calls[0] - 1, calls[1] - 1)


def _outer_scan(ctx: ThetaContext, s: float, P=None, n=SCAN_POINTS):
    """The scan: stage 2 for a grid of candidate z0, then the residual of the
    stage-3 outer pairing at each.

    The solve passes no P: stage 1 then joins the stage-2 root loop
    (_inner_split), and P = r^(-2(m+2)) follows from its m.
    validate_moduli passes the stored P.  Candidates whose inner split
    fails, or whose partner P/z2 would not lie in (z0, -r), are marked NaN.
    Returns (z0 grid, residual grid, z2 grid, m, iterations of
    _inner_split); m is None when P is given.
    """
    r = ctx.r
    z0s = np.linspace(-1.0 + 1e-6, -r * (1.0 + 1e-6), n)
    z2s, m, iters = _inner_split(ctx, z0s, s, exponent=P is None)
    if P is None:
        if np.isnan(m):
            raise BracketError(
                f"stage 1: exponent balance has no sign change on {EXPONENT_BRACKET} for r={r}, s={s}"
            )
        m = float(m)
        P = r ** (-2.0 * (m + 2.0))
    with np.errstate(invalid="ignore", divide="ignore"):
        z1s = P / z2s
        ok = (z0s * z2s > P) & (z1s < -r)
    vals = np.full(z0s.shape, np.nan)
    if np.count_nonzero(ok):
        vals[ok] = _pairing(ctx, z0s[ok], z1s[ok], 1)[0] - (s - 2.0)
    return z0s, vals, z2s, m, iters


def _sign_changes(vals):
    """Indices i where the finite vals[i] and vals[i + 1] differ in sign."""
    fin = np.isfinite(vals[:-1]) & np.isfinite(vals[1:])
    return np.flatnonzero(fin & (np.sign(vals[:-1]) != np.sign(vals[1:])))


def _newton_markers(ctx: ThetaContext, s, P, z0, z2, bracket):
    """Stage 3 polish: Newton's method on (z0, z2) inside the scan bracket.

    Solves F1 = pair_slope(z0, z2) - s = 0 and F2 = pair_slope(z0, z1) -
    (s - 2) = 0 with z1 = P/z2.  Each step takes both pairings and their
    derivatives from one series call, builds the Jacobian by the chain rule
    and solves it by Cramer's rule.  Steps are measured in ulps of the
    point they start from.  The loop stops at F1 = F2 = 0, right after a
    step of at most FLOOR_ULPS, as bracketed_root does, or at a step that is
    not at most half the one before, which is not taken: Newton has reached
    the rounding noise.  Returns (z0, z2, series calls).
    """
    prev = math.inf
    for n in range(1, MAX_ITERS + 1):
        z1 = P / z2
        pair, dw, dz0 = _pairing(ctx, z0, np.array([z2, z1]), 2)
        f1 = pair[0] - s
        f2 = pair[1] - (s - 2.0)
        if f1 == 0.0 and f2 == 0.0:
            return z0, z2, n
        j11, j21 = dz0
        j12 = dw[0]
        j22 = -(z1 / z2) * dw[1]  # dz1/dz2 = -z1/z2
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
        if size <= FLOOR_ULPS:
            return z0, z2, n
    raise BracketError(f"stage 3: Newton did not settle in {MAX_ITERS} steps")


def solve_canonical(r: float, s: float, tol: float = RESIDUAL_TOL):
    """Full canonical solve: (r, s) -> (CanonicalModuli, SolverTrace).

    Raises RangeNormalizationError for parameters outside the normalized
    rectangle and BracketError, its message starting with the failing
    stage, when a root stage fails to bracket or converge or the solved
    configuration misses the residual tolerance.  Raises ValueError unless
    tol is a finite positive number, and for an r too close to 1 for
    double precision (ThetaContext).
    """
    if not 0.0 < tol < math.inf:
        raise ValueError(f"tol must be a finite positive number, got {tol}")
    _check_rs(r, s)
    ctx = ThetaContext.create(r)
    trace = SolverTrace(r=r, s=s)

    # a pole in the shared root loop of stages 1 and 2 is stage 2's: the
    # bracket inset keeps P at least about 0.002 |log r| (relative) from the
    # zeros r^2 and 1 of theta1
    stage = 2
    try:
        z0s, vals, z2s, m, (trace.exponent_iterations, trace.scan_iterations) = _outer_scan(ctx, s)
        P = r ** (-2.0 * (m + 2.0))
        trace.m = m
        trace.exponent_bracket = EXPONENT_BRACKET
        trace.scan_points = int(z0s.size)

        stage = 3
        changes = _sign_changes(vals)
        trace.outer_sign_changes = len(changes)
        if changes.size == 0:
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
        q1, q2, c1, c2, qp1, qp2, _ = _marker_slits(ctx, z0, z1, z2)
        a_R, b_R = _ratio_coefficients(q1, q2, z1, z2)
    except ThetaPoleError as exc:
        # a probe exactly on a zero r^(2k) of theta1 is a stage failure
        raise BracketError(
            f"stage {stage}: search stepped onto a theta zero for r={r}, s={s}: {exc}"
        ) from exc
    moduli = CanonicalModuli(
        r=r, s=s, m=m, z0=float(z0), z1=float(z1), z2=float(z2), c1=c1, c2=c2,
        a_R=a_R, b_R=b_R, c_height=float(abs(z1) * r ** (m + 1.0)),
    )
    # the moduli keep the solve's context and its tables (moduli.context())
    vars(moduli)["_context"] = ctx

    res = _closing_residuals(moduli, a_R * qp1.real, a_R * qp2.real)
    trace.residuals = res
    # written so that a NaN residual fails the check
    if not all(abs(v) <= tol for v in res.values()):
        raise BracketError(f"stage 3: solved configuration fails residual check: {res}")
    return moduli, trace


def residuals(moduli: CanonicalModuli) -> dict:
    """Raw closing residuals of a configuration, from scratch.

    c1_res: period balance  m + c1 z1 - z1 R'(z1) + z2 R'(z2)
    c2_res: end balance     c1 z1 - c2 z2 - 2
    c3_res: product balance z1 z2 r^(2(m+2)) - 1

    All three vanish identically for correctly solved moduli; they are
    evaluated from the stored fields only, so corrupted files show up.
    """
    # R'(z1) and R'(z2) from the solve's marker pass, with the bits of
    # one-point slit_map_deriv calls
    qp1, qp2 = _marker_slits(moduli.context(), moduli.z0, moduli.z1, moduli.z2)[4:6]
    return _closing_residuals(moduli, moduli.a_R * qp1.real, moduli.a_R * qp2.real)


def _closing_residuals(moduli: CanonicalModuli, rp1, rp2) -> dict:
    """The residuals of :func:`residuals` from R'(z1) = rp1 and R'(z2) = rp2."""
    c1_res = moduli.m + moduli.c1 * moduli.z1 - moduli.z1 * rp1 + moduli.z2 * rp2
    c2_res = moduli.c1 * moduli.z1 - moduli.c2 * moduli.z2 - 2.0
    c3_res = moduli.z1 * moduli.z2 * moduli.r ** (2.0 * (moduli.m + 2.0)) - 1.0
    return {"c1_res": float(c1_res), "c2_res": float(c2_res), "c3_res": float(c3_res)}
