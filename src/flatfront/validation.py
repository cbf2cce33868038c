"""Invariant battery for solved configurations, aggregated into one report.

Each field of ValidationReport but end_gap has a documented tolerance;
`passes` is the conjunction of all of them, and of every float field being
finite.  The residual gates scale with the master tolerance, the geometric
gates are fixed by the convergence rates of the quantities they measure.
end_gap, the rate-cancelled distance of the end circle from the end's ideal
point, is reported without a gate of its own.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .annulus import (
    CanonicalModuli,
    DegenerateConfigurationError,
    RepresentationError,
    _mirror_angles,
    _surface_series,
)
from .immersion import (
    HalfSpacePoint,
    end_direction,
    hyperbolic_distance,
    immerse,
    intrinsic_curvature,
    shape_ratio,
)
from .solver import _outer_scan, _sign_changes, residuals
from .theta import ThetaPoleError

MASTER_TOL = 1e-10
BOUNDARY_P_TOL = 1e-8
CURVATURE_TOL = 1e-4
SINGULARITY_TOL = 1e-3  # extrapolated collapse gap at offsets 1e-4 / 2e-4, invariant metric
END_ERROR_TOL = 1e-2  # at end offset 1e-4; approach to the ideal point is linear

CIRCLE_OFFSET = 1e-4
N_BOUNDARY = 512

# curvature probe: a mid-band candidate lattice, kept off the real axis where
# the markers sit; the stencil runs at the best-conditioned candidates because
# its error grows without bound as |p| -> 1 (metric nearly degenerate).  The
# candidates sit at positive angles: a conjugate candidate has the same |p| and
# the same K, so the 4 best give the maximum over the 8 best of the mirrored
# lattice.
_CURV_FRACS = np.linspace(0.35, 0.65, 5)
_CURV_ANGLES = np.linspace(0.25, np.pi - 0.25, 16)
_CURV_PROBES = 4


def interior_grid(r: float, n: int) -> np.ndarray:
    """Half-step-inset log-radial x angular grid, strictly inside the annulus.

    Column j sits at angle pi (2j + 1 - n) / n, so column n - 1 - j is the
    exact conjugate of column j and the columns j >= n // 2 are the grid's
    closed upper half.
    """
    frac = (np.arange(n) + 0.5) / n
    rho = np.exp(np.log(r) * frac)
    theta, _ = _mirror_angles(n, half_step=True)
    return rho[:, None] * np.exp(1j * theta)[None, :]


def _upper_circle(n: int) -> np.ndarray:
    """Closed upper half of the n points exp(i pi (2k - n) / n) on the unit circle."""
    theta, upper = _mirror_angles(n)
    return np.exp(1j * theta[upper])


@dataclass
class ValidationReport:
    c1_res: float
    c2_res: float
    c3_res: float
    max_abs_p_interior: float
    boundary_p_deviation: float
    max_abs_curvature: float
    sing1_error: float
    sing2_error: float
    end_error: float
    end_gap: float
    rs_ok: bool
    outer_sign_changes: int

    def to_dict(self) -> dict:
        return asdict(self)

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), indent=2)

    def passes(self, tol: float = MASTER_TOL) -> bool:
        vals = [v for v in self.to_dict().values() if isinstance(v, float)]
        return (
            all(math.isfinite(v) for v in vals)
            and abs(self.c1_res) <= tol
            and abs(self.c2_res) <= tol
            and abs(self.c3_res) <= tol
            and self.max_abs_p_interior < 1.0
            and self.boundary_p_deviation <= BOUNDARY_P_TOL
            and self.max_abs_curvature <= CURVATURE_TOL
            and self.sing1_error <= SINGULARITY_TOL
            and self.sing2_error <= SINGULARITY_TOL
            and self.end_error <= END_ERROR_TOL
            and self.rs_ok
            and self.outer_sign_changes >= 1
        )


def boundary_ranges_ok(moduli: CanonicalModuli) -> bool:
    """Range normalization of the ratio function on the two boundary circles.

    Checks that the ratio is real there with values inside (0, 1), and that
    its value at z = 1 sits below its value at z = r.  The solver reports
    this rather than enforcing it.  The ratio is conjugate at conjugate
    points, so each circle is sampled on its closed upper half.  R comes
    from the complex modular series at its two arguments z0/z and z0 z
    (annulus._surface_series) in the moduli's theta context, and that
    pass's per-surface record checks the stored fields against the markers.
    Any moduli that record rejects with RepresentationError, a crafted file
    or a solve's own output alike, fail this check rather than raise.
    """
    circle = _upper_circle(N_BOUNDARY)
    z = np.concatenate([circle, moduli.r * circle, [1.0, moduli.r]])
    try:
        vals = _surface_series(moduli, moduli.context(), z, ("R",), "boundary_ranges_ok").R
    except RepresentationError:
        return False
    bnd, (r1, rr) = vals[:-2], vals[-2:].real
    # each test is written so that a NaN fails it
    ok = np.abs(bnd.imag).max() <= 1e-10 and 0.0 < bnd.real.min() and bnd.real.max() < 1.0
    return bool(ok and r1 < rr)


def _collapse_and_end_errors(moduli, ctx) -> tuple[float, float, float, float]:
    """Collapse gaps of the circles |z| = 1 and |z| = r, the end error and the
    end gap, from one immerse call.

    Per angle, the distance to a cone point decays linearly in the offset with
    a rate that depends on the configuration; 2 d(offset) - d(2 offset)
    cancels that term, so a gap measures failure to collapse, not the rate.
    The end error is the distance from the end circle at the offset to the
    end's ideal point X_end = (g(z0), 0), which mostly measures the rate times
    the offset; the end gap |2 X(offset) - X(2 offset) - X_end| cancels the
    rate as the cone gaps do.  The cones and the end direction lie on the
    real axis, so every gap is even under z -> conj(z) and each circle is
    sampled on its upper half.
    """
    circle = _upper_circle(256)
    rhos = (1.0 - CIRCLE_OFFSET, 1.0 - 2.0 * CIRCLE_OFFSET,
            moduli.r + CIRCLE_OFFSET, moduli.r + 2.0 * CIRCLE_OFFSET)
    end_circle = _upper_circle(64)
    ends = [moduli.z0 + off * end_circle for off in (CIRCLE_OFFSET, 2.0 * CIRCLE_OFFSET)]
    pts = immerse(moduli, ctx, np.concatenate([*(rho * circle for rho in rhos), *ends]))
    n = len(rhos) * circle.size
    near = HalfSpacePoint(pts.horizontal[:n].reshape(len(rhos), -1), pts.height[:n].reshape(len(rhos), -1))
    d = hyperbolic_distance(near, HalfSpacePoint(0.0 + 0.0j, np.repeat([1.0, moduli.c_height], 2)[:, None]))
    sing = np.abs(2.0 * d[0::2] - d[1::2]).max(axis=1)
    # the end's target is an ideal point, so its gaps are Euclidean by necessity
    g_end = end_direction(moduli)
    near, far = slice(n, n + end_circle.size), slice(n + end_circle.size, None)
    end = np.sqrt(np.abs(pts.horizontal[near] - g_end) ** 2 + pts.height[near] ** 2)
    gap = np.sqrt(
        np.abs(2.0 * pts.horizontal[near] - pts.horizontal[far] - g_end) ** 2
        + (2.0 * pts.height[near] - pts.height[far]) ** 2
    )
    return float(sing[0]), float(sing[1]), float(end.max()), float(gap.max())


def validate_moduli(moduli: CanonicalModuli, grid: int = 64) -> ValidationReport:
    """Run the full battery against a solved configuration.

    Every geometric field is a maximum of a quantity that is even under
    z -> conj(z) (|p|, K, and the distances to cones and to the end
    direction on the real axis), so each point set is mirror-symmetric and
    only its closed upper half is evaluated: the grid columns j >= grid // 2,
    the upper halves of the circles, and the curvature candidates at
    positive angles.  The fields equal those of the full sets bit for bit.
    Every evaluation runs in the moduli's theta context (moduli.context()).
    Raises ValueError for a grid below 8.
    """
    if grid < 8:
        raise ValueError("grid must be at least 8")
    ctx = moduli.context()

    # a crafted file can place markers a few ulp apart, landing the residual
    # evaluation on a theta zero; report that as non-finite rather than raise
    try:
        res = residuals(moduli)
        rs_ok = boundary_ranges_ok(moduli)
        scan_vals = _outer_scan(ctx, moduli.s, moduli.r ** (-2.0 * (moduli.m + 2.0)))[1]
        n_scan_changes = len(_sign_changes(scan_vals))
    except ThetaPoleError:
        res = {"c1_res": math.inf, "c2_res": math.inf, "c3_res": math.inf}
        rs_ok = False
        n_scan_changes = 0

    # The geometric battery requires the square root of W to exist; corrupted
    # moduli can break that, in which case the affected fields go to inf and
    # the report fails on finiteness while the residual fields stay honest.
    # One shape_ratio call covers the grid, both boundary circles and the
    # curvature candidates (a point gets the same bits in any batch), and
    # numpy's max keeps a NaN wherever it sits, so a NaN fails the report.
    try:
        interior = interior_grid(moduli.r, grid)[:, grid // 2 :].ravel()
        circle = _upper_circle(N_BOUNDARY)
        cand = (np.exp(np.log(moduli.r) * _CURV_FRACS)[:, None] * np.exp(1j * _CURV_ANGLES)[None, :]).ravel()
        n_int, n_bnd = interior.size, 2 * circle.size
        p_abs = np.abs(shape_ratio(moduli, ctx, np.concatenate([interior, circle, moduli.r * circle, cand])))
        probes = cand[np.argsort(p_abs[n_int + n_bnd :])[:_CURV_PROBES]]
        ks = intrinsic_curvature(moduli, ctx, probes)
        sing1, sing2, end, end_gap = _collapse_and_end_errors(moduli, ctx)
        geo = {
            "max_abs_p_interior": float(p_abs[:n_int].max()),
            "boundary_p_deviation": float(np.abs(p_abs[n_int : n_int + n_bnd] - 1.0).max()),
            "max_abs_curvature": float(np.abs(ks).max()),
            "sing1_error": sing1,
            "sing2_error": sing2,
            "end_error": end,
            "end_gap": end_gap,
        }
    except (RepresentationError, DegenerateConfigurationError, ThetaPoleError, ValueError):
        geo = {k: math.inf for k in (
            "max_abs_p_interior", "boundary_p_deviation", "max_abs_curvature",
            "sing1_error", "sing2_error", "end_error", "end_gap",
        )}

    return ValidationReport(
        c1_res=res["c1_res"],
        c2_res=res["c2_res"],
        c3_res=res["c3_res"],
        rs_ok=rs_ok,
        outer_sign_changes=n_scan_changes,
        **geo,
    )
