"""Invariant battery for solved configurations, aggregated into one report.

Each field of ValidationReport has a documented tolerance; `passes` is the
conjunction of all of them.  The residual gates scale with the master
tolerance, the geometric gates are fixed by the convergence rates of the
quantities they measure.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass

import numpy as np

from .annulus import CanonicalModuli, DegenerateConfigurationError, RepresentationError, gauss_ratio
from .immersion import (
    HalfSpacePoint,
    end_direction,
    hyperbolic_distance,
    immerse,
    intrinsic_curvature,
    shape_ratio,
)
from .solver import _outer_scan, _sign_changes, residuals
from .theta import ThetaContext, ThetaPoleError

MASTER_TOL = 1e-10
BOUNDARY_P_TOL = 1e-8
CURVATURE_TOL = 1e-4
SINGULARITY_TOL = 1e-3  # extrapolated collapse gap at offsets 1e-4 / 2e-4, invariant metric
END_ERROR_TOL = 1e-2  # at end offset 1e-4; approach to the ideal point is linear

CIRCLE_OFFSET = 1e-4
N_BOUNDARY = 512

# curvature probe: a mid-band candidate lattice, kept off the real axis where
# the markers sit; the stencil runs at the best-conditioned candidates because
# its error grows without bound as |p| -> 1 (metric nearly degenerate)
_CURV_FRACS = np.linspace(0.35, 0.65, 5)
_CURV_ANGLES = np.concatenate([a := np.linspace(0.25, np.pi - 0.25, 16), -a])
_CURV_PROBES = 8


def interior_grid(r: float, n: int) -> np.ndarray:
    """Half-step-inset log-radial x angular grid, strictly inside the annulus."""
    frac = (np.arange(n) + 0.5) / n
    rho = np.exp(np.log(r) * frac)
    theta = -np.pi + 2.0 * np.pi * frac
    return rho[:, None] * np.exp(1j * theta)[None, :]


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


def boundary_ranges_ok(moduli: CanonicalModuli, ctx: ThetaContext | None = None) -> bool:
    """Range normalization of the ratio function on the two boundary circles.

    Checks that the ratio is real there with values inside (0, 1), and that
    its value at z = 1 sits below its value at z = r.  The solver reports
    this rather than enforcing it.
    """
    if ctx is None:
        ctx = moduli.context()
    theta = np.linspace(-np.pi, np.pi, N_BOUNDARY + 1)[:-1]
    for rho in (1.0, moduli.r):
        vals = gauss_ratio(moduli, ctx, rho * np.exp(1j * theta))
        if np.abs(vals.imag).max() > 1e-10:
            return False
        if vals.real.min() <= 0.0 or vals.real.max() >= 1.0:
            return False
    r1 = gauss_ratio(moduli, ctx, 1.0 + 0.0j).real
    rr = gauss_ratio(moduli, ctx, complex(moduli.r)).real
    return bool(r1 < rr)


def _circle_error(moduli, ctx, rho_near: float, rho_far: float, target_height: float) -> float:
    """Extrapolated collapse gap of a boundary circle at its cone point.

    Per angle, the distance to the target decays linearly in the offset with
    a rate that depends on the configuration; combining the two offsets
    cancels that term, so the reported gap measures failure to collapse
    rather than the approach rate.
    """
    theta = np.linspace(-np.pi, np.pi, 257)[:-1]
    cone = HalfSpacePoint(0.0 + 0.0j, np.full(theta.shape, target_height))
    d_near = hyperbolic_distance(immerse(moduli, ctx, rho_near * np.exp(1j * theta)), cone)
    d_far = hyperbolic_distance(immerse(moduli, ctx, rho_far * np.exp(1j * theta)), cone)
    return float(np.abs(2.0 * d_near - d_far).max())


def _end_error(moduli, ctx) -> float:
    g0 = end_direction(moduli, ctx)
    phi = np.linspace(-np.pi, np.pi, 65)[:-1]
    pts = immerse(moduli, ctx, moduli.z0 + CIRCLE_OFFSET * np.exp(1j * phi))
    # target is an ideal point, so this gap is Euclidean by necessity
    return float(np.sqrt(np.abs(pts.horizontal - g0) ** 2 + pts.height**2).max())


def validate_moduli(
    moduli: CanonicalModuli, ctx: ThetaContext | None = None, grid: int = 64
) -> ValidationReport:
    """Run the full battery against a solved configuration."""
    if grid < 8:
        raise ValueError("grid must be at least 8")
    if ctx is None:
        ctx = moduli.context()

    # a crafted file can place markers a few ulp apart, landing the residual
    # evaluation on a theta zero; report that as non-finite rather than raise
    try:
        res = residuals(moduli, ctx)
        rs_ok = boundary_ranges_ok(moduli, ctx)
        scan_z0, scan_vals = _outer_scan(
            ctx, moduli.s, moduli.r ** (-2.0 * (moduli.m + 2.0))
        )
        n_scan_changes = len(_sign_changes(scan_z0, scan_vals))
    except ThetaPoleError:
        res = {"c1_res": math.inf, "c2_res": math.inf, "c3_res": math.inf}
        rs_ok = False
        n_scan_changes = 0

    # The geometric battery requires the square root of W to exist; corrupted
    # moduli can break that, in which case the affected fields go to inf and
    # the report fails on finiteness while the residual fields stay honest.
    try:
        p_int = np.abs(shape_ratio(moduli, ctx, interior_grid(moduli.r, grid)))
        theta = np.linspace(-np.pi, np.pi, N_BOUNDARY + 1)[:-1]
        p_bnd = max(
            float(np.abs(np.abs(shape_ratio(moduli, ctx, rho * np.exp(1j * theta))) - 1.0).max())
            for rho in (1.0, moduli.r)
        )
        cand = (
            np.exp(np.log(moduli.r) * _CURV_FRACS)[:, None]
            * np.exp(1j * _CURV_ANGLES)[None, :]
        ).ravel()
        order = np.argsort(np.abs(shape_ratio(moduli, ctx, cand)))
        ks = [
            intrinsic_curvature(moduli, ctx, cand[i]) for i in order[:_CURV_PROBES]
        ]
        geo = {
            "max_abs_p_interior": float(p_int.max()),
            "boundary_p_deviation": p_bnd,
            "max_abs_curvature": float(max(abs(k) for k in ks)),
            "sing1_error": _circle_error(
                moduli, ctx, 1.0 - CIRCLE_OFFSET, 1.0 - 2.0 * CIRCLE_OFFSET, 1.0
            ),
            "sing2_error": _circle_error(
                moduli, ctx, moduli.r + CIRCLE_OFFSET, moduli.r + 2.0 * CIRCLE_OFFSET, moduli.c_height
            ),
            "end_error": _end_error(moduli, ctx),
        }
    except (RepresentationError, DegenerateConfigurationError, ThetaPoleError, ValueError):
        geo = {k: math.inf for k in (
            "max_abs_p_interior", "boundary_p_deviation", "max_abs_curvature",
            "sing1_error", "sing2_error", "end_error",
        )}

    return ValidationReport(
        c1_res=res["c1_res"],
        c2_res=res["c2_res"],
        c3_res=res["c3_res"],
        rs_ok=rs_ok,
        outer_sign_changes=n_scan_changes,
        **geo,
    )
