"""Command-line front end.

Subcommands: solve (moduli from (r, s)), mesh (sample a solved surface to
OBJ/PLY), validate (invariant battery to a JSON report), rotational
(closed-form rotational surface).  All file output is deterministic:
fixed field order, shortest round-trip floats in JSON, fixed-precision
floats in mesh files.

Exit codes: 0 success, 1 validation failed, 2 usage error, 3 unreadable
moduli file, 4 root bracketing failed, 5 solved configuration violates the
boundary-range normalization.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .annulus import CanonicalModuli, RepresentationError
from .immersion import (
    RotationalModuli,
    immerse_rotational,
    intrinsic_curvature_rotational,
)
from .meshing import (
    DEFAULT_RHO_END,
    canonical_mesh,
    rotational_mesh,
    write_obj,
    write_ply,
)
from .solver import BracketError, RangeNormalizationError, solve_canonical
from .theta import ThetaPoleError
from .validation import MASTER_TOL, boundary_ranges_ok, validate_moduli

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_USAGE = 2
EXIT_UNREADABLE = 3
EXIT_BRACKET = 4
EXIT_RANGES = 5

_WRITERS = {"obj": write_obj, "ply": write_ply}


def _master_tol() -> float:
    """FLATFRONT_TOL if it is a finite positive number, else MASTER_TOL."""
    raw = os.environ.get("FLATFRONT_TOL", "")
    try:
        tol = float(raw) if raw else MASTER_TOL
    except ValueError:
        tol = math.nan
    if 0.0 < tol < math.inf:  # a NaN fails this test
        return tol
    print(f"flatfront: warning: ignoring unparseable FLATFRONT_TOL={raw}", file=sys.stderr)
    return MASTER_TOL


def _fail(msg: str, code: int) -> int:
    print(f"flatfront: {msg}", file=sys.stderr)
    return code


def _load_moduli(path: str):
    try:
        with open(path) as fh:
            return CanonicalModuli.from_json(fh.read())
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise _Unreadable(f"cannot load moduli from {path}: {exc}") from exc


class _Unreadable(Exception):
    pass


def _write_mesh(mesh, out, fmt) -> None:
    bad = int(np.count_nonzero(~np.isfinite(mesh.vertices)))
    if bad:
        print(f"flatfront: warning: {bad} degenerate vertex coordinates", file=sys.stderr)
    _WRITERS[fmt](mesh, out)
    print(f"wrote {out} ({len(mesh.vertices)} vertices, {len(mesh.faces)} faces)")


def _cmd_solve(args) -> int:
    try:
        moduli, trace = solve_canonical(args.r, args.s, tol=_master_tol())
    except (RangeNormalizationError, ValueError) as exc:
        return _fail(str(exc), EXIT_USAGE)
    except BracketError as exc:
        return _fail(str(exc), EXIT_BRACKET)
    text = moduli.to_json()
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
        with open(args.out + ".trace.json", "w") as fh:
            json.dump(trace.to_dict(), fh, indent=2)
            fh.write("\n")
    if not boundary_ranges_ok(moduli):
        return _fail("solved moduli violate the boundary-range normalization", EXIT_RANGES)
    return EXIT_OK


def _cmd_mesh(args) -> int:
    try:
        moduli = _load_moduli(args.moduli)
    except _Unreadable as exc:
        return _fail(str(exc), EXIT_UNREADABLE)
    out = args.out or f"surface.{args.format}"
    try:
        mesh = canonical_mesh(
            moduli,
            n_rho=args.nu,
            n_theta=args.nv,
            model=args.model,
            rho_end=args.rho_end,
        )
    except (ValueError, RepresentationError, ThetaPoleError) as exc:
        return _fail(str(exc), EXIT_USAGE)
    _write_mesh(mesh, out, args.format)
    return EXIT_OK


def _cmd_validate(args) -> int:
    try:
        moduli = _load_moduli(args.moduli)
    except _Unreadable as exc:
        return _fail(str(exc), EXIT_UNREADABLE)
    try:
        report = validate_moduli(moduli, grid=args.grid)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    text = report.to_json() + "\n"
    sys.stdout.write(text)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    return EXIT_OK if report.passes(_master_tol()) else EXIT_VALIDATION


def _rotational_report(rot: RotationalModuli, mesh) -> dict:
    apex = immerse_rotational(rot, complex(rot.s_rot))
    if rot.degenerate:
        max_k = None
    else:
        h = min(5e-4, 0.05 * rot.s_rot)
        ks = intrinsic_curvature_rotational(rot, np.array([0.4, 0.6, 0.8]) * rot.s_rot, h=h)
        max_k = float(np.abs(ks).max())
    return {
        "b": rot.b,
        "a_sec": rot.a_sec,
        "s_rot": rot.s_rot,
        "apex_height": float(apex.height),
        "end_min_height": float(mesh.vertices[:, 2].min()) if mesh.model == "halfspace" else None,
        "max_abs_curvature": max_k,
    }


def _cmd_rotational(args) -> int:
    try:
        rot = RotationalModuli.from_exponent(args.b)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    out = args.out or f"rotational.{args.format}"
    try:
        mesh = rotational_mesh(rot, n_rho=args.nu, n_theta=args.nv, model=args.model)
    except ValueError as exc:
        return _fail(str(exc), EXIT_USAGE)
    _write_mesh(mesh, out, args.format)
    with open(out + ".report.json", "w") as fh:
        json.dump(_rotational_report(rot, mesh), fh, indent=2)
        fh.write("\n")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="flatfront",
        description="Complete flat surfaces in hyperbolic 3-space: "
        "solve moduli, export meshes, validate invariants.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="solve the two-singularity moduli for (r, s)")
    p.add_argument("--r", type=float, required=True, help="annulus inner radius, in (0, 1)")
    p.add_argument("--s", type=float, required=True, help="slope parameter, in (-1, 0)")
    p.add_argument("--out", help="moduli JSON path; a .trace.json sidecar is added")
    p.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("mesh", help="triangulate a solved surface")
    p.add_argument("moduli", help="moduli JSON file written by solve")
    p.add_argument("--nu", type=int, default=32, help="radial rings (>= 8)")
    p.add_argument("--nv", type=int, default=64, help="angular samples (>= 8)")
    p.add_argument("--model", choices=("halfspace", "klein"), default="halfspace")
    p.add_argument("--rho-end", type=float, default=DEFAULT_RHO_END, dest="rho_end",
                   help="excised parameter radius around the end")
    p.add_argument("--out", help="output path (default surface.<format>)")
    p.add_argument("--format", choices=("obj", "ply"), default="obj")
    p.set_defaults(fn=_cmd_mesh)

    p = sub.add_parser("validate", help="run the invariant battery on solved moduli")
    p.add_argument("moduli", help="moduli JSON file written by solve")
    p.add_argument("--grid", type=int, default=64, help="interior sampling grid size")
    p.add_argument("--out", help="also write the report JSON here")
    p.set_defaults(fn=_cmd_validate)

    p = sub.add_parser("rotational", help="mesh the closed-form rotational surface")
    p.add_argument("--b", type=float, required=True, help="cone exponent, in (0, 1)")
    p.add_argument("--nu", type=int, default=32, help="radial rings (>= 8)")
    p.add_argument("--nv", type=int, default=64, help="angular samples (>= 8)")
    p.add_argument("--model", choices=("halfspace", "klein"), default="halfspace")
    p.add_argument("--out", help="output path (default rotational.<format>)")
    p.add_argument("--format", choices=("obj", "ply"), default="obj")
    p.set_defaults(fn=_cmd_rotational)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
