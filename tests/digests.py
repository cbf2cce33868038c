"""SHA-256 digests of the solve, every series field set and surface
evaluator, for checking that a change keeps the bits.

    PYTHONPATH=src python3 tests/digests.py > digests.jsonl
    PYTHONPATH=src python3 tests/digests.py --cell 0.25 -0.5

prints one JSON line per (cell, what, mode): ``what`` is the solve's
moduli JSON ("solve_canonical") or trace ("solve_canonical:trace"), the
outer pairing values of validate_moduli's scan ("validate_moduli:scan"), a
field set of annulus._surface_series ("series:g+R"), a public evaluator
("immerse"), the validate_moduli report or the canonical_mesh vertices;
``mode`` is "batch",
the whole point set in one call, or "one", a subset of it a point per call.
The digest is of the output bytes, field by field.  Then, without --cell,
one "solve_canonical:error" line per cell of ERROR_CELLS, where the solve
raises: its ``error`` holds the exception's type and message.  Two
checkouts whose outputs diff empty give every value the same bits and
every failing solve the same error.

The point set takes both circles next to arg z = +-pi and at generic
angles, points next to the end z0 and next to 1/z2, both real half-axes with
Im z = 0.0 and -0.0, and random points enough to cross the chunk edges of
every table shape.  The evaluators take the points at least 2e-3 inside the
annulus and away from the markers, where first_form is finite and the
curvature stencil fits.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json

import numpy as np

from flatfront import (
    canonical_mesh,
    first_form,
    gauss_map,
    gauss_map_deriv,
    gauss_map_square,
    immerse,
    intrinsic_curvature,
    inv_gauss_gap,
    potential,
    second_gauss_map,
    shape_ratio,
    solve_canonical,
    validate_moduli,
)
from flatfront.annulus import _Series, _surface_series
from flatfront.solver import _outer_scan

CELLS = ((0.25, -0.5), (0.65, -0.01), (0.7, -0.99), (0.05, -0.04), (0.45, -0.3), (0.6, -0.8))
FIELD_SETS = tuple(
    tuple(f for i, f in enumerate(_Series._fields) if mask >> i & 1) for mask in range(1, 2 ** len(_Series._fields))
)
EVALUATORS = (
    gauss_map, gauss_map_deriv, gauss_map_square, potential, inv_gauss_gap, second_gauss_map,
    immerse, shape_ratio, first_form, intrinsic_curvature,
)
N_RANDOM = 2900
ONE_STEP = 97  # every ONE_STEP-th random point joins the special points in "one" mode
# Cells where solve_canonical raises: past the solvable s at thick, middle
# and thin annuli, and past it again where the series takes one term
ERROR_CELLS = ((0.05, -0.001), (0.45, -0.001), (0.95, -0.001), (0.82, -0.01), (0.9, -0.01))


def points(moduli):
    """(z, one): the flat point set and the indices evaluated a point per call."""
    r, z0, z2 = moduli.r, moduli.z0, moduli.z2
    ring = np.exp(1j * np.array([np.pi, -np.pi, np.pi - 1e-12, 1e-12 - np.pi, 0.7, -2.1, 3.0]))
    end = z0 + np.array([1e-3j, 1e-4 * np.exp(0.3j), 1e-8 * np.exp(-2j), 1e-11j, 1e-4, -1e-9, -3e-3])
    # the unit circle next to arg z = pi, closest to the zero 1/z2 of g
    near_z2 = np.exp(1j * (np.pi - np.array([1e-3, -1e-4, 1e-6, 3e-3]))) * np.array([1.0, 1.0, 1.0 - 3e-3, 1.0 - 3e-3])
    x = np.concatenate([np.linspace(r, 1.0, 9), -np.linspace(r, 1.0, 9), [moduli.z1, z2, 0.5 * (z0 + moduli.z1)]])
    axis = np.empty(2 * x.size, dtype=np.complex128)
    axis.real = np.concatenate([x, x])
    axis.imag = np.repeat([0.0, -0.0], x.size)
    special = np.concatenate([ring, r * ring, end, near_z2, axis])
    rng = np.random.default_rng(34)
    rand = np.exp(rng.uniform(np.log(r), 0.0, N_RANDOM)) * np.exp(1j * rng.uniform(-np.pi, np.pi, N_RANDOM))
    z = np.concatenate([special, rand])
    return z, np.r_[0 : special.size, special.size : z.size : ONE_STEP]


def _digest(value) -> str:
    h = hashlib.sha256()
    parts = [getattr(value, f.name) for f in dataclasses.fields(value)] if dataclasses.is_dataclass(value) else [value]
    for part in parts:
        h.update(np.ascontiguousarray(part).tobytes())
    return h.hexdigest()


def _stacked(results):
    """The per-point results of one evaluator joined into one value of its kind."""
    first = results[0]
    if dataclasses.is_dataclass(first):
        return type(first)(*(np.array([getattr(x, f.name) for x in results]) for f in dataclasses.fields(first)))
    return np.array(results)


def digests(r: float, s: float):
    """Yield the records of the cell (r, s)."""
    moduli, trace = solve_canonical(r, s)
    ctx = moduli.context()
    cell = [r, s]
    yield {"cell": cell, "what": "solve_canonical", "mode": "batch", "sha256": _digest(moduli.to_json().encode())}
    trace_json = json.dumps(trace.to_dict(), sort_keys=True).encode()
    yield {"cell": cell, "what": "solve_canonical:trace", "mode": "batch", "sha256": _digest(trace_json)}
    # the scan as validate_moduli runs it, on the stored P
    scan = _outer_scan(ctx, s, moduli.r ** (-2.0 * (moduli.m + 2.0)))[1]
    yield {"cell": cell, "what": "validate_moduli:scan", "mode": "batch", "sha256": _digest(scan)}
    z, one = points(moduli)
    markers = np.array([moduli.z0, moduli.z1, moduli.z2])
    inside = (np.abs(z) >= r + 2e-3) & (np.abs(z) <= 1.0 - 2e-3) & (np.abs(z[:, None] - markers).min(axis=1) >= 2e-3)
    for fields in FIELD_SETS:
        what = "series:" + "+".join(fields)
        for mode, pts in (("batch", [z]), ("one", [z[i : i + 1] for i in one])):
            outs = [_surface_series(moduli, ctx, p, fields, "digests") for p in pts]
            h = hashlib.sha256()
            for name in fields:
                h.update(np.concatenate([getattr(o, name) for o in outs]).tobytes())
            yield {"cell": cell, "what": what, "mode": mode, "sha256": h.hexdigest()}
    for fn in EVALUATORS:
        batch = fn(moduli, ctx, z[inside])
        yield {"cell": cell, "what": fn.__name__, "mode": "batch", "sha256": _digest(batch)}
        single = _stacked([fn(moduli, ctx, complex(z[i])) for i in one if inside[i]])
        yield {"cell": cell, "what": fn.__name__, "mode": "one", "sha256": _digest(single)}
    report = validate_moduli(moduli, grid=16)
    yield {"cell": cell, "what": "validate_moduli", "mode": "batch", "sha256": _digest(report.to_json().encode())}
    mesh = canonical_mesh(moduli, n_rho=8, n_theta=16)
    yield {"cell": cell, "what": "canonical_mesh", "mode": "batch", "sha256": _digest(mesh.vertices)}


def error_record(r: float, s: float) -> dict:
    """The record of a cell where the solve raises: the exception's type and
    message, or None should the solve succeed."""
    error = None
    try:
        solve_canonical(r, s)
    except Exception as exc:
        error = f"{type(exc).__name__}: {exc}"
    return {"cell": [r, s], "what": "solve_canonical:error", "mode": "batch", "error": error}


def main(argv=None) -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--cell", nargs=2, type=float, action="append", metavar=("R", "S"),
                   help="a cell (r, s) to digest; repeatable (default: six cells)")
    args = p.parse_args(argv)
    for r, s in args.cell or CELLS:
        for record in digests(r, s):
            print(json.dumps(record))
    if not args.cell:
        for r, s in ERROR_CELLS:
            print(json.dumps(error_record(r, s)))


if __name__ == "__main__":
    main()
