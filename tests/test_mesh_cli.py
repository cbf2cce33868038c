"""Tests for mesh generation, export formats, validation reports, and the CLI."""

import json
import math
import struct

import numpy as np
import pytest

from flatfront.cli import _master_tol, main
from flatfront.immersion import RotationalModuli
from flatfront.meshing import (
    SurfaceMesh,
    canonical_mesh,
    euler_characteristic,
    rotational_mesh,
    write_obj,
    write_ply,
)
from flatfront.solver import solve_canonical
from flatfront.validation import MASTER_TOL, ValidationReport, boundary_ranges_ok, validate_moduli

from test_annulus import FLAGSHIP

REPORT_FIELDS = [
    "c1_res",
    "c2_res",
    "c3_res",
    "max_abs_p_interior",
    "boundary_p_deviation",
    "max_abs_curvature",
    "sing1_error",
    "sing2_error",
    "end_error",
    "rs_ok",
    "outer_sign_changes",
]


@pytest.fixture(scope="module")
def mesh16():
    return canonical_mesh(FLAGSHIP, n_rho=16, n_theta=24)


# --- meshing ---------------------------------------------------------------


def test_canonical_mesh_topology(mesh16):
    assert euler_characteristic(mesh16) == -1
    assert mesh16.faces.min() >= 0
    assert mesh16.faces.max() < len(mesh16.vertices)
    assert mesh16.vertices[:, 2].min() > 0.0
    # the end disc was actually excised
    assert len(mesh16.faces) < 2 * 16 * 24
    inner, outer = mesh16.boundary_rings
    assert len(inner) == len(outer) == 24


def test_canonical_mesh_apex_clusters(mesh16):
    inner = mesh16.vertices[mesh16.boundary_rings[0]]
    outer = mesh16.vertices[mesh16.boundary_rings[1]]
    t_in = np.array([0.0, 0.0, FLAGSHIP.c_height])
    t_out = np.array([0.0, 0.0, 1.0])
    assert np.linalg.norm(inner - t_in, axis=1).max() < 1e-3
    assert np.linalg.norm(outer - t_out, axis=1).max() < 1e-3


def test_klein_mesh_in_unit_ball():
    mesh = canonical_mesh(FLAGSHIP, n_rho=12, n_theta=16, model="klein")
    assert np.linalg.norm(mesh.vertices, axis=1).max() < 1.0
    assert euler_characteristic(mesh) == -1


def test_mesh_guards():
    with pytest.raises(ValueError):
        canonical_mesh(FLAGSHIP, n_rho=4, n_theta=24)
    with pytest.raises(ValueError):
        canonical_mesh(FLAGSHIP, n_rho=16, n_theta=24, rho_end=-1.0)
    with pytest.raises(ValueError):
        canonical_mesh(FLAGSHIP, n_rho=16, n_theta=24, model="poincare")
    with pytest.raises(ValueError):
        SurfaceMesh(np.zeros((3, 3)), np.array([[0, 1, 5]]), "halfspace")


def test_rotational_mesh_collapses_singular_circle():
    rot = RotationalModuli.from_exponent(0.5)
    mesh = rotational_mesh(rot, n_rho=12, n_theta=16)
    assert euler_characteristic(mesh) == 0
    ring = mesh.vertices[mesh.boundary_rings[1]]
    # singular circle maps to the single point (0, 0, apex) exactly
    assert np.abs(ring[:, :2]).max() < 1e-12
    assert np.abs(ring[:, 2] - 1.0).max() < 1e-12
    # the end: heights sink toward 0 with the inner sampling radius
    fine = rotational_mesh(rot, n_rho=12, n_theta=16, inner_frac=1e-4)
    assert fine.vertices[:, 2].min() < 1e-3 < mesh.vertices[:, 2].min() + 1e-2


def test_euler_characteristic_triangle():
    one = SurfaceMesh(np.zeros((3, 3)), np.array([[0, 1, 2]]), "halfspace")
    assert euler_characteristic(one) == 1


def test_obj_round_trip(tmp_path, mesh16):
    path = tmp_path / "m.obj"
    write_obj(mesh16, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "# model halfspace"
    vs = [ln.split()[1:] for ln in lines if ln.startswith("v ")]
    fs = [ln.split()[1:] for ln in lines if ln.startswith("f ")]
    assert len(vs) == len(mesh16.vertices)
    assert len(fs) == len(mesh16.faces)
    back = np.array([[float(x) for x in v] for v in vs])
    assert np.array_equal(back, mesh16.vertices)  # 17 digits round-trip exactly
    assert int(fs[0][0]) >= 1  # one-based indices


def test_ply_round_trip(tmp_path, mesh16):
    path = tmp_path / "m.ply"
    write_ply(mesh16, path)
    blob = path.read_bytes()
    head, body = blob.split(b"end_header\n", 1)
    assert b"format binary_little_endian 1.0" in head
    nv = len(mesh16.vertices)
    back = np.frombuffer(body[: nv * 24], dtype="<f8").reshape(nv, 3)
    assert np.array_equal(back, mesh16.vertices)
    assert len(body) == nv * 24 + 13 * len(mesh16.faces)
    records = list(struct.iter_unpack("<B3i", body[nv * 24 :]))
    assert all(rec[0] == 3 for rec in records)
    assert np.array_equal([rec[1:] for rec in records], mesh16.faces)


# --- validation ------------------------------------------------------------


def test_validation_report_flagship():
    rep = validate_moduli(FLAGSHIP, grid=32)
    assert rep.passes()
    d = rep.to_dict()
    assert list(d.keys()) == REPORT_FIELDS
    assert all(np.isfinite(v) for v in d.values() if isinstance(v, float))
    assert rep.outer_sign_changes >= 1
    assert rep.max_abs_p_interior < 1.0
    assert rep.boundary_p_deviation < 1e-8
    assert json.loads(rep.to_json())["rs_ok"] is True


def test_validation_away_from_flagship():
    # curvature probes and circle-collapse gaps must hold up where the
    # well-conditioned region sits elsewhere than at the reference moduli
    for r, s in ((0.4, -0.3), (0.1, -0.9), (0.6, -0.1)):
        moduli, _ = solve_canonical(r, s)
        rep = validate_moduli(moduli, grid=24)
        assert rep.passes(), (r, s, rep.to_dict())
        assert rep.max_abs_curvature < 1e-4
        assert rep.sing1_error < 1e-3 and rep.sing2_error < 1e-3


def test_validation_rejects_corruption():
    bad = FLAGSHIP.to_dict()
    bad["z1"] += 1e-2
    from flatfront.annulus import CanonicalModuli

    rep = validate_moduli(CanonicalModuli.from_dict(bad), grid=16)
    assert not rep.passes()
    assert abs(rep.c3_res) > 1e-4


def test_boundary_ranges_ok():
    assert boundary_ranges_ok(FLAGSHIP)


def test_validation_grid_guard():
    with pytest.raises(ValueError):
        validate_moduli(FLAGSHIP, grid=4)


# --- CLI -------------------------------------------------------------------


def _solve(tmp_path, name="moduli.json", r="0.25", s="-0.5"):
    out = tmp_path / name
    code = main(["solve", "--r", r, "--s", s, "--out", str(out)])
    return code, out


def test_cli_solve(tmp_path, capsys):
    code, out = _solve(tmp_path)
    assert code == 0
    data = json.loads(out.read_text())
    assert data["m"] == pytest.approx(-2.5, abs=1e-12)
    assert data["z0"] == pytest.approx(-0.5, abs=1e-10)
    assert json.loads(capsys.readouterr().out) == data
    trace = json.loads((tmp_path / "moduli.json.trace.json").read_text())
    assert max(abs(v) for v in trace["residuals"].values()) < 1e-10
    # written moduli reload into identical residuals
    from flatfront.annulus import CanonicalModuli
    from flatfront.solver import residuals

    assert residuals(CanonicalModuli.from_json(out.read_text())) == trace["residuals"]


def test_cli_solve_range_guard(capsys):
    assert main(["solve", "--r", "1.5", "--s", "-0.5"]) == 2
    assert main(["solve", "--r", "0.25", "--s", "0.5"]) == 2
    # inside (0,1) but numerically unsupported: clean usage error, no traceback
    assert main(["solve", "--r", "0.9999", "--s", "-0.5"]) == 2
    assert "too close to 1" in capsys.readouterr().err


def test_cli_mesh(tmp_path, capsys):
    _, moduli = _solve(tmp_path)
    out = tmp_path / "m.obj"
    code = main(["mesh", str(moduli), "--nu", "12", "--nv", "16", "--out", str(out)])
    assert code == 0
    assert out.read_text().startswith("# model halfspace")
    ply = tmp_path / "m.ply"
    assert main(["mesh", str(moduli), "--nu", "12", "--nv", "16",
                 "--out", str(ply), "--format", "ply"]) == 0
    assert ply.read_bytes().startswith(b"ply\nformat binary_little_endian")
    klein = tmp_path / "k.obj"
    assert main(["mesh", str(moduli), "--nu", "12", "--nv", "16",
                 "--model", "klein", "--out", str(klein)]) == 0
    vs = np.array(
        [[float(x) for x in ln.split()[1:]]
         for ln in klein.read_text().splitlines() if ln.startswith("v ")]
    )
    assert np.linalg.norm(vs, axis=1).max() < 1.0
    capsys.readouterr()


def test_cli_mesh_unreadable(tmp_path, capsys):
    assert main(["mesh", str(tmp_path / "nope.json")]) == 3
    junk = tmp_path / "junk.json"
    junk.write_text("not json at all")
    assert main(["mesh", str(junk)]) == 3
    capsys.readouterr()


def test_cli_mesh_reports_theta_pole(tmp_path, capsys):
    # z0 one ulp below z1: the slit map's theta quotient is evaluated on a
    # zero of theta1; validate already reports this file as failed
    _, moduli = _solve(tmp_path)
    bad = json.loads(moduli.read_text())
    bad["z0"] = math.nextafter(bad["z1"], -2)
    crafted = tmp_path / "crafted.json"
    crafted.write_text(json.dumps(bad))
    capsys.readouterr()
    assert main(["mesh", str(crafted), "--out", str(tmp_path / "c.obj")]) == 2
    err = capsys.readouterr().err
    assert err.startswith("flatfront: theta1 vanishes at z = ")
    assert not (tmp_path / "c.obj").exists()
    assert main(["validate", str(crafted), "--grid", "16"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize("field", ["c1", "a_R"])
def test_cli_mesh_rejects_moduli_off_their_divisor(tmp_path, capsys, field):
    # a shifted constant leaves W without a single-valued square root of the
    # closed form; mesh refuses the file at every resolution
    _, moduli = _solve(tmp_path)
    bad = json.loads(moduli.read_text())
    bad[field] += 1e-3
    crafted = tmp_path / "crafted.json"
    crafted.write_text(json.dumps(bad))
    out = tmp_path / "c.obj"
    capsys.readouterr()
    assert main(["mesh", str(crafted), "--nu", "12", "--nv", "16", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("flatfront: W is not a constant")
    assert not out.exists()
    assert main(["validate", str(crafted), "--grid", "16"]) == 1
    capsys.readouterr()


def test_cli_mesh_rejects_empty_mesh(tmp_path, capsys):
    # NaN, and any radius that excises every face, is a usage error rather
    # than an empty mesh file
    _, moduli = _solve(tmp_path)
    out = tmp_path / "m.obj"
    for rho_end in ("nan", "inf", "5"):
        capsys.readouterr()
        assert main(["mesh", str(moduli), "--rho-end", rho_end, "--out", str(out)]) == 2
        assert "rho_end" in capsys.readouterr().err
        assert not out.exists()


def test_cli_validate(tmp_path, capsys):
    _, moduli = _solve(tmp_path)
    report = tmp_path / "report.json"
    code = main(["validate", str(moduli), "--grid", "16", "--out", str(report)])
    assert code == 0
    data = json.loads(report.read_text())
    assert list(data.keys()) == REPORT_FIELDS
    bad = json.loads(moduli.read_text())
    bad["z1"] += 1e-2
    corrupt = tmp_path / "corrupt.json"
    corrupt.write_text(json.dumps(bad))
    assert main(["validate", str(corrupt), "--grid", "16"]) == 1
    assert main(["validate", str(moduli), "--grid", "4"]) == 2
    capsys.readouterr()


def test_cli_rotational(tmp_path, capsys):
    out = tmp_path / "rot.obj"
    assert main(["rotational", "--b", "0.5", "--nu", "12", "--nv", "16",
                 "--out", str(out)]) == 0
    rep = json.loads((tmp_path / "rot.obj.report.json").read_text())
    assert rep["apex_height"] == 1.0
    assert rep["max_abs_curvature"] is None  # degenerate exponent
    assert main(["rotational", "--b", "0.3", "--nu", "12", "--nv", "16",
                 "--out", str(tmp_path / "r3.obj")]) == 0
    rep3 = json.loads((tmp_path / "r3.obj.report.json").read_text())
    assert rep3["max_abs_curvature"] < 1e-4
    assert main(["rotational", "--b", "1.5"]) == 2
    capsys.readouterr()


def test_cli_deterministic_outputs(tmp_path, capsys):
    _, a = _solve(tmp_path, "a.json", r="0.31", s="-0.77")
    _, b = _solve(tmp_path, "b.json", r="0.31", s="-0.77")
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.json.trace.json").read_bytes() == (
        tmp_path / "b.json.trace.json"
    ).read_bytes()
    m1, m2 = tmp_path / "m1.obj", tmp_path / "m2.obj"
    for m in (m1, m2):
        main(["mesh", str(a), "--nu", "12", "--nv", "16", "--out", str(m)])
    assert m1.read_bytes() == m2.read_bytes()
    capsys.readouterr()


def test_cli_env_tolerance(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("FLATFRONT_TOL", "1e-30")
    assert main(["solve", "--r", "0.25", "--s", "-0.5"]) == 4  # unreachable gate
    monkeypatch.setenv("FLATFRONT_TOL", "0.5")
    code, moduli = _solve(tmp_path)
    assert code == 0
    assert main(["validate", str(moduli), "--grid", "16"]) == 0
    capsys.readouterr()
    monkeypatch.setenv("FLATFRONT_TOL", "tight")
    assert _master_tol() == MASTER_TOL
    assert main(["validate", str(moduli), "--grid", "16"]) == 0
    err = capsys.readouterr().err
    assert "flatfront: warning: ignoring unparseable FLATFRONT_TOL=tight" in err
