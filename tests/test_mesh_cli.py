"""Tests for mesh generation, export formats, validation reports, and the CLI."""

import json
import math
import struct

import numpy as np
import pytest

from flatfront import annulus, meshing, validation
from flatfront.annulus import gauss_ratio
from flatfront.cli import _master_tol, main
from flatfront.immersion import (
    HalfSpacePoint,
    RotationalModuli,
    end_direction,
    hyperbolic_distance,
    immerse,
    intrinsic_curvature,
    shape_ratio,
)
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


@pytest.mark.parametrize("model", ["halfspace", "klein"])
@pytest.mark.parametrize("n_theta", [16, 9])
def test_canonical_mesh_mirrors_its_columns(monkeypatch, n_theta, model):
    # canonical_mesh immerses the columns at -pi and at angles >= 0 and fills
    # column j from column n_theta - j; the mesh has the bits of one that
    # immerses every column at the same angles.  n_rho = 9 puts no vertex on
    # the end z0 = -0.5.
    kw = dict(n_rho=9, n_theta=n_theta, model=model, rho_end=1e-9)
    half = canonical_mesh(FLAGSHIP, **kw)

    def every_column(n):
        return annulus._mirror_angles(n)[0], np.arange(n)

    monkeypatch.setattr(meshing, "_mirror_angles", every_column)
    full = canonical_mesh(FLAGSHIP, **kw)
    assert half.vertices.tobytes() == full.vertices.tobytes()
    assert half.faces.tobytes() == full.faces.tobytes()
    assert half.boundary_rings == full.boundary_rings
    # the tiny end disc drops no vertex, so vertex (i, j) is row i * n_theta + j
    assert len(half.vertices) == 10 * n_theta
    v = half.vertices.reshape(10, n_theta, 3)
    lower = np.arange(1, (n_theta + 1) // 2)
    mirror = v[:, n_theta - lower] * np.array([1.0, -1.0, 1.0])
    assert v[:, lower].tobytes() == mirror.tobytes()


@pytest.mark.parametrize("n", [8, 9, 64])
def test_interior_grid_is_mirror_symmetric(n):
    grid = validation.interior_grid(0.25, n)
    # column n - 1 - j is the conjugate of column j, bit for bit, and the
    # columns j >= n // 2 make up the closed upper half; an odd n has a
    # column on theta = 0, which is its own mirror
    lower = grid[:, : n // 2]
    assert lower.tobytes() == np.conj(grid[:, ::-1][:, : n // 2]).tobytes()
    assert (lower.imag < 0.0).all() and (grid[:, n // 2 :].imag >= 0.0).all()
    if n % 2:
        assert (grid[:, n // 2].imag == 0.0).all()


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


@pytest.mark.parametrize("model", ["halfspace", "klein"])
def test_obj_bytes_equal_per_line_rendering(tmp_path, model):
    # the block-formatted writer gives the bytes of one f-string per line,
    # also for a negative zero, a tiny height and a huge coordinate
    mesh = canonical_mesh(FLAGSHIP, n_rho=8, n_theta=12, model=model)
    mesh.vertices[0] = (-0.0, 0.5, 1e-300)
    mesh.vertices[1, 0] = -1.2345678901234567e300
    path = tmp_path / "m.obj"
    write_obj(mesh, path)
    lines = [f"# model {model}"]
    for tag, ring in zip(("inner", "outer"), mesh.boundary_rings):
        lines.append(f"# ring {tag} " + " ".join(str(i + 1) for i in ring))
    lines += [f"v {x:.17g} {y:.17g} {z:.17g}" for x, y, z in mesh.vertices.tolist()]
    lines += [f"f {a} {b} {c}" for a, b, c in (mesh.faces + 1).tolist()]
    assert path.read_bytes() == ("\n".join(lines) + "\n").encode()
    assert b"\nv -0 0.5 1e-300\n" in path.read_bytes()


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


def test_validation_makes_one_call_per_evaluator(monkeypatch):
    calls = {}
    for name in ("shape_ratio", "intrinsic_curvature", "immerse"):
        def counted(*args, fn=getattr(validation, name), name=name, **kw):
            calls[name] = calls.get(name, 0) + 1
            return fn(*args, **kw)

        monkeypatch.setattr(validation, name, counted)
    assert validate_moduli(FLAGSHIP, grid=16).passes()
    assert calls == {"shape_ratio": 1, "intrinsic_curvature": 1, "immerse": 1}


def test_validation_fails_on_a_nan_in_second_place(monkeypatch):
    # Python's max keeps a NaN only when it comes first; the report must fail
    # on a NaN at the second curvature probe and on the inner circle, which
    # is the second of the two boundary circles
    real_k, real_p, real_ratio = validation.intrinsic_curvature, validation.shape_ratio, validation.gauss_ratio

    def nan_second_probe(moduli, ctx, z):
        k = real_k(moduli, ctx, z)
        k[1] = np.nan
        return k

    def nan_on_inner_circle(real):
        def fn(moduli, ctx, z):
            out = real(moduli, ctx, z)
            out[np.abs(np.abs(z) - moduli.r) < 1e-12] = np.nan
            return out

        return fn

    for name, fake, field in (
        ("intrinsic_curvature", nan_second_probe, "max_abs_curvature"),
        ("shape_ratio", nan_on_inner_circle(real_p), "boundary_p_deviation"),
    ):
        with monkeypatch.context() as m:
            m.setattr(validation, name, fake)
            rep = validate_moduli(FLAGSHIP, grid=16)
        assert math.isnan(getattr(rep, field)) and not rep.passes(), name
    monkeypatch.setattr(validation, "gauss_ratio", nan_on_inner_circle(real_ratio))
    assert not boundary_ranges_ok(FLAGSHIP)


def _mirrored_circle(n):
    """The n points exp(i pi (2k - n) / n): conjugation maps the set onto itself."""
    return np.exp(1j * np.pi * (2 * np.arange(n) - n) / n)


def _fields_equal_full_sets(r, s, grid):
    # validate_moduli evaluates the closed upper half of each point set; each
    # field has the bits of the same quantity over the full mirrored set, both
    # halves evaluated, from separate calls: shape_ratio on the grid and on
    # each circle, one intrinsic_curvature call per probe (the 8 best of the
    # full candidate lattice) and one immerse call per circle
    moduli, _ = solve_canonical(r, s)
    ctx = moduli.context()
    rep = validate_moduli(moduli, ctx, grid=grid)
    assert rep.passes()
    off = validation.CIRCLE_OFFSET
    circle = _mirrored_circle(validation.N_BOUNDARY)
    angles = np.concatenate([validation._CURV_ANGLES, -validation._CURV_ANGLES])
    cand = (np.exp(np.log(r) * validation._CURV_FRACS)[:, None] * np.exp(1j * angles)[None, :]).ravel()
    probes = cand[np.argsort(np.abs(shape_ratio(moduli, ctx, cand)))[: 2 * validation._CURV_PROBES]]
    assert np.array_equal(np.sort_complex(probes), np.sort_complex(np.conj(probes)))
    ring = _mirrored_circle(256)
    grid_pts = validation.interior_grid(r, grid)
    assert grid_pts.shape == (grid, grid)

    def collapse_gap(rho_near, rho_far, height):
        cone = HalfSpacePoint(0.0 + 0.0j, np.full(ring.shape, height))
        d_near = hyperbolic_distance(immerse(moduli, ctx, rho_near * ring), cone)
        d_far = hyperbolic_distance(immerse(moduli, ctx, rho_far * ring), cone)
        return np.abs(2.0 * d_near - d_far).max()

    end = immerse(moduli, ctx, moduli.z0 + off * _mirrored_circle(64))
    rebuilt = {
        "max_abs_p_interior": np.abs(shape_ratio(moduli, ctx, grid_pts)).max(),
        "boundary_p_deviation": max(
            np.abs(np.abs(shape_ratio(moduli, ctx, rho * circle)) - 1.0).max() for rho in (1.0, r)
        ),
        "max_abs_curvature": max(abs(intrinsic_curvature(moduli, ctx, complex(z))) for z in probes),
        "sing1_error": collapse_gap(1.0 - off, 1.0 - 2.0 * off, 1.0),
        "sing2_error": collapse_gap(r + off, r + 2.0 * off, moduli.c_height),
        "end_error": np.sqrt(np.abs(end.horizontal - end_direction(moduli, ctx)) ** 2 + end.height**2).max(),
    }
    for name, value in rebuilt.items():
        assert np.float64(getattr(rep, name)).tobytes() == np.float64(value).tobytes(), name
    bnd = gauss_ratio(moduli, ctx, np.concatenate([circle, r * circle]))
    r1, rr = gauss_ratio(moduli, ctx, np.array([1.0, r])).real
    full_ok = np.abs(bnd.imag).max() <= 1e-10 and 0.0 < bnd.real.min() and bnd.real.max() < 1.0 and r1 < rr
    assert rep.rs_ok == bool(full_ok)


@pytest.mark.parametrize("r, s", [(0.25, -0.5), (0.6, -0.8), (0.1, -0.1)])
def test_validation_fields_equal_separate_calls(r, s):
    _fields_equal_full_sets(r, s, 64)


@pytest.mark.parametrize("r, s", [(0.25, -0.5), (0.6, -0.8), (0.1, -0.1)])
def test_validation_fields_equal_separate_calls_odd_grid(r, s):
    # an odd grid has a column on theta = 0, its own mirror
    _fields_equal_full_sets(r, s, 9)


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


@pytest.mark.parametrize("field", ["c2", "b_R"])
def test_cli_mesh_rejects_moduli_off_the_marker_z2(tmp_path, capsys, field):
    # c2 and b_R leave W alone away from z2; mesh refuses the file all the
    # same instead of writing a surface built from inconsistent moduli
    _, moduli = _solve(tmp_path)
    bad = json.loads(moduli.read_text())
    bad[field] += 1e-3
    crafted = tmp_path / "crafted.json"
    crafted.write_text(json.dumps(bad))
    out = tmp_path / "c.obj"
    capsys.readouterr()
    assert main(["mesh", str(crafted), "--nu", "12", "--nv", "16", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("flatfront: moduli do not fit the marker z2")
    assert not out.exists()
    assert main(["validate", str(crafted), "--grid", "16"]) == 1
    capsys.readouterr()


@pytest.mark.parametrize(
    "field, value, message",
    [("m", math.nan, "exponent m"), ("m", -1.0, "exponent m"), ("s", -0.4, "marker z2")],
)
def test_cli_mesh_rejects_moduli_off_m_and_s(tmp_path, capsys, field, value, message):
    # m and s do not enter W or g: a NaN m would mesh into NaN vertices and a
    # wrong s into a surface with another slope, so mesh refuses both files
    _, moduli = _solve(tmp_path)
    bad = json.loads(moduli.read_text())
    bad[field] = value
    crafted = tmp_path / "crafted.json"
    crafted.write_text(json.dumps(bad))
    out = tmp_path / "c.obj"
    capsys.readouterr()
    assert main(["mesh", str(crafted), "--nu", "12", "--nv", "16", "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(f"flatfront: moduli do not fit the {message}")
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


def test_cli_rotational_rejects_coarse_mesh(tmp_path, capsys):
    # too few rings or samples is a usage error, as it is for mesh, and
    # writes neither the mesh nor its report
    out = tmp_path / "rot.obj"
    for flags in (["--nu", "4"], ["--nv", "4"]):
        capsys.readouterr()
        assert main(["rotational", "--b", "0.3", *flags, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("flatfront: n_rho and n_theta must both be at least 8")
        assert not out.exists()
        assert not (tmp_path / "rot.obj.report.json").exists()


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
    # a value that is not a finite positive number is ignored the same way:
    # nan and inf would switch the gates off, 0 and -1 make every solve fail
    for raw in ("nan", "inf", "0", "-1"):
        monkeypatch.setenv("FLATFRONT_TOL", raw)
        assert _master_tol() == MASTER_TOL
        assert main(["solve", "--r", "0.25", "--s", "-0.5"]) == 0
        assert main(["validate", str(moduli), "--grid", "16"]) == 0
        err = capsys.readouterr().err
        assert err.count(f"flatfront: warning: ignoring unparseable FLATFRONT_TOL={raw}") == 3
