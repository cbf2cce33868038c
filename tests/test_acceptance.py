"""Acceptance gate: the eight top-level criteria, one pass/fail line each.

Each test prints a single summary line (past pytest's capture) and then
asserts, so a full -v run shows the verdict for every criterion.
"""

import json
import time

import numpy as np
import pytest

from flatfront.annulus import gauss_map, potential, second_gauss_map
from flatfront.cli import main
from flatfront.immersion import (
    HalfSpacePoint,
    RotationalModuli,
    brioschi_curvature,
    first_form,
    first_form_rotational,
    hyperbolic_distance,
    immerse,
    immerse_rotational,
    shape_ratio,
)
from flatfront.solver import BracketError, solve_canonical
from flatfront.theta import ThetaContext, log_slope, theta1, dtheta1
from flatfront.validation import interior_grid
from routes import immerse_from_gauss_data, rotational_disc, rotational_gauss_data


def _verdict(capsys, n, label, ok, detail):
    with capsys.disabled():
        print(f"\n[criterion {n}] {label}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {n} failed: {detail}"


@pytest.fixture(scope="module")
def flagship():
    moduli, _ = solve_canonical(0.25, -0.5)
    return moduli, moduli.context()


def test_criterion_1_closed_form(capsys):
    worst = {"m": 0.0, "z0": 0.0, "prod": 0.0, "t": 0.0}
    for r in (0.1, 0.25, 0.5):
        t0 = time.perf_counter()
        moduli, _ = solve_canonical(r, -0.5)
        dt = time.perf_counter() - t0
        worst["m"] = max(worst["m"], abs(moduli.m + 2.5))
        worst["z0"] = max(worst["z0"], abs(moduli.z0 + np.sqrt(r)))
        worst["prod"] = max(worst["prod"], abs(moduli.z1 * moduli.z2 - r))
        worst["t"] = max(worst["t"], dt)
    ok = (
        worst["m"] < 1e-12
        and worst["z0"] < 1e-10
        and worst["prod"] < 1e-10
        and worst["t"] < 1.0
    )
    _verdict(
        capsys, 1, "closed-form moduli at s=-1/2", ok,
        f"|m+5/2|={worst['m']:.2e}, |z0+sqrt(r)|={worst['z0']:.2e}, "
        f"|z1*z2-r|={worst['prod']:.2e}, slowest={worst['t']:.2f}s",
    )


def test_criterion_2_theta_identities(capsys):
    t0 = time.perf_counter()
    rng = np.random.default_rng(7)
    worst = 0.0
    for r in (0.1, 0.25, 0.5, 0.7):
        ctx = ThetaContext.create(r)
        lo, hi = 1.5 * np.log(r), -1.5 * np.log(r)
        z = np.exp(
            rng.uniform(lo, hi, 1000) + 1j * rng.uniform(1e-2, 2 * np.pi - 1e-2, 1000)
        )
        th = theta1(ctx, z)
        scale = np.abs(th) + 1.0
        rel = [
            np.abs(th + r * r * z * theta1(ctx, r * r * z)) / scale,
            np.abs(th + theta1(ctx, 1.0 / z) / z) / scale,
            np.abs(theta1(ctx, z / (r * r)) + z * th) / (scale / (r * r)),
            np.abs(theta1(ctx, np.conj(z)) - np.conj(th)) / scale,
            np.abs(
                dtheta1(ctx, z)
                + r * r * theta1(ctx, r * r * z)
                + r**4 * z * dtheta1(ctx, r * r * z)
            ) / (np.abs(dtheta1(ctx, z)) + 1.0),
        ]
        h = log_slope(ctx, z)
        rel.append(np.abs(h + log_slope(ctx, 1.0 / z) + 1.0))
        rel.append(np.abs(h - 1.0 - log_slope(ctx, r * r * z)))
        rel.append(np.abs(log_slope(ctx, complex(r)) + 1.0))
        worst = max(worst, max(float(np.max(e)) for e in rel))
    dt = time.perf_counter() - t0
    ok = worst < 1e-10 and dt < 5.0
    _verdict(capsys, 2, "theta/log-slope identity suite", ok,
             f"worst deviation={worst:.2e} over 4x1000 samples, {dt:.2f}s")


def test_criterion_3_moduli_grid(capsys):
    t0 = time.perf_counter()
    worst = 0.0
    solved, documented_failures = 0, 0
    for r in np.linspace(0.1, 0.6, 5):
        for s in np.linspace(-0.9, -0.1, 5):
            try:
                _, trace = solve_canonical(float(r), float(s))
            except BracketError:
                documented_failures += 1
                continue
            solved += 1
            worst = max(worst, max(abs(v) for v in trace.residuals.values()))
    dt = time.perf_counter() - t0
    ok = worst < 1e-10 and dt < 30.0 and solved + documented_failures == 25
    _verdict(capsys, 3, "5x5 moduli grid residuals", ok,
             f"{solved}/25 solved, {documented_failures} bracket failures, "
             f"max residual={worst:.2e}, {dt:.1f}s")


def test_criterion_4_singularity_geometry(capsys, flagship):
    moduli, ctx = flagship
    theta = np.linspace(-np.pi, np.pi, 257)[:-1]
    targets = (
        (1.0 - 1e-4, 1.0),
        (moduli.r + 1e-4, abs(moduli.z1) * moduli.r ** (-1.5)),
    )
    worst_err, worst_diam = 0.0, 0.0
    for rho, height in targets:
        pts = immerse(moduli, ctx, rho * np.exp(1j * theta))
        cone = HalfSpacePoint(0.0 + 0.0j, np.full(theta.shape, height))
        worst_err = max(worst_err, float(hyperbolic_distance(pts, cone).max()))
        sub = HalfSpacePoint(pts.horizontal[::8], pts.height[::8])
        pair = hyperbolic_distance(
            HalfSpacePoint(sub.horizontal[:, None], sub.height[:, None]),
            HalfSpacePoint(sub.horizontal[None, :], sub.height[None, :]),
        )
        worst_diam = max(worst_diam, float(pair.max()))
    ok = worst_err < 1e-3 and worst_diam < 1e-3
    _verdict(capsys, 4, "singular circle collapse at offset 1e-4", ok,
             f"max distance from cone points={worst_err:.2e}, "
             f"max image diameter={worst_diam:.2e}")


def test_criterion_5_modulus_bound(capsys, flagship):
    moduli, ctx = flagship
    theta = np.linspace(-np.pi, np.pi, 513)[:-1]
    bnd = max(
        float(np.abs(np.abs(shape_ratio(moduli, ctx, rho * np.exp(1j * theta))) - 1.0).max())
        for rho in (1.0, moduli.r)
    )
    interior = float(np.abs(shape_ratio(moduli, ctx, interior_grid(moduli.r, 200))).max())
    ok = bnd < 1e-8 and interior < 1.0
    _verdict(capsys, 5, "shape-ratio modulus bounds", ok,
             f"boundary | |p|-1 | max={bnd:.2e}, interior max |p|={interior:.6f} on 200x200")


def _interior_points(moduli, n, seed, margin=0.05):
    rng = np.random.default_rng(seed)
    zs = np.exp(
        np.log(moduli.r) * rng.uniform(0.1, 0.9, 2 * n)
        + 1j * rng.uniform(-np.pi, np.pi, 2 * n)
    )
    for mk in (moduli.z0, moduli.z1, moduli.z2):
        zs = zs[np.abs(zs - mk) > margin]
    return zs[:n]


def _band_curvatures(moduli, ctx, n_frac, n_ang, h):
    fracs = np.linspace(0.45, 0.55, n_frac)
    angs = np.linspace(0.35, np.pi - 0.35, n_ang)
    angs = np.concatenate([angs, -angs])
    zs = (
        np.exp(np.log(moduli.r) * fracs)[:, None] * np.exp(1j * angs)[None, :]
    ).ravel()
    offs = np.array([[complex(i, j) for i in (-1, 0, 1)] for j in (-1, 0, 1)])
    ks = []
    for hh in (h, 0.5 * h):
        ms = first_form(moduli, ctx, zs[:, None, None] + hh * offs[None])
        ks.append(
            np.array(
                [
                    brioschi_curvature(ms.E[i], ms.F[i], ms.G[i], hh)
                    for i in range(zs.size)
                ]
            )
        )
    return zs.size, (4.0 * ks[1] - ks[0]) / 3.0


def test_criterion_6_metric_validation(capsys, flagship):
    t0 = time.perf_counter()
    moduli, ctx = flagship
    zs = _interior_points(moduli, 100, seed=11)
    d = 1e-5

    def parts(z):
        p = immerse(moduli, ctx, z)
        return p.horizontal, p.height

    hx1, v1 = parts(zs + d)
    hx0, v0 = parts(zs - d)
    hy1, w1 = parts(zs + 1j * d)
    hy0, w0 = parts(zs - 1j * d)
    _, vc = parts(zs)
    dxh, dxv = (hx1 - hx0) / (2 * d), (v1 - v0) / (2 * d)
    dyh, dyv = (hy1 - hy0) / (2 * d), (w1 - w0) / (2 * d)
    ms = first_form(moduli, ctx, zs)
    scale = np.maximum(ms.E, ms.G)
    fd_err = max(
        float(np.max(np.abs(ms.E - (np.abs(dxh) ** 2 + dxv**2) / vc**2) / scale)),
        float(np.max(np.abs(ms.G - (np.abs(dyh) ** 2 + dyv**2) / vc**2) / scale)),
        float(np.max(np.abs(ms.F - ((dxh * np.conj(dyh)).real + dxv * dyv) / vc**2) / scale)),
    )

    # ds^2 - dsigma^2 comparison at the same points: determinant and trace
    det_gap = float(np.min(ms.E * ms.G - ms.F**2 - ms.lambda_sq**2))
    trace_gap = float(np.min(ms.E + ms.G - 2.0 * ms.lambda_sq))
    det_scale = float(np.max(ms.E * ms.G))
    psd_ok = det_gap > -1e-12 * det_scale and trace_gap > -1e-12

    n_can, k_can = _band_curvatures(moduli, ctx, 5, 10, h=5e-4)
    worst_k_can = float(np.abs(k_can).max())

    rot = RotationalModuli.from_exponent(0.6)
    rng = np.random.default_rng(13)
    w = rot.s_rot * rng.uniform(0.3, 0.9, 100) * np.exp(1j * rng.uniform(0, 2 * np.pi, 100))
    offs = np.array([[complex(i, j) for i in (-1, 0, 1)] for j in (-1, 0, 1)])
    krs = []
    for hh in (5e-4, 2.5e-4):
        mr = first_form_rotational(rot, w[:, None, None] + hh * offs[None])
        krs.append(
            np.array(
                [brioschi_curvature(mr.E[i], mr.F[i], mr.G[i], hh) for i in range(w.size)]
            )
        )
    worst_k_rot = float(np.abs((4.0 * krs[1] - krs[0]) / 3.0).max())

    dt = time.perf_counter() - t0
    ok = (
        fd_err < 1e-5
        and psd_ok
        and worst_k_can < 1e-4
        and worst_k_rot < 1e-4
        and dt < 60.0
    )
    _verdict(capsys, 6, "first form, comparison form, flatness", ok,
             f"FD rel err={fd_err:.2e} at 100 pts, det/trace gaps "
             f"{det_gap:.1e}/{trace_gap:.1e}, |K| canonical={worst_k_can:.2e} "
             f"({n_can} pts), rotational={worst_k_rot:.2e} (100 pts), {dt:.1f}s")


def test_criterion_7_cross_route(capsys, flagship):
    moduli, ctx = flagship
    zs = _interior_points(moduli, 100, seed=17)
    g = gauss_map(moduli, ctx, zs)
    gs = second_gauss_map(moduli, ctx, zs)
    xi = np.exp(potential(moduli, ctx, zs))
    a = immerse(moduli, ctx, zs)
    b = immerse_from_gauss_data(g, gs, xi)
    gap = max(
        float(np.abs(a.horizontal - b.horizontal).max()),
        float(np.abs(a.height - b.height).max()),
    )

    rot_gap = 0.0
    for bexp in (0.3, 0.6):
        rot = RotationalModuli.from_exponent(bexp)
        r_disc, lam = rotational_disc(rot)
        rr = r_disc * np.linspace(0.05, 1.0, 50)
        route1 = immerse_from_gauss_data(*rotational_gauss_data(rot, rr.astype(complex)))
        closed = immerse_rotational(rot, lam * rr)
        rot_gap = max(
            rot_gap,
            float(np.abs(lam * np.abs(route1.horizontal) - np.abs(closed.horizontal)).max()),
            float(np.abs(lam * route1.height - closed.height).max()),
        )
    ok = gap < 1e-9 and rot_gap < 1e-8
    _verdict(capsys, 7, "cross-route agreement", ok,
             f"two-singularity routes gap={gap:.2e} at 100 pts, "
             f"rotational profile gap={rot_gap:.2e}")


def test_criterion_8_determinism(capsys, tmp_path):
    outputs = []
    for tag in ("one", "two"):
        d = tmp_path / tag
        d.mkdir()
        moduli = d / "moduli.json"
        assert main(["solve", "--r", "0.25", "--s", "-0.5", "--out", str(moduli)]) == 0
        assert main(["mesh", str(moduli), "--nu", "12", "--nv", "16",
                     "--out", str(d / "m.obj")]) == 0
        assert main(["mesh", str(moduli), "--nu", "12", "--nv", "16",
                     "--format", "ply", "--out", str(d / "m.ply")]) == 0
        assert main(["validate", str(moduli), "--grid", "16",
                     "--out", str(d / "report.json")]) == 0
        assert main(["rotational", "--b", "0.5", "--nu", "12", "--nv", "16",
                     "--out", str(d / "rot.obj")]) == 0
        outputs.append(
            tuple(
                (d / name).read_bytes()
                for name in ("moduli.json", "moduli.json.trace.json", "m.obj",
                             "m.ply", "report.json", "rot.obj", "rot.obj.report.json")
            )
        )
    capsys.readouterr()
    ok = outputs[0] == outputs[1]
    n = len(outputs[0])
    _verdict(capsys, 8, "byte-identical pipeline outputs", ok,
             f"{n} artifacts compared across two full runs")
