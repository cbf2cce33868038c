"""Regenerates the frozen oracle values used in the test suite.

Run directly (`python tests/oracles.py`) to print every frozen constant.
The package under test is never imported here; each oracle is an
independent route to the same number.
"""

from __future__ import annotations

import mpmath as mp

mp.mp.dps = 50

N_TERMS = 200


def theta_product(r, z, n=N_TERMS):
    """Plain 200-term product at 50 digits."""
    r = mp.mpf(r)
    z = mp.mpc(z)
    out = mp.mpf(1)
    for k in range(1, n + 1):
        out *= 1 - r ** (2 * k)
    out *= 1 - 1 / z
    for k in range(1, n + 1):
        p = r ** (2 * k)
        out *= (1 - p * z) * (1 - p / z)
    return out


def theta_product_deriv(r, z, n=N_TERMS):
    """Logarithmic-derivative route, valid away from zeros."""
    r = mp.mpf(r)
    z = mp.mpc(z)
    L = (1 / z**2) / (1 - 1 / z)
    for k in range(1, n + 1):
        p = r ** (2 * k)
        L += -p / (1 - p * z) + (p / z**2) / (1 - p / z)
    return theta_product(r, z, n) * L


def log_slope_deriv(r, z, n=N_TERMS):
    """d/dz of z theta'(z) / theta(z), from mpmath's numerical derivatives
    of the plain product (valid away from zeros)."""
    z = mp.mpc(z)
    t0, t1, t2 = mp.diffs(lambda w: theta_product(r, w, n), z, 2)
    return t1 / t0 + z * (t2 * t0 - t1 * t1) / (t0 * t0)


def tail_constant_cubed(r, n=N_TERMS):
    r = mp.mpf(r)
    c = mp.mpf(1)
    for k in range(1, n + 1):
        c *= 1 - r ** (2 * k)
    return c**3


def rotational_third_coordinate(b, gmod):
    """Scalar arithmetic for the rotational closed form's height."""
    b = mp.mpf(b)
    a = (1 - b) ** (b - 1) * b ** (-b)
    g = mp.mpf(gmod)
    return a * g ** (2 * b) / (1 + a**2 * b**2 * g ** (4 * b - 2))


if __name__ == "__main__":
    cases = [
        (0.25, -0.5),
        (0.25, -0.6),
        (0.5, 1.7),
        (0.5, mp.mpc(-0.9, 0.3)),
        (0.7, mp.mpc(0.123, 0.456)),
        (0.25, mp.mpc(17.0, -3.0)),
        (0.25, mp.mpc(0.004, 0.001)),
    ]
    for r, z in cases:
        print(f"theta({r}, {z}) = {mp.nstr(theta_product(r, z), 20)}")
    print(f"dtheta(0.25, -0.5) = {mp.nstr(theta_product_deriv(0.25, -0.5), 20)}")
    print(f"C^3(r=0.5) = {mp.nstr(tail_constant_cubed(0.5), 20)}")
    print(f"rotational psi3(b=0.5, |g|=0.5) = {mp.nstr(rotational_third_coordinate(0.5, 0.5), 20)}")
