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


def real_log_slopes(r, w, tol=1e-22):
    """(log_slope, log_slope_deriv) at a real w from the sums of the
    factors' logarithmic derivatives and their derivatives, with as many
    factors as r^(2n) < tol min(|w|, 1/|w|) takes (2,519 at r = 0.99 and
    |w| = 1)."""
    n = mp.ceil(mp.log(tol * min(abs(w), 1 / abs(w))) / (2 * mp.log(r)))
    r = mp.mpf(r)
    w = mp.mpf(w)
    L = 1 / (w * (w - 1))
    dL = -(2 * w - 1) / (w * (w - 1)) ** 2
    for k in range(1, int(n) + 1):
        p = r ** (2 * k)
        L += -p / (1 - p * w) + p / (w * (w - p))
        dL += -p * p / (1 - p * w) ** 2 - p * (2 * w - p) / (w * (w - p)) ** 2
    return w * L, L + w * dL


def _log_slope(r, w, n):
    return w * theta_product_deriv(r, w, n) / theta_product(r, w, n)


def shape_ratio(moduli, z, n=N_TERMS):
    """The shape ratio p = factor^2 z^2 (R'/(g'/g) + R (R - 1)) / W at z, for
    a mapping of the float moduli fields r, m, z0, z1, z2, a_R and b_R.

    Built from the definitions on the plain product: R = a_R q(z0, z) + b_R
    with the slit map q(c, z) = -(h(c/z) + h(c z))/c, h(w) = w theta'/theta;
    g = theta(z2 z) / (z theta(z1 z)) up to its constant; W = C theta(z2 z)^2
    / theta(z1 z)^2 with C = -theta(z1/z0) theta(z1 z0) / (theta(z2/z0)
    theta(z2 z0)); the shape factor -z^(m+1) theta(z/z0) theta(z z0) / (z1 K'
    theta(z z1)^2) with K' = theta(z2/z0) theta(z2 z0) / (theta(z2/z1)
    theta(z2 z1)).  R' and g' are mpmath's numerical derivatives.
    """
    r, m = mp.mpf(moduli["r"]), mp.mpf(moduli["m"])
    z0, z1, z2 = (mp.mpf(moduli[k]) for k in ("z0", "z1", "z2"))
    a_R, b_R = mp.mpf(moduli["a_R"]), mp.mpf(moduli["b_R"])
    z = mp.mpc(z)

    def th(w):
        return theta_product(r, w, n)

    def R(w):
        return a_R * (-(_log_slope(r, z0 / w, n) + _log_slope(r, z0 * w, n)) / z0) + b_R

    def g(w):
        return th(z2 * w) / (w * th(z1 * w))

    C = -th(z1 / z0) * th(z1 * z0) / (th(z2 / z0) * th(z2 * z0))
    k_prime = th(z2 / z0) * th(z2 * z0) / (th(z2 / z1) * th(z2 * z1))
    W = C * th(z2 * z) ** 2 / th(z1 * z) ** 2
    factor = -mp.power(z, m + 1) * th(z / z0) * th(z * z0) / (z1 * k_prime * th(z * z1) ** 2)
    Rz = R(z)
    g_log = mp.diff(g, z) / g(z)
    return factor**2 * z**2 * (mp.diff(R, z) / g_log + Rz * (Rz - 1)) / W


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
