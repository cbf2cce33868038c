"""Second routes to the flat front, for the cross-route tests.

``immerse_from_gauss_data`` evaluates the front from raw data (g, g*, |xi|)
and shares no annulus code with ``immerse``, which makes the two mutually
checkable.  On the rotational family, ``rotational_gauss_data`` gives that
route data on a disc whose dilation is the closed form ``immerse_rotational``.

``theta_series`` evaluates theta1 and its log slopes at one argument,
given by its log, from the complex modular series of flatfront.theta
(``_series_sums``), which the annulus layer runs at four arguments at once.
The tests pin it against mpmath and the product, and the solver's real
form of the series against it.

``potential_product`` and ``second_gauss_map_product`` take u and g* from
the raw quotients on the theta product (``theta_quotient`` and
``gauss_ratio``), where the library takes both from the modular series
pass that ``immerse`` runs; the cross-route tests feed them to
``immerse_from_gauss_data``, so the two routes share no evaluation of u,
R or g*.  ``shape_factor_product`` is the shape factor, whose modulus is
e^2u, as a theta product without the raw quotients' cancellation at z1;
the library takes it from the series pass of ``immerse`` and
``first_form``.

``bracketed_root_reference`` is the solver's safeguarded Newton loop
written on full-length arrays, with an ``np.where`` update of every entry
per step; ``solver.bracketed_root`` carries only the entries still active
and must give the same roots and iteration counts bit for bit.
"""

from __future__ import annotations

import math

import numpy as np

from flatfront.annulus import (
    AT_INFINITY,
    DegenerateConfigurationError,
    _surface,
    gauss_map,
    gauss_ratio,
    theta_quotient,
)
from flatfront.immersion import HalfSpacePoint, RotationalModuli
from flatfront.solver import FLOOR_ULPS, MAX_ITERS
from flatfront.theta import _eval, _expm1, _guard_series_zeros, _series_sums, pointwise


@pointwise
def immerse_from_gauss_data(g, g_star, xi_abs):
    """The front from raw data (g, g*, |xi|), with e^2u = |xi|^2.

    The three arguments share g's shape.  An infinite g* (the AT_INFINITY
    sentinel) means F = 0.
    """
    g_star = np.asarray(g_star, dtype=np.complex128).reshape(-1)
    e2 = np.asarray(xi_abs, dtype=float).reshape(-1) ** 2
    gap = g - g_star
    with np.errstate(divide="ignore", invalid="ignore"):
        F = np.where(np.isinf(g_star.real) | np.isinf(g_star.imag), 0.0, 1.0 / gap)
    psi3 = e2 / (1.0 + e2 * e2 * np.abs(F) ** 2)
    horiz = g - psi3 * e2 * np.conj(F)
    return HalfSpacePoint(horiz, psi3)


@pointwise
def potential_product(moduli, ctx, z):
    """u with exp(2u) = |Q1(z) z^m / (1 - R(z))| from the raw quotients
    Q1 = theta_quotient(z1, z) and R = gauss_ratio(z) on the product; NaN at
    z1, where both vanish."""
    q1 = np.abs(theta_quotient(ctx, moduli.z1, z))
    R = gauss_ratio(moduli, ctx, z)
    return 0.5 * (np.log(q1) + moduli.m * np.log(np.abs(z)) - np.log(np.abs(1.0 - R)))


@pointwise
def second_gauss_map_product(moduli, ctx, z):
    """g* = g (R - 1) / R with R = gauss_ratio(z) on the product; the tagged
    value AT_INFINITY where |R| < 1e-300."""
    g = gauss_map(moduli, ctx, z)
    R = gauss_ratio(moduli, ctx, z)
    with np.errstate(divide="ignore", invalid="ignore"):
        out = g * (R - 1.0) / R
    return np.where(np.abs(R) < 1e-300, AT_INFINITY, out)


@pointwise
def shape_factor_product(moduli, ctx, z):
    """Q1 z^m / (1-R) = -z^(m+1) theta1(z/z0) theta1(z0 z) / (z1 K' theta1(z1 z)^2)
    on the theta product, with the principal-branch z^m; its modulus is
    exp(2u).  theta1(z/z0) is read as -(z0/z) theta1(z0/z), by
    theta1(1/w) = -w theta1(w), so the arguments are z0/z, z0 z and z1 z.
    Regular at z1 and z2 and zero at the end z0."""
    k_prime = _surface(moduli, ctx).k_prime
    a, b, c = (_eval(ctx, w, 0)[0] for w in (moduli.z0 / z, moduli.z0 * z, moduli.z1 * z))
    a = -(moduli.z0 / z) * a
    return -z * np.exp(moduli.m * np.log(z)) * a * b / (moduli.z1 * k_prime * c * c)


def rotational_disc(rot: RotationalModuli) -> tuple[float, float]:
    """(r_disc, lambda): the radius of the disc that carries the route-1 data
    and the dilation with lambda psi_route1(z) = psi(lambda z); lambda r_disc
    is s_rot.  Neither exists at b = 1/2."""
    if rot.degenerate:
        raise DegenerateConfigurationError("no two-route dilation at b = 1/2")
    r_disc = (rot.b * (1.0 - rot.b)) ** (1.0 / (2.0 * rot.a_sec))
    return r_disc, rot.s_rot / r_disc


def rotational_gauss_data(rot: RotationalModuli, z):
    """Route-1 data (g, g*, |xi|) on the disc 0 < |z| <= r_disc."""
    if rot.degenerate:
        raise DegenerateConfigurationError("route-1 data degenerates at b = 1/2")
    z = np.asarray(z, dtype=np.complex128)
    b = rot.b
    return z, -z * (1.0 - b) / b, np.abs(z) ** b


def theta_series(ctx, lv, order: int):
    """(s D, exp(phi), h, dh/dlv) at the points v = exp(lv) from the complex
    modular series, for flat complex lv with |Im lv| <= pi; the last two
    None past ``order``.

    Jacobi's imaginary transformation (DLMF 20.7.30) takes theta1 to the
    series 2 q'^(1/4) sum (-1)^n q'^(n(n+1)) sin((2n+1) y) at
    y = pi lv / (2l) times a Gaussian in lv; it gives theta1(v) = s D exp(phi)
    with D of _series_sums at E = exp(2isy), s = +-1 the sign with
    |E| <= 1, and

        phi   = log(pi/l)/2 + l/4 - pi^2/(4l) - i pi/2
                + lv^2/(4l) - lv/2 - i s pi lv/(2l),
        h     = lv/(2l) - 1/2 - i s pi/(2l) + i s (pi/l) N1/D,
        dh/dlv = 1/(2l) - (pi/l)^2 (N2/D - (N1/D)^2).

    The identity holds on every branch of lv, so no band reduction is
    needed, and with |Im lv| <= pi the n-th term is at most q'^(n^2): 1 to 4
    terms for r >= 0.023.  E - 1 is taken from expm1, so all four keep their
    relative precision next to the zero lv = 0.  Raises ThetaPoleError as
    the product does within ZERO_DIST of a zero.
    """
    k = ctx.k
    ell = math.pi / k
    s = np.where(np.signbit(lv.imag), -1.0, 1.0)
    w = np.empty(lv.shape, dtype=np.complex128)
    w.real = -k * np.abs(lv.imag)
    w.imag = s * k * lv.real
    em1 = _expm1(w)
    _guard_series_zeros(ctx, em1, lambda near: np.exp(lv[near]))
    D, rho, tau = _series_sums(ctx, np.exp(w), em1, order)
    isk = 1j * s * k
    phi = (0.5 * math.log(k) + 0.25 * ell - 0.25 * math.pi * k - 0.5j * math.pi
           + lv * (lv / (4.0 * ell) - 0.5 - 0.5 * isk))
    h = lv / (2.0 * ell) - 0.5 - 0.5 * isk + isk * rho if order >= 1 else None
    return s * D, np.exp(phi), h, (0.5 / ell - k * k * tau if order >= 2 else None)


def bracketed_root_reference(fn, lo, hi):
    """solver.bracketed_root on full-length arrays: the same step rule, the
    same arithmetic and the same calls of fn, with every entry updated by
    np.where at every step and stopped ones masked out."""
    a, b = (np.array(v, dtype=float).ravel() for v in np.broadcast_arrays(lo, hi))
    k = np.arange(a.size)
    both = np.concatenate([a, b])
    f, d = fn(both, np.concatenate([k, k]))
    side = np.sign(f[: a.size])
    bracketed = side * np.sign(f[a.size :]) < 0.0
    root = np.where(f[: a.size] == 0.0, a, np.where(f[a.size :] == 0.0, b, np.nan))
    start = np.where(np.abs(f[: a.size]) <= np.abs(f[a.size :]), k, k + a.size)
    x, fx, dfx = both[start], f[start], d[start]
    step = np.abs(b - a)
    active = bracketed.copy()
    n = 0
    while active.any() and n < MAX_ITERS:
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            newton = x - fx / dfx
            inside = (np.minimum(a, b) <= newton) & (newton <= np.maximum(a, b))
            shrinks = np.abs(newton - x) <= 0.5 * step
        new = np.where(inside & shrinks, newton, a + 0.5 * (b - a))
        step = np.where(active, np.abs(new - x), step)
        x = np.where(active, new, x)
        active &= step > FLOOR_ULPS * np.spacing(np.abs(x))
        i = np.flatnonzero(active)
        if i.size == 0:
            break
        fx[i], dfx[i] = fn(x[i], i)
        n += 1
        to_a = active & (np.sign(fx) == side)
        a = np.where(to_a, x, a)
        b = np.where(active & ~to_a, x, b)
        active &= fx != 0.0
    return np.where(bracketed, x, root), n
