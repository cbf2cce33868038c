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
"""

from __future__ import annotations

import math

import numpy as np

from flatfront.annulus import DegenerateConfigurationError
from flatfront.immersion import HalfSpacePoint, RotationalModuli
from flatfront.theta import _expm1, _guard_series_zeros, _modular_terms, _series_sums, pointwise


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
    k = _modular_terms(ctx.r)[0]
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
