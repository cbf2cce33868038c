"""Second routes to the flat front, for the cross-route tests.

``immerse_from_gauss_data`` evaluates the front from raw data (g, g*, |xi|)
and shares no annulus code with ``immerse``, which makes the two mutually
checkable.  On the rotational family, ``rotational_gauss_data`` gives that
route data on a disc whose dilation is the closed form ``immerse_rotational``.
"""

from __future__ import annotations

import numpy as np

from flatfront.annulus import DegenerateConfigurationError
from flatfront.immersion import HalfSpacePoint, RotationalModuli
from flatfront.theta import pointwise


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
