"""Special functions for the model catalog and the oracle.

Real Gamma on (-50, 50), Bessel J of real order in (-1, 1) at complex
argument in its power-series regime |z| <= 40, the upper-half-plane square
root and principal powers.  Branches matter more than speed here; every
branch choice is validated downstream by the Herglotz suites.

bessel_j has no caller in the package: the corner models sum their own
reduced series in z (models.Corner) and the oracle takes its Bessel zeros
from Ikebe's matrix (oracle.corner_friedrichs_eigenvalues), so the M-route
and the oracle share no Bessel code.  It stays, with its tests, only because
the benchmark tracer (weylbench/spans.py) wraps it by name.
"""

from __future__ import annotations

import cmath
import math

from .errors import PoleError, RangeError

# Lanczos approximation, g = 7, 9 coefficients; relative error below 1e-13 on
# the positive axis up to the reflection region.
_LANCZOS_G = 7.0
_LANCZOS_C = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)

GAMMA_RANGE = 50.0
BESSEL_RANGE = 40.0


def gamma(x: float) -> float:
    """Real Gamma(x) by Lanczos; reflection formula for x < 0.5."""
    x = float(x)
    if abs(x) > GAMMA_RANGE:
        raise RangeError(f"gamma implemented for |x| <= {GAMMA_RANGE}, got {x}")
    if x <= 0 and x == math.floor(x):
        raise PoleError(f"gamma pole at non-positive integer {x}", location=x)
    if x < 0.5:
        # Gamma(x) Gamma(1-x) = pi / sin(pi x)
        return math.pi / (math.sin(math.pi * x) * gamma(1.0 - x))
    z = x - 1.0
    acc = _LANCZOS_C[0]
    for i, c in enumerate(_LANCZOS_C[1:], start=1):
        acc += c / (z + i)
    t = z + _LANCZOS_G + 0.5
    return math.sqrt(2.0 * math.pi) * (t ** (z + 0.5)) * math.exp(-t) * acc


def sqrt_upper(z: complex) -> complex:
    """The square root with Im >= 0 (Im = 0 only on [0, inf))."""
    w = cmath.sqrt(complex(z))
    if w.imag < 0.0 or (w.imag == 0.0 and w.real < 0.0):
        return -w
    return w


def cpow(z: complex, beta: float) -> complex:
    """Principal power z**beta, arg z in (-pi, pi]."""
    z = complex(z)
    if z == 0:
        raise PoleError("cpow undefined at z = 0", location=0.0)
    return cmath.exp(beta * cmath.log(z))


def upper_power(z: complex, beta: float) -> complex:
    """z**beta with the cut along [0, inf): cpow(sqrt_upper(z), 2*beta).

    This is the branch under which z**beta is real on (-inf, 0) and satisfies
    conjugate symmetry; it is the one the sector/corner models need.
    """
    return cpow(sqrt_upper(z), 2.0 * beta)


def bessel_j(nu: float, z: complex) -> complex:
    """J_nu(z) for nu in (-1, 1), |z| <= 40, by the defining power series.

    The Gamma factors are generated by the term recurrence, so only
    Gamma(nu+1) is evaluated directly.  Termination is hybrid
    absolute-plus-relative to survive near-cancellation at Bessel zeros.
    """
    if not -1.0 < nu < 1.0:
        raise RangeError(f"bessel_j implemented for order in (-1, 1), got {nu}")
    z = complex(z)
    if abs(z) > BESSEL_RANGE:
        raise RangeError(
            f"bessel_j power series limited to |z| <= {BESSEL_RANGE}, got |z| = {abs(z):.3f}"
        )
    if z == 0:
        if nu == 0.0:
            return 1.0 + 0j
        if nu > 0:
            return 0j
        raise PoleError("J_nu diverges at z = 0 for negative order", location=0.0)
    q = -0.25 * z * z
    term = 1.0 + 0j
    acc = term
    k = 0
    while True:
        k += 1
        term *= q / (k * (nu + k))
        acc += term
        if abs(term) < 1e-17 * abs(acc) + 1e-300:
            break
        if k > 400:
            raise RangeError("bessel_j series failed to terminate")
    return cpow(0.5 * z, nu) / gamma(nu + 1.0) * acc
