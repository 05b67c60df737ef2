"""Linear stability of the coexistence equilibrium under delay.

The linearization at the coexistence point yields a transcendental
characteristic equation

    lambda^3 + p2*lambda^2 + p1*lambda + p0
        + (q2*lambda^2 + q1*lambda + q0) * exp(-lambda*s) = 0.

Purely imaginary roots lambda = i*omega exist exactly where the real
cubic G(z) = z^3 + m*z^2 + n*z + h has a root z = omega^2 > 0; each such
root carries a ladder of delays s_k^(j) at which the crossing happens,
and the sign of G'(z) gives the crossing direction of the root pair's
real part as s grows. The smallest ladder element over all roots is the
first stability switch s0.

The chain from parameters to s0 runs on arrays with one leading axis
of N points: ``char_coeffs``' arithmetic, ``g_cubic`` and the Jacobian
entries take (N,) arrays as written, ``crossing_candidates`` gives the
(N, 3) candidates of N equations (one column per root of G), column 0
being the first switch; ``normal_form.normal_forms`` runs this chain
over a parameter grid. ``hopf_candidates`` reads one equation's through
the reports' ``_candidates``, and its first is the first switch.
"""
from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import NamedTuple

import numpy as np

from .cubic import cubic_roots, cubic_roots_array, real_positive_mask
from .model import Equilibrium, EquilibriumLabel, ModelParams, State

__all__ = [
    "CharCoeffs",
    "Crossings",
    "GCubic",
    "Transversality",
    "HopfCandidate",
    "char_coeffs",
    "char_value",
    "crossing_candidates",
    "crossing_drift",
    "h1_holds",
    "g_cubic",
    "hopf_candidates",
    "near_double_root",
]

logger = logging.getLogger(__name__)

# Each floor is a fraction of the size of the terms that the tested
# quantity sums, so no verdict depends on the time unit: rescaling t
# scales every term of one test by the same power of the factor.
# determinant floor of the (sin, cos) recovery system
_MIN_DET = 1e-14
# |G'(z)| below this is treated as a degenerate (tangential) crossing
_DEGENERATE_GPRIME = 1e-9
# |G(z)| above this marks z as off G's roots
_OFF_G = 1e-6

_LADDER = 4   # delays per ladder, s_0 to s_3

# computed roots of G closer than this, relative, may be a pair that
# double precision does not resolve: rounding puts the computed roots
# of a pair with a true gap below 1e-7 up to 5e-7 apart, and up to 4e-6
# when the third root lies within 1% of them
_NEAR_DOUBLE = 1e-6


@dataclass(frozen=True)
class CharCoeffs:
    """Coefficients of the characteristic equation at the coexistence point.

    p* form the delay-free cubic, q* the delayed quadratic. Every q
    carries the factor b1*r1*v_star, so the delayed part vanishes
    identically when b1 = 0.
    """

    p0: float
    p1: float
    p2: float
    q0: float
    q1: float
    q2: float


@dataclass(frozen=True)
class GCubic:
    """Coefficients of G(z) = z^3 + m*z^2 + n*z + h.

    G(omega^2) = |P(i*omega)|^2 - |Q(i*omega)|^2 for the delay-free part
    P and delayed part Q, so its positive roots are the squared
    frequencies at which the two parts can balance on the imaginary axis.
    """

    m: float
    n: float
    h: float


class Transversality(str, Enum):
    POSITIVE = "Positive"
    NEGATIVE = "Negative"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class HopfCandidate:
    """One positive root of G with its frequency and delay ladder.

    delays[j] = delays[0] + j * 2*pi/omega; at every ladder element the
    characteristic equation has the root pair +-i*omega.
    """

    z: float
    omega: float
    delays: tuple[float, ...]
    transversality_sign: Transversality


def _jacobian(params, point: State) -> tuple:
    """The nonzero Jacobian entries at the coexistence point (u*, v*).

    Returns ju and jv, the slopes of the two logistic terms; mr = mu + r;
    br2 = b2*r2, the feed of w into v; and b1*r1*v*, b1*r1*u*, the
    slopes of the delayed loss term in delayed u and delayed v.
    Elementwise: params and point may hold floats or (N,) arrays.
    """
    u, v = point.u, point.v
    br1 = params.b1 * params.r1
    return (params.r1 * (1.0 - 2.0 * params.a1 * u),
            params.r2 * (1.0 - 2.0 * params.a2 * v),
            params.mu + params.r,
            params.b2 * params.r2,
            br1 * v,
            br1 * u)


def _coeffs_at(params, point: State) -> CharCoeffs:
    ju, jv, mr, br2, q2, _ = _jacobian(params, point)
    bu = br2 * point.u
    return CharCoeffs(
        p0=ju * jv * mr + bu * ju,
        p1=ju * jv - (ju + jv) * mr - bu,
        p2=mr - ju - jv,
        q0=-q2 * mr * jv,
        q1=q2 * (mr - jv),
        q2=q2,
    )


def char_coeffs(params: ModelParams, estar: Equilibrium) -> CharCoeffs:
    """The six characteristic coefficients at the coexistence equilibrium."""
    if estar.label is not EquilibriumLabel.ESTAR or not estar.exists:
        raise ValueError("char_coeffs requires the existing coexistence equilibrium")
    return _coeffs_at(params, estar.point)


def char_value(lam: complex, s: float, coeffs: CharCoeffs) -> complex:
    """Characteristic function value at (lambda, s)."""
    c = coeffs
    p = ((lam + c.p2) * lam + c.p1) * lam + c.p0
    q = (c.q2 * lam + c.q1) * lam + c.q0
    return p + q * cmath.exp(-lam * s)


def _char_derivatives(omega, s, c: CharCoeffs):
    """Characteristic function F and its partials F_lambda, F_s at
    (lambda = i*omega, s), elementwise."""
    lam = 1j * omega
    ex = np.exp(-lam * s)
    q = (c.q2 * lam + c.q1) * lam + c.q0
    f = (((lam + c.p2) * lam + c.p1) * lam + c.p0) + q * ex
    df_dlam = (3.0 * lam + 2.0 * c.p2) * lam + c.p1 + ((2.0 * c.q2 * lam + c.q1) - s * q) * ex
    return f, df_dlam, -lam * q * ex


def crossing_drift(omega, s, coeffs: CharCoeffs):
    """dlambda/ds = -F_s/F_lambda of the root lambda = i*omega at delay s.

    The implicit-function derivative of the crossing root; elementwise.
    Its real part moves with the transversality sign.
    """
    _, df_dlam, df_ds = _char_derivatives(omega, s, coeffs)
    return -df_ds / df_dlam


def h1_holds(coeffs: CharCoeffs) -> bool:
    """Routh-Hurwitz stability of the zero-delay cubic.

    At s = 0 the characteristic equation collapses to
    lambda^3 + (p2+q2)lambda^2 + (p1+q1)lambda + (p0+q0); all roots lie
    in the open left half-plane iff the constant term is positive and
    the product of the middle coefficients exceeds it.
    """
    c0 = coeffs.p0 + coeffs.q0
    return c0 > 0 and (coeffs.p2 + coeffs.q2) * (coeffs.p1 + coeffs.q1) > c0


def g_cubic(coeffs: CharCoeffs) -> GCubic:
    c = coeffs
    return GCubic(
        m=c.p2 * c.p2 - c.q2 * c.q2 - 2.0 * c.p1,
        n=c.p1 * c.p1 + 2.0 * c.q0 * c.q2 - c.q1 * c.q1 - 2.0 * c.p0 * c.p2,
        h=c.p0 * c.p0 - c.q0 * c.q0,
    )


def near_double_root(g: GCubic) -> float | None:
    """Real part where two roots of G with positive real part nearly agree.

    Two roots closer than about 1e-7 relative are at the limit of double
    precision: rounding decides whether they come out as two real roots
    (two crossings) or as a complex pair (none). Returns the mean real
    part of the first pair of computed roots within 1e-6 relative of
    each other, or None.
    """
    roots = [z for z in cubic_roots(g.m, g.n, g.h) if z.real > 0.0]
    for a, b in zip(roots, roots[1:]):
        if abs(a - b) <= _NEAR_DOUBLE * max(abs(a), abs(b)):
            return 0.5 * (a.real + b.real)
    return None


def _g_slope(z, g: GCubic):
    """Whether z fails G's root residual, and G'(z), exactly 0 where it
    is degenerate; elementwise. Both tests are relative to the size of
    the terms summed, |z|^3 + |m|z^2 + |n||z| + |h| and 3z^2 + 2|m||z| + |n|."""
    az, m, n = abs(z), abs(g.m), abs(g.n)
    off = abs(((z + g.m) * z + g.n) * z + g.h) > _OFF_G * (((az + m) * az + n) * az + abs(g.h))
    slope = (3.0 * z + 2.0 * g.m) * z + g.n
    return off, np.where(abs(slope) < _DEGENERATE_GPRIME * ((3.0 * az + 2.0 * m) * az + n),
                         0.0, slope)


def _direction(slope: float) -> Transversality:
    """Crossing direction of the root pair at z = omega^2 from G'(z): the
    pair's real part moves with its sign as the delay grows."""
    if slope == 0.0:
        return Transversality.DEGENERATE
    return Transversality.POSITIVE if slope > 0 else Transversality.NEGATIVE


def _not_a_root(z: float) -> ValueError:
    return ValueError(f"z = {float(z)!r} is not a root of G for these coefficients")


def _polish_pair(omega, s, coeffs: CharCoeffs):
    """One Newton step on (omega, s) for char_value(i*omega, s) = 0.

    The closed-form recovery is already accurate to rounding for well
    separated roots of G; this step repairs the cases where G is poorly
    conditioned (nearly multiple roots) without iterating. Elementwise;
    an entry keeps its (omega, s) where the step is singular or larger
    than a tenth of 1 + |omega| or 1 + |s|.
    """
    f, df_dlam, df_ds = _char_derivatives(omega, s, coeffs)
    df_domega = 1j * df_dlam
    det = df_domega.real * df_ds.imag - df_ds.real * df_domega.imag
    step = (det != 0.0) & np.isfinite(det)
    det = np.where(step, det, 1.0)
    d_omega = (f.real * df_ds.imag - f.imag * df_ds.real) / det
    d_s = (f.imag * df_domega.real - f.real * df_domega.imag) / det
    step &= ~((abs(d_omega) > 0.1 * (1.0 + abs(omega))) | (abs(d_s) > 0.1 * (1.0 + abs(s))))
    return np.where(step, omega - d_omega, omega), np.where(step, s - d_s, s)


class Crossings(NamedTuple):
    """Crossing candidates of N characteristic equations, each (N, 3).

    One column per root of G: first the candidates, by ascending base
    delay (ties in root order), so column 0 is the first switch, then
    the entries that hold none. kept marks the candidates, the positive
    real roots whose (sin, cos) recovery is regular. g_slope is G' at
    omega^2, exactly 0 where the crossing is degenerate. off_g marks a
    kept omega^2 that fails G's root residual, where ``_candidates``
    raises.
    """

    omega: np.ndarray
    s_base: np.ndarray
    g_slope: np.ndarray
    off_g: np.ndarray
    kept: np.ndarray


def _columns(obj):
    """A CharCoeffs or GCubic of floats or (N,) arrays as (N, 1) columns."""
    return type(obj)(*(np.atleast_1d(getattr(obj, f.name))[:, None] for f in fields(obj)))


def crossing_candidates(coeffs: CharCoeffs) -> Crossings:
    """Imaginary-axis crossing candidates of N equations at once.

    coeffs holds (N,) arrays, or floats for one equation. For each
    positive root z of G, omega = sqrt(z) and the pair (sin(omega*s),
    cos(omega*s)) is recovered by solving the linear 2x2 system obtained from the real
    and imaginary parts of the characteristic equation. The
    two-argument angle then fixes the base delay in [0, 2*pi/omega),
    which dodges the sign loss a bare arccos would suffer on half the
    parameter space. A candidate whose recovery system is numerically
    singular is dropped with one logged warning.
    """
    g = g_cubic(coeffs)
    roots = cubic_roots_array(g.m, g.n, g.h)
    positive = real_positive_mask(roots)
    c = _columns(coeffs)
    # placeholder z = 1 keeps the arithmetic of non-candidates finite
    z = np.where(positive, roots.real, 1.0)
    omega = np.sqrt(z)
    # real part:  A*cos + B*sin = R;  imaginary part:  B*cos - A*sin = I
    a = c.q0 - c.q2 * z
    b = c.q1 * omega
    rr = c.p2 * z - c.p0
    ii = omega * z - c.p1 * omega
    det = a * a + b * b
    dropped = positive & (det <= _MIN_DET * (abs(c.q0) + abs(c.q2) * z + abs(b)) ** 2)
    for i, k in zip(*np.nonzero(dropped)):
        logger.warning(
            "dropping crossing candidate at omega=%g: delayed part vanishes "
            "on the imaginary axis (recovery determinant %g)",
            float(omega[i, k]), float(det[i, k]))
    kept = positive & ~dropped
    det = np.where(kept, det, 1.0)
    cos_v = (a * rr + b * ii) / det
    sin_v = (b * rr - a * ii) / det
    theta = np.arctan2(sin_v, cos_v) % (2.0 * math.pi)
    omega, s_base = _polish_pair(omega, theta / omega, c)
    s_base = np.where(s_base < 0, s_base + 2.0 * math.pi / omega, s_base)
    off_g, slope = _g_slope(omega * omega, _columns(g))
    # the one statement of the first-switch rule; stable, so ties keep root order
    order = np.argsort(np.where(kept, s_base, np.inf), axis=1, kind="stable")
    return Crossings(*(np.take_along_axis(a, order, axis=1)
                       for a in (omega, s_base, slope, off_g & kept, kept)))


def _candidates(x: Crossings, i: int) -> list[HopfCandidate]:
    """Point i's candidates with their first four delays, in the order of
    ascending base delay. Raises when a candidate's omega^2 fails G's
    root residual."""
    out = []
    for k in np.flatnonzero(x.kept[i]):
        omega, s_base = float(x.omega[i, k]), float(x.s_base[i, k])
        if x.off_g[i, k]:
            raise _not_a_root(omega * omega)
        delays = tuple(s_base + 2.0 * math.pi * j / omega for j in range(_LADDER))
        out.append(HopfCandidate(z=omega * omega, omega=omega, delays=delays,
                                 transversality_sign=_direction(x.g_slope[i, k])))
    return out


def hopf_candidates(coeffs: CharCoeffs) -> list[HopfCandidate]:
    """Imaginary-axis crossing candidates with their first four delays:
    ``_candidates`` of one equation."""
    return _candidates(crossing_candidates(coeffs), 0)
