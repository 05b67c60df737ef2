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
"""
from __future__ import annotations

import cmath
import logging
import math
from dataclasses import dataclass
from enum import Enum

from .cubic import cubic_roots, real_positive_roots
from .model import Equilibrium, EquilibriumLabel, ModelParams, coexistence

__all__ = [
    "CharCoeffs",
    "GCubic",
    "Transversality",
    "HopfCandidate",
    "char_coeffs",
    "char_value",
    "h1_holds",
    "g_cubic",
    "hopf_candidates",
    "near_double_root",
    "transversality_sign",
    "s0",
]

logger = logging.getLogger(__name__)

# determinant floor of the (sin, cos) recovery system
_MIN_DET = 1e-14
# |G'(z)| below this is treated as a degenerate (tangential) crossing
_DEGENERATE_GPRIME = 1e-9

DEFAULT_J_MAX = 3

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


def _jacobian(params: ModelParams, estar: Equilibrium
              ) -> tuple[float, float, float, float, float, float]:
    """The nonzero Jacobian entries at the coexistence point (u*, v*).

    Returns ju and jv, the slopes of the two logistic terms; mr = mu + r;
    br2 = b2*r2, the feed of w into v; and b1*r1*v*, b1*r1*u*, the
    slopes of the delayed loss term in delayed u and delayed v.
    """
    u, v = estar.point.u, estar.point.v
    br1 = params.b1 * params.r1
    return (params.r1 * (1.0 - 2.0 * params.a1 * u),
            params.r2 * (1.0 - 2.0 * params.a2 * v),
            params.mu + params.r,
            params.b2 * params.r2,
            br1 * v,
            br1 * u)


def char_coeffs(params: ModelParams, estar: Equilibrium) -> CharCoeffs:
    """The six characteristic coefficients at the coexistence equilibrium."""
    if estar.label is not EquilibriumLabel.ESTAR or not estar.exists:
        raise ValueError("char_coeffs requires the existing coexistence equilibrium")
    ju, jv, mr, br2, q2, _ = _jacobian(params, estar)
    bu = br2 * estar.point.u
    return CharCoeffs(
        p0=ju * jv * mr + bu * ju,
        p1=ju * jv - (ju + jv) * mr - bu,
        p2=mr - ju - jv,
        q0=-q2 * mr * jv,
        q1=q2 * (mr - jv),
        q2=q2,
    )


def char_value(lam: complex, s: float, coeffs: CharCoeffs) -> complex:
    """Characteristic function value at (lambda, s)."""
    c = coeffs
    p = ((lam + c.p2) * lam + c.p1) * lam + c.p0
    q = (c.q2 * lam + c.q1) * lam + c.q0
    return p + q * cmath.exp(-lam * s)


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


def transversality_sign(z: float, coeffs: CharCoeffs) -> Transversality:
    """Crossing direction of the root pair at z = omega^2.

    The real part of the crossing pair moves with the same sign as
    G'(z), so a Positive sign means eigenvalues march rightward as the
    delay grows through the ladder.
    """
    g = g_cubic(coeffs)
    if abs(((z + g.m) * z + g.n) * z + g.h) > 1e-6 * max(1.0, abs(z) ** 3):
        raise ValueError(f"z = {z!r} is not a root of G for these coefficients")
    gp = (3.0 * z + 2.0 * g.m) * z + g.n
    if abs(gp) < _DEGENERATE_GPRIME:
        return Transversality.DEGENERATE
    return Transversality.POSITIVE if gp > 0 else Transversality.NEGATIVE


def _polish_pair(omega: float, s: float, coeffs: CharCoeffs) -> tuple[float, float]:
    """One Newton step on (omega, s) for char_value(i*omega, s) = 0.

    The closed-form recovery is already accurate to rounding for well
    separated roots of G; this step repairs the cases where G is poorly
    conditioned (nearly multiple roots) without iterating.
    """
    c = coeffs
    lam = 1j * omega
    ex = cmath.exp(-lam * s)
    q = (c.q2 * lam + c.q1) * lam + c.q0
    f = (((lam + c.p2) * lam + c.p1) * lam + c.p0) + q * ex
    # derivatives of the characteristic function
    df_dlam = (3.0 * lam + 2.0 * c.p2) * lam + c.p1 + ((2.0 * c.q2 * lam + c.q1) - s * q) * ex
    df_domega = 1j * df_dlam
    df_ds = -lam * q * ex
    jac = [[df_domega.real, df_ds.real], [df_domega.imag, df_ds.imag]]
    det = jac[0][0] * jac[1][1] - jac[0][1] * jac[1][0]
    if det == 0.0 or not math.isfinite(det):
        return omega, s
    d_omega = (f.real * jac[1][1] - f.imag * jac[0][1]) / det
    d_s = (f.imag * jac[0][0] - f.real * jac[1][0]) / det
    if abs(d_omega) > 0.1 * (1.0 + abs(omega)) or abs(d_s) > 0.1 * (1.0 + abs(s)):
        return omega, s
    return omega - d_omega, s - d_s


def hopf_candidates(coeffs: CharCoeffs, j_max: int = DEFAULT_J_MAX) -> list[HopfCandidate]:
    """Imaginary-axis crossing candidates with their delay ladders.

    For each positive root z of G, omega = sqrt(z) and the pair
    (sin(omega*s), cos(omega*s)) is recovered by solving the linear 2x2
    system obtained from the real and imaginary parts of the
    characteristic equation. The two-argument angle then fixes the base
    delay in [0, 2*pi/omega), which dodges the sign loss a bare arccos
    would suffer on half the parameter space. Candidates whose recovery
    system is numerically singular are dropped with a diagnostic.
    """
    if j_max < 0:
        raise ValueError("j_max must be nonnegative")
    g = g_cubic(coeffs)
    out = []
    for z in real_positive_roots(g.m, g.n, g.h):
        omega = math.sqrt(z)
        # real part:  A*cos + B*sin = R;  imaginary part:  B*cos - A*sin = I
        a = coeffs.q0 - coeffs.q2 * z
        b = coeffs.q1 * omega
        rr = coeffs.p2 * z - coeffs.p0
        ii = omega * z - coeffs.p1 * omega
        det = a * a + b * b
        if det < _MIN_DET:
            logger.warning(
                "dropping crossing candidate at omega=%g: delayed part vanishes "
                "on the imaginary axis (recovery determinant %g)", omega, det)
            continue
        cos_v = (a * rr + b * ii) / det
        sin_v = (b * rr - a * ii) / det
        theta = math.atan2(sin_v, cos_v) % (2.0 * math.pi)
        omega, s_base = _polish_pair(omega, theta / omega, coeffs)
        if s_base < 0:
            s_base += 2.0 * math.pi / omega
        delays = tuple(s_base + 2.0 * math.pi * j / omega for j in range(j_max + 1))
        out.append(HopfCandidate(
            z=omega * omega,
            omega=omega,
            delays=delays,
            transversality_sign=transversality_sign(omega * omega, coeffs),
        ))
    out.sort(key=lambda cand: cand.delays[0])
    return out


def s0(params: ModelParams) -> tuple[float, HopfCandidate] | None:
    """First stability switch: the smallest delay over all ladders.

    Returns None when no crossing candidates exist (the equilibrium then
    keeps its zero-delay verdict for every delay). Raises when the
    coexistence equilibrium itself is missing.
    """
    estar = coexistence(params)
    if not estar.exists:
        raise ValueError("coexistence equilibrium does not exist for these parameters")
    cands = hopf_candidates(char_coeffs(params, estar))
    if not cands:
        return None
    return cands[0].delays[0], cands[0]
