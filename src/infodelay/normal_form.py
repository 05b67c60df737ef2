"""Bifurcation direction at the first stability switch.

A two-timing (multiple scales) expansion around the crossing delay
reduces the dynamics near the switch to a scalar amplitude equation

    H' = delta * Gamma1 * H - Gamma2 * H^2 * conj(H),    delta = s - s*.

The signs chi1 = Re Gamma1 and chi2 = Re Gamma2 decide everything
observable: chi1*chi2 > 0 gives a supercritical branch (a stable cycle
of radius sqrt(delta*chi1/chi2) on the unstable side), chi1*chi2 < 0 a
subcritical one. The cycle radius maps back to state space through the
right eigenvector, so each component oscillates with peak-to-peak
amplitude close to 4*rho*|c_i| (reported here as half peak-to-peak,
2*rho*|c_i|).

All vectors are computed by solving the defining linear systems
directly; closed-form component ratios only appear in tests as cross
checks.
"""
from __future__ import annotations

import cmath
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import Equilibrium, EquilibriumLabel, ModelParams, coexistence
from .stability import _jacobian, char_coeffs, hopf_candidates

__all__ = [
    "Direction",
    "Linearization",
    "NormalForm",
    "ResonanceError",
    "linearize",
    "right_eigvec",
    "left_eigvec",
    "eigen_residuals",
    "second_order",
    "gammas",
    "classify",
    "predicted_amplitude",
    "predicted_component_amplitudes",
    "compute_normal_form",
]

# eigenvalue-distance floor below which the second-order solves are
# rejected as resonant instead of returning garbage
_RESONANCE_TOL = 1e-8
_DEGENERATE_PRODUCT = 1e-12


class Direction(str, Enum):
    SUPERCRITICAL = "Supercritical"
    SUBCRITICAL = "Subcritical"
    DEGENERATE = "Degenerate"


class ResonanceError(ArithmeticError):
    """An internal resonance makes the second-order solve singular."""


@dataclass(eq=False)
class Linearization:
    """First- and second-order Taylor data of the flow at an equilibrium.

    A acts on the current state, As on the state one delay in the past.
    F_quadratic holds the four nonzero quadratic coefficients of the
    right-hand side: keys "u2" (u^2, instantaneous), "uv_delayed"
    (product of delayed u and v), "v2" (v^2), "uv" (instantaneous u*v
    feeding the memory variable).
    """

    A: np.ndarray
    As: np.ndarray
    F_quadratic: dict[str, float]


@dataclass(eq=False)
class NormalForm:
    omega_star: float
    s_star: float
    c_vec: np.ndarray
    d_vec: np.ndarray
    e_vec: np.ndarray | None = None
    f_vec: np.ndarray | None = None
    Gamma1: complex | None = None
    Gamma2: complex | None = None
    chi1: float | None = None
    chi2: float | None = None
    direction: Direction | None = None


def linearize(params: ModelParams, estar: Equilibrium) -> Linearization:
    if estar.label is not EquilibriumLabel.ESTAR or not estar.exists:
        raise ValueError("linearize requires the existing coexistence equilibrium")
    u, v = estar.point.u, estar.point.v
    ju, jv, mr, br2, bv, bu = _jacobian(params, estar)
    a = np.array([
        [ju, 0.0, 0.0],
        [0.0, jv, br2],
        [v, u, -mr],
    ])
    a_s = np.array([
        [-bv, -bu, 0.0],
        [0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0],
    ])
    fq = {
        "u2": -params.a1 * params.r1,
        "uv_delayed": -params.b1 * params.r1,
        "v2": -params.a2 * params.r2,
        "uv": 1.0,
    }
    return Linearization(A=a, As=a_s, F_quadratic=fq)


def _cross_matrix(lin: Linearization, omega: float, s: float) -> np.ndarray:
    """A + As*exp(-i*omega*s) - i*omega*I, singular exactly at a crossing."""
    e = cmath.exp(-1j * omega * s)
    return lin.A + lin.As * e - 1j * omega * np.eye(3)


def right_eigvec(lin: Linearization, omega: float, s: float) -> np.ndarray:
    """Right null vector of the crossing matrix, middle component 1.

    The middle component never vanishes at a genuine crossing of this
    model (it is coupled to both others), so pinning it fixes the free
    phase deterministically.
    """
    n = _cross_matrix(lin, omega, s)
    _, sig, vh = np.linalg.svd(n)
    if sig[-1] > 1e-6 * sig[0]:
        raise ValueError(
            f"(omega={omega!r}, s={s!r}) is not a crossing: smallest singular "
            f"value {sig[-1]:.3e} vs largest {sig[0]:.3e}")
    c = vh[-1].conj()
    if abs(c[1]) < 1e-12 * np.linalg.norm(c):
        raise ValueError("eigenvector middle component vanishes; cannot normalize")
    c = c / c[1]
    resid = np.linalg.norm(n @ c, np.inf) / np.linalg.norm(c, np.inf)
    if resid > 1e-8:
        raise ValueError(f"right eigenvector residual {resid:.3e} too large")
    return c


def left_eigvec(lin: Linearization, omega: float, s: float, c: np.ndarray) -> np.ndarray:
    """Left null vector d with the bilinear normalization d*(I + s*As*E)*c = 1.

    The normalizing factor is the lambda-derivative of the characteristic
    matrix sandwiched between the eigenvectors; it vanishes only at a
    double root, which is rejected as degenerate.
    """
    n = _cross_matrix(lin, omega, s)
    u, sig, _ = np.linalg.svd(n)
    if sig[-1] > 1e-6 * sig[0]:
        raise ValueError(
            f"(omega={omega!r}, s={s!r}) is not a crossing: smallest singular "
            f"value {sig[-1]:.3e} vs largest {sig[0]:.3e}")
    d = u[:, -1].conj()
    e = cmath.exp(-1j * omega * s)
    den = d @ (np.eye(3) + s * lin.As * e) @ c
    if abs(den) < _DEGENERATE_PRODUCT * max(1.0, float(np.linalg.norm(c))):
        raise ValueError("degenerate crossing: normalization product vanishes "
                         "(double characteristic root)")
    return d / den


def eigen_residuals(lin: Linearization, omega: float, s: float,
                    c: np.ndarray, d: np.ndarray) -> tuple[float, float]:
    """Scaled residuals of the right and left eigenvector equations."""
    n = _cross_matrix(lin, omega, s)
    rc = np.linalg.norm(n @ c, np.inf) / np.linalg.norm(c, np.inf)
    rd = np.linalg.norm(d @ n, np.inf) / np.linalg.norm(d, np.inf)
    return float(rc), float(rd)


def _quad_products(fq: dict[str, float], c: np.ndarray, e2: complex
                   ) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic forcing at twice the crossing frequency and at zero.

    The first-order wave c*exp(i*omega*t) squares into a double-frequency
    part (coefficient of H^2) and a constant part (coefficient of
    H*conj(H), hence the factor 2 from the two cross terms). Delayed
    factors pick up exp(-i*omega*s) per delayed slot: e2 at double
    frequency, unit modulus squared (nothing) at zero.
    """
    c1, c2 = c[0], c[1]
    p2 = np.array([
        fq["u2"] * c1 * c1 + fq["uv_delayed"] * c1 * c2 * e2,
        fq["v2"] * c2 * c2,
        fq["uv"] * c1 * c2,
    ])
    cross = 2.0 * (c1 * np.conj(c2)).real
    p0 = np.array([
        2.0 * fq["u2"] * abs(c1) ** 2 + fq["uv_delayed"] * cross,
        2.0 * fq["v2"] * abs(c2) ** 2,
        fq["uv"] * cross,
    ])
    return p2, p0


def second_order(lin: Linearization, omega: float, s: float, c: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Second-order response vectors: e at frequency 2*omega, f at zero.

    Both solves are guarded: if 2i*omega*s sits within _RESONANCE_TOL of
    the spectrum of s*(A + As*E^2) the double frequency is itself a
    characteristic root (2:1 resonance), and if s*(A + As) has an
    eigenvalue that close to zero the constant shift is indeterminate.
    Either case invalidates the expansion, so it aborts instead of
    returning an ill-conditioned solve.
    """
    e2 = cmath.exp(-2j * omega * s)
    p2, p0 = _quad_products(lin.F_quadratic, c, e2)

    m2 = s * (lin.A + lin.As * e2)
    gap2 = np.min(np.abs(np.linalg.eigvals(m2) - 2j * omega * s))
    if gap2 < _RESONANCE_TOL:
        raise ResonanceError(
            f"2:1 resonance: double frequency within {gap2:.3e} of the spectrum")
    e_vec = np.linalg.solve(2j * omega * s * np.eye(3) - m2, s * p2)

    m0 = s * (lin.A + lin.As)
    gap0 = np.min(np.abs(np.linalg.eigvals(m0)))
    if gap0 < _RESONANCE_TOL:
        raise ResonanceError(
            f"zero eigenvalue: constant-shift matrix within {gap0:.3e} of singular")
    f_vec = np.linalg.solve(-m0, s * p0.real)
    return e_vec, f_vec


def gammas(lin: Linearization, omega: float, s: float, c: np.ndarray,
           d: np.ndarray, e_vec: np.ndarray, f_vec: np.ndarray
           ) -> tuple[complex, complex]:
    """Coefficients of the amplitude equation H' = delta*Gamma1*H - Gamma2*H^2*conj(H).

    Gamma1 = d*(A + As*E)*c equals i*omega + s*dlambda/ds, the per-unit-
    delay drift of the crossing root. Gamma2 collects the cubic-order
    secular forcing: the first-order wave beating against its own
    second-order response. The resonant part of each quadratic term is
    assembled from the component products, delayed slots weighted by E
    (the net delay factor of a wave at frequency +omega).
    """
    ex = cmath.exp(-1j * omega * s)
    gamma1 = d @ (lin.A + lin.As * ex) @ c

    fq = lin.F_quadratic
    c1, c2 = c[0], c[1]
    e1, e2c, _ = e_vec
    f1, f2, _ = f_vec
    mix_uv = c1 * f2 + np.conj(c1) * e2c + c2 * f1 + np.conj(c2) * e1
    m_vec = np.array([
        2.0 * fq["u2"] * (c1 * f1 + np.conj(c1) * e1) + fq["uv_delayed"] * ex * mix_uv,
        2.0 * fq["v2"] * (c2 * f2 + np.conj(c2) * e2c),
        fq["uv"] * mix_uv,
    ])
    gamma2 = -s * (d @ m_vec)
    return complex(gamma1), complex(gamma2)


def classify(chi1: float, chi2: float) -> Direction:
    prod = chi1 * chi2
    if abs(prod) <= 1e-12:
        return Direction.DEGENERATE
    return Direction.SUPERCRITICAL if prod > 0 else Direction.SUBCRITICAL


def predicted_amplitude(nf: NormalForm, delta: float) -> float:
    """Radius of the bifurcating cycle at delay s* + delta (0 if none).

    The amplitude equation has stationary radius rho with
    rho^2 = delta*chi1/chi2; a negative right side means no cycle on
    that side of the switch.
    """
    if nf.direction is None or nf.direction is Direction.DEGENERATE:
        raise ValueError("bifurcation direction is degenerate or not computed")
    rho2 = delta * nf.chi1 / nf.chi2
    return float(np.sqrt(rho2)) if rho2 > 0 else 0.0


def predicted_component_amplitudes(nf: NormalForm, delta: float) -> np.ndarray:
    """Half peak-to-peak amplitude of each state component at s* + delta."""
    rho = predicted_amplitude(nf, delta)
    return 2.0 * rho * np.abs(nf.c_vec)


def compute_normal_form(params: ModelParams) -> NormalForm:
    """Full pipeline from parameters to classified amplitude equation.

    Uses the smallest crossing delay over all candidate ladders. Raises
    when the coexistence equilibrium is missing or no crossing exists.
    """
    estar = coexistence(params)
    if not estar.exists:
        raise ValueError("coexistence equilibrium does not exist for these parameters")
    coeffs = char_coeffs(params, estar)
    cands = hopf_candidates(coeffs)
    if not cands:
        raise ValueError("no imaginary-axis crossings: stability never switches")
    omega, s_star = cands[0].omega, cands[0].delays[0]

    lin = linearize(params, estar)
    c = right_eigvec(lin, omega, s_star)
    d = left_eigvec(lin, omega, s_star, c)
    e_vec, f_vec = second_order(lin, omega, s_star, c)
    gamma1, gamma2 = gammas(lin, omega, s_star, c, d, e_vec, f_vec)
    chi1, chi2 = gamma1.real, gamma2.real
    return NormalForm(
        omega_star=omega,
        s_star=s_star,
        c_vec=c,
        d_vec=d,
        e_vec=e_vec,
        f_vec=f_vec,
        Gamma1=gamma1,
        Gamma2=gamma2,
        chi1=chi1,
        chi2=chi2,
        direction=classify(chi1, chi2),
    )
