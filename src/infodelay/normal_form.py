"""Bifurcation direction at the first stability switch.

A two-timing (multiple scales) expansion around the crossing delay
reduces the dynamics near the switch to a scalar amplitude equation

    H' = delta * Gamma1 * H - Gamma2 * H^2 * conj(H),    delta = s - s*.

The equation runs in delay-scaled time tau = t/s, in which the delay is
one unit and the crossing root is s*lambda(s). That is why Gamma1 is
the drift d(s*lambda)/ds = i*omega + s*dlambda/ds of the crossing root,
not dlambda/ds itself; the first-order wave is c*H*exp(i*omega*s*tau).

The signs chi1 = Re Gamma1 and chi2 = Re Gamma2 decide everything
observable: chi1*chi2 > 0 gives a supercritical branch (a stable cycle
of radius sqrt(delta*chi1/chi2) on the unstable side), chi1*chi2 < 0 a
subcritical one. The cycle radius maps back to state space through the
right eigenvector, so each component oscillates with peak-to-peak
amplitude close to 4*rho*|c_i| (reported here as half peak-to-peak,
2*rho*|c_i|). On the cycle the phase of H turns at the rate
delta*(Im Gamma1 - Im Gamma2*chi1/chi2) in tau, on top of the onset
rate omega*s*, so the period in t is

    T(delta) = 2*pi*s / (omega*s* + delta*(Im Gamma1 - Im Gamma2*chi1/chi2)),

which tends to 2*pi/omega only as delta -> 0.

All vectors are computed by solving the defining linear systems
directly; closed-form component ratios only appear in tests as cross
checks.

The chain runs on stacks of N crossings: Linearization matrices of
shape (N, 3, 3), frequencies and delays of shape (N,), vectors of
shape (N, 3). One SVD of each crossing matrix gives both null vectors,
and the second-order eigenvalue checks and solves are stacked LAPACK
calls. ``normal_forms`` evaluates a whole parameter grid at the
switches ``stability.first_switches`` finds, starting from the reasons
it records for points without one. Failures are per point: a failing
point is left out of the results and its exception recorded, not
raised. ``right_eigvec``, ``left_eigvec``, ``second_order`` and
``compute_normal_form`` are the one-point case and raise that
exception.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

import numpy as np

from .model import Equilibrium, EquilibriumLabel, ModelParams, ParamGrid, State
from .stability import _jacobian, first_switches

__all__ = [
    "Direction",
    "Linearization",
    "NormalForm",
    "NormalForms",
    "ResonanceError",
    "linearize",
    "right_eigvec",
    "left_eigvec",
    "eigen_residuals",
    "second_order",
    "classify",
    "predicted_amplitude",
    "predicted_component_amplitudes",
    "predicted_period",
    "compute_normal_form",
    "normal_forms",
]

# eigenvalue-distance floor below which the second-order solves are
# rejected as resonant instead of returning garbage
_RESONANCE_TOL = 1e-8
_DEGENERATE_PRODUCT = 1e-12
_EYE = np.eye(3)


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
    F_quadratic holds the parameter-dependent quadratic coefficients:
    keys "u2" (u^2, instantaneous), "uv_delayed" (product of delayed u
    and v), "v2" (v^2); the u*v feeding w has unit coefficient. For a
    stack of N equilibria A and As have shape (N, 3, 3) and the
    coefficients shape (N,).
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
    e_vec: np.ndarray
    f_vec: np.ndarray
    Gamma1: complex
    Gamma2: complex
    chi1: float
    chi2: float
    direction: Direction


def _linearize(params, point: State) -> Linearization:
    """Linearization at the coexistence point; floats give (3, 3)
    matrices, (N,) arrays a stack of N."""
    ju, jv, mr, br2, bv, bu = _jacobian(params, point)
    shape = np.broadcast(ju, jv, mr, br2, bv, bu).shape
    a = np.zeros(shape + (3, 3))
    a[..., 0, 0] = ju
    a[..., 1, 1] = jv
    a[..., 1, 2] = br2
    a[..., 2, 0] = point.v
    a[..., 2, 1] = point.u
    a[..., 2, 2] = -mr
    a_s = np.zeros(shape + (3, 3))
    a_s[..., 0, 0] = -bv
    a_s[..., 0, 1] = -bu
    fq = {
        "u2": -params.a1 * params.r1,
        "uv_delayed": -params.b1 * params.r1,
        "v2": -params.a2 * params.r2,
    }
    return Linearization(A=a, As=a_s, F_quadratic=fq)


def linearize(params: ModelParams, estar: Equilibrium) -> Linearization:
    if estar.label is not EquilibriumLabel.ESTAR or not estar.exists:
        raise ValueError("linearize requires the existing coexistence equilibrium")
    return _linearize(params, estar.point)


def _stack(lin: Linearization) -> Linearization:
    """One linearization as a stack of one."""
    return Linearization(A=np.asarray(lin.A)[None], As=np.asarray(lin.As)[None],
                         F_quadratic=lin.F_quadratic)


def _one(x) -> np.ndarray:
    """A number or a vector as a stack of one."""
    return np.asarray(x)[None]


def _raise_first(errors: dict[int, Exception]) -> None:
    if errors:
        raise errors[0]


def _cross_matrix(lin: Linearization, omega: np.ndarray, s: np.ndarray):
    """A + As*E - i*omega*I with E = exp(-i*omega*s), singular exactly at
    a crossing: the (N, 3, 3) stack and E."""
    e = np.exp(-1j * omega * s)
    return lin.A + lin.As * e[:, None, None] - 1j * omega[:, None, None] * _EYE, e


def _matvec(m: np.ndarray, x: np.ndarray) -> np.ndarray:
    return (m * x[:, None, :]).sum(axis=2)


def _inf_norm(x: np.ndarray) -> np.ndarray:
    return np.abs(x).max(axis=1)


def _null_vectors(lin: Linearization, omega: np.ndarray, s: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, dict[int, Exception], dict[int, Exception]]:
    """Right and left null vectors of N crossing matrices, one SVD each.

    c is pinned to middle component 1, which fixes the free phase: the
    middle component never vanishes at a genuine crossing of this model
    (it is coupled to both others). d has the bilinear normalization
    d*(I + s*As*E)*c = 1; the factor is the lambda-derivative of the
    characteristic matrix sandwiched between the null vectors and
    vanishes only at a double root. Returns c, d, then the failures of
    the crossing test, the middle component and the residual (right),
    and those of the crossing test and the normalization (left).
    """
    n, e = _cross_matrix(lin, omega, s)
    u, sig, vh = np.linalg.svd(n)
    c = vh[:, -1, :].conj()
    mid = c[:, 1]
    flat = np.abs(mid) < 1e-12 * np.linalg.norm(c, axis=1)
    c = c / np.where(flat, 1.0, mid)[:, None]
    resid = _inf_norm(_matvec(n, c)) / _inf_norm(c)
    d = u[:, :, -1].conj()
    den = (d * _matvec(_EYE + s[:, None, None] * lin.As * e[:, None, None], c)).sum(axis=1)
    degenerate = np.abs(den) < _DEGENERATE_PRODUCT * np.maximum(
        1.0, np.linalg.norm(c, axis=1))
    d = d / np.where(degenerate, 1.0, den)[:, None]

    right: dict[int, Exception] = {}
    left: dict[int, Exception] = {}
    for i in np.flatnonzero(sig[:, -1] > 1e-6 * sig[:, 0]).tolist():
        right[i] = left[i] = ValueError(
            f"(omega={float(omega[i])!r}, s={float(s[i])!r}) is not a crossing: smallest "
            f"singular value {sig[i, -1]:.3e} vs largest {sig[i, 0]:.3e}")
    for i in np.flatnonzero(flat).tolist():
        right.setdefault(i, ValueError(
            "eigenvector middle component vanishes; cannot normalize"))
    for i in np.flatnonzero(resid > 1e-8).tolist():
        right.setdefault(i, ValueError(f"right eigenvector residual {resid[i]:.3e} too large"))
    for i in np.flatnonzero(degenerate).tolist():
        left.setdefault(i, ValueError("degenerate crossing: normalization product vanishes "
                                      "(double characteristic root)"))
    return c, d, right, left


def right_eigvec(lin: Linearization, omega: float, s: float) -> np.ndarray:
    """Right null vector of the crossing matrix, middle component 1.

    The one-point case of ``_null_vectors``.
    """
    c, _, errors, _ = _null_vectors(_stack(lin), _one(omega), _one(s))
    _raise_first(errors)
    return c[0]


def left_eigvec(lin: Linearization, omega: float, s: float) -> np.ndarray:
    """Left null vector d with d*(I + s*As*E)*c = 1 for ``right_eigvec``'s c.

    The one-point case of ``_null_vectors``; a double root is rejected
    as degenerate.
    """
    _, d, _, errors = _null_vectors(_stack(lin), _one(omega), _one(s))
    _raise_first(errors)
    return d[0]


def eigen_residuals(lin: Linearization, omega: float, s: float,
                    c: np.ndarray, d: np.ndarray) -> tuple[float, float]:
    """Scaled residuals of the right and left eigenvector equations."""
    n = _cross_matrix(_stack(lin), _one(omega), _one(s))[0][0]
    rc = np.linalg.norm(n @ c, np.inf) / np.linalg.norm(c, np.inf)
    rd = np.linalg.norm(d @ n, np.inf) / np.linalg.norm(d, np.inf)
    return float(rc), float(rd)


def _quad_products(fq: dict, c: np.ndarray, e2: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Quadratic forcing at twice the crossing frequency and at zero, (N, 3).

    The first-order wave c*exp(i*omega*t) squares into a double-frequency
    part (coefficient of H^2) and a constant part (coefficient of
    H*conj(H), hence the factor 2 from the two cross terms). Delayed
    factors pick up exp(-i*omega*s) per delayed slot: e2 at double
    frequency, unit modulus squared (nothing) at zero.
    """
    c1, c2 = c[:, 0], c[:, 1]
    p2 = np.stack(np.broadcast_arrays(
        fq["u2"] * c1 * c1 + fq["uv_delayed"] * c1 * c2 * e2,
        fq["v2"] * c2 * c2,
        c1 * c2), axis=1)
    cross = 2.0 * (c1 * np.conj(c2)).real
    p0 = np.stack(np.broadcast_arrays(
        2.0 * fq["u2"] * np.abs(c1) ** 2 + fq["uv_delayed"] * cross,
        2.0 * fq["v2"] * np.abs(c2) ** 2,
        cross), axis=1)
    return p2, p0


def _solve(m: np.ndarray, rhs: np.ndarray, skip: np.ndarray) -> np.ndarray:
    """Stacked solve of m x = rhs; rows marked skip solve I x = rhs
    instead, so one singular matrix cannot fail the whole stack."""
    m = np.where(skip[:, None, None], _EYE, m)
    return np.linalg.solve(m, rhs[..., None])[..., 0]


def _second_order(lin: Linearization, omega: np.ndarray, s: np.ndarray, c: np.ndarray
                  ) -> tuple[np.ndarray, np.ndarray, dict[int, Exception]]:
    """Second-order response vectors of N crossings, and their failures.

    If 2i*omega*s sits within _RESONANCE_TOL of the spectrum of
    s*(A + As*E^2) the double frequency is itself a characteristic root
    (2:1 resonance), and if s*(A + As) has an eigenvalue that close to
    zero the constant shift is indeterminate. Either case invalidates
    the expansion at that point, which gets a ResonanceError instead of
    an ill-conditioned solve.
    """
    e2 = np.exp(-2j * omega * s)
    p2, p0 = _quad_products(lin.F_quadratic, c, e2)
    shift = 2j * omega * s

    m2 = s[:, None, None] * (lin.A + lin.As * e2[:, None, None])
    gap2 = np.abs(np.linalg.eigvals(m2) - shift[:, None]).min(axis=1)
    res2 = gap2 < _RESONANCE_TOL
    e_vec = _solve(shift[:, None, None] * _EYE - m2, s[:, None] * p2, res2)

    m0 = s[:, None, None] * (lin.A + lin.As)
    gap0 = np.abs(np.linalg.eigvals(m0)).min(axis=1)
    res0 = gap0 < _RESONANCE_TOL
    f_vec = _solve(-m0, s[:, None] * p0.real, res0)

    errors: dict[int, Exception] = {}
    for i in np.flatnonzero(res2).tolist():
        errors[i] = ResonanceError(
            f"2:1 resonance: double frequency within {gap2[i]:.3e} of the spectrum")
    for i in np.flatnonzero(res0).tolist():
        errors.setdefault(i, ResonanceError(
            f"zero eigenvalue: constant-shift matrix within {gap0[i]:.3e} of singular"))
    return e_vec, f_vec, errors


def second_order(lin: Linearization, omega: float, s: float, c: np.ndarray
                 ) -> tuple[np.ndarray, np.ndarray]:
    """Second-order response vectors: e at frequency 2*omega, f at zero.

    The one-point case of ``_second_order``: raises ResonanceError at a
    2:1 resonance or a zero eigenvalue instead of returning an
    ill-conditioned solve.
    """
    e_vec, f_vec, errors = _second_order(_stack(lin), _one(omega), _one(s), _one(c))
    _raise_first(errors)
    return e_vec[0], f_vec[0]


def _gammas(lin: Linearization, omega: np.ndarray, s: np.ndarray, c: np.ndarray,
            d: np.ndarray, e_vec: np.ndarray, f_vec: np.ndarray
            ) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients of the amplitude equation H' = delta*Gamma1*H - Gamma2*H^2*conj(H),
    one (N,) array each for a stack of N crossings.

    Gamma1 = d*(A + As*E)*c equals i*omega + s*dlambda/ds, the per-unit-
    delay drift of the crossing root. Gamma2 collects the cubic-order
    secular forcing: the first-order wave beating against its own
    second-order response. The resonant part of each quadratic term is
    assembled from the component products, delayed slots weighted by E
    (the net delay factor of a wave at frequency +omega).
    """
    ex = np.exp(-1j * omega * s)
    gamma1 = np.einsum("ni,nij,nj->n", d, lin.A + lin.As * ex[:, None, None], c)

    fq = lin.F_quadratic
    c1, c2 = c[:, 0], c[:, 1]
    e1, e2c = e_vec[:, 0], e_vec[:, 1]
    f1, f2 = f_vec[:, 0], f_vec[:, 1]
    mix_uv = c1 * f2 + np.conj(c1) * e2c + c2 * f1 + np.conj(c2) * e1
    m_vec = np.stack(np.broadcast_arrays(
        2.0 * fq["u2"] * (c1 * f1 + np.conj(c1) * e1) + fq["uv_delayed"] * ex * mix_uv,
        2.0 * fq["v2"] * (c2 * f2 + np.conj(c2) * e2c),
        mix_uv), axis=1)
    return gamma1, -s * np.einsum("ni,ni->n", d, m_vec)


def classify(chi1: float, chi2: float) -> Direction:
    prod = chi1 * chi2
    if abs(prod) <= 1e-12:
        return Direction.DEGENERATE
    return Direction.SUPERCRITICAL if prod > 0 else Direction.SUBCRITICAL


def _require_direction(nf: NormalForm) -> None:
    if nf.direction is Direction.DEGENERATE:
        raise ValueError("bifurcation direction is degenerate")


def predicted_amplitude(nf: NormalForm, delta: float) -> float:
    """Radius of the bifurcating cycle at delay s* + delta (0 if none).

    The amplitude equation has stationary radius rho with
    rho^2 = delta*chi1/chi2; a negative right side means no cycle on
    that side of the switch.
    """
    _require_direction(nf)
    rho2 = delta * nf.chi1 / nf.chi2
    return float(np.sqrt(rho2)) if rho2 > 0 else 0.0


def predicted_component_amplitudes(nf: NormalForm, delta: float) -> np.ndarray:
    """Half peak-to-peak amplitude of each state component at s* + delta."""
    rho = predicted_amplitude(nf, delta)
    return 2.0 * rho * np.abs(nf.c_vec)


def _phase_rate(nf: NormalForm) -> float:
    """Im Gamma1 - Im Gamma2*chi1/chi2: on the cycle at s* + delta the
    phase of H turns delta times this in tau, on top of omega*s*."""
    return nf.Gamma1.imag - nf.Gamma2.imag * nf.chi1 / nf.chi2


def predicted_period(nf: NormalForm, delta: float) -> float:
    """Period in t of the cycle at delay s = s* + delta: the module
    docstring's T(delta) = 2*pi*s / (omega*s* + delta*(Im Gamma1 -
    Im Gamma2*chi1/chi2)). Meaningful where predicted_amplitude > 0."""
    _require_direction(nf)
    drift = delta * _phase_rate(nf)
    return 2.0 * math.pi * (nf.s_star + delta) / (nf.omega_star * nf.s_star + drift)


class NormalForms(NamedTuple):
    """``compute_normal_form`` over N parameter sets, point axis first.

    s0 is the first switch, NaN where there is none. ok marks the
    points whose normal form was computed; the other fields are NaN
    elsewhere. errors maps each other point that passes ModelParams'
    rules to the exception ``compute_normal_form`` raises there.
    """

    s0: np.ndarray
    omega_star: np.ndarray
    c_vec: np.ndarray
    d_vec: np.ndarray
    e_vec: np.ndarray
    f_vec: np.ndarray
    Gamma1: np.ndarray
    Gamma2: np.ndarray
    ok: np.ndarray
    errors: dict[int, Exception]


def normal_forms(p: ParamGrid) -> NormalForms:
    """Normal form at the first switch of every point of a parameter grid.

    Uses the smallest crossing delay over all candidate ladders. A
    point without the coexistence equilibrium, without a crossing, or
    where a step of the reduction fails gets no normal form.
    """
    n = len(p.r1)
    sw = first_switches(p)
    errors = dict(sw.errors)

    omega, s = sw.omega, sw.s0
    lin = _linearize(sw.params, sw.point)
    c, d, right, left = _null_vectors(lin, omega, s)
    e_vec, f_vec, resonant = _second_order(lin, omega, s, c)
    gamma1, gamma2 = _gammas(lin, omega, s, c, d, e_vec, f_vec)
    # the first failure of each point, in the order of the steps
    failed = {**resonant, **left, **right}
    errors.update({int(sw.idx[i]): exc for i, exc in failed.items()})
    good = np.ones(len(sw.idx), dtype=bool)
    good[list(failed)] = False

    ok = np.zeros(n, dtype=bool)
    ok[sw.idx[good]] = True

    def scatter(values: np.ndarray) -> np.ndarray:
        out = np.full((n,) + values.shape[1:], np.nan, dtype=values.dtype)
        out[ok] = values[good]
        return out

    s0 = np.full(n, np.nan)
    s0[sw.idx] = s
    return NormalForms(
        s0=s0, omega_star=scatter(omega), c_vec=scatter(c), d_vec=scatter(d),
        e_vec=scatter(e_vec), f_vec=scatter(f_vec), Gamma1=scatter(gamma1),
        Gamma2=scatter(gamma2), ok=ok, errors=errors)


def compute_normal_form(params: ModelParams) -> NormalForm:
    """Full pipeline from parameters to classified amplitude equation.

    The one-point case of ``normal_forms``. Raises when the coexistence
    equilibrium is missing, no crossing exists, or a step fails.
    """
    nfs = normal_forms(ParamGrid.of(params))
    _raise_first(nfs.errors)
    gamma1, gamma2 = complex(nfs.Gamma1[0]), complex(nfs.Gamma2[0])
    chi1, chi2 = gamma1.real, gamma2.real
    return NormalForm(
        omega_star=float(nfs.omega_star[0]),
        s_star=float(nfs.s0[0]),
        c_vec=nfs.c_vec[0],
        d_vec=nfs.d_vec[0],
        e_vec=nfs.e_vec[0],
        f_vec=nfs.f_vec[0],
        Gamma1=gamma1,
        Gamma2=gamma2,
        chi1=chi1,
        chi2=chi2,
        direction=classify(chi1, chi2),
    )
