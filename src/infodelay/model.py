"""Model definition: parameters, equilibria, and right-hand sides.

The reduced system couples two interacting densities u and v with a
discrete delay s in the u-equation and a memory variable w standing in
for an exponentially weighted integral over the past of u*v:

    u' = r1*u*(1 - a1*u) - b1*r1*u(t-s)*v(t-s)
    v' = r2*v*(1 - a2*v) + b2*r2*w
    w' = u*v - (mu + r)*w

With the unnormalized weight kernel exp(-(mu+r)*tau) the w-equation is
the exact reduction of the distributed form; ``distributed_w_oracle``
evaluates that integral directly so the reduction can be cross-checked
against quadrature instead of trusted blindly.

``ParamGrid`` carries the parameters of N points as arrays, for the
analysis chain that evaluates many points at once; ``params_valid`` and
``coexistence_points`` are its forms of ModelParams' checks and of the
coexistence point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum
from typing import NamedTuple, Sequence

import numpy as np

__all__ = [
    "ModelParams",
    "State",
    "EquilibriumLabel",
    "Stability",
    "Equilibrium",
    "ParamGrid",
    "WOracleResult",
    "coexistence",
    "coexistence_points",
    "equilibria",
    "estar_exists",
    "params_valid",
    "reduced_rhs",
    "distributed_w_oracle",
]

class State(NamedTuple):
    """Point of the reduced system: densities u, v and memory variable w."""

    u: float
    v: float
    w: float


@dataclass(frozen=True)
class ModelParams:
    """All rate, capacity, and delay constants of the model.

    r1, r2  growth rates of u and v (positive)
    a1, a2  inverse carrying capacities (positive)
    b1, b2  cross-interaction rates (either sign)
    mu      loss rate (nonnegative)
    r       memory-kernel rate (positive)
    s       discrete delay in the u-equation (nonnegative)
    """

    r1: float
    r2: float
    a1: float
    a2: float
    b1: float
    b2: float
    mu: float
    r: float
    s: float

    def __post_init__(self) -> None:
        for names, holds, what in _RULES:
            for name in names:
                value = getattr(self, name)
                if not (isinstance(value, (int, float)) and holds(value)):
                    raise ValueError(f"{name} {what}, got {value!r}")


_PARAM_FIELDS = tuple(f.name for f in fields(ModelParams))

# the rules ModelParams enforces, in the order it checks them: the
# fields a rule covers, its test, and the end of its error message
_RULES = (
    (_PARAM_FIELDS, np.isfinite, "must be a finite number"),
    (("r1", "r2", "a1", "a2", "r"), lambda x: x > 0, "must be positive"),
    (("mu", "s"), lambda x: x >= 0, "must be nonnegative"),
)


class ParamGrid(NamedTuple):
    """ModelParams fields as arrays over one axis of N points.

    Nothing is checked on construction: ``params_valid`` gives the
    per-point mask of the rules ModelParams enforces.
    """

    r1: np.ndarray
    r2: np.ndarray
    a1: np.ndarray
    a2: np.ndarray
    b1: np.ndarray
    b2: np.ndarray
    mu: np.ndarray
    r: np.ndarray
    s: np.ndarray

    @classmethod
    def of(cls, values) -> ParamGrid:
        """Broadcast a ModelParams, or a field -> number or 1-D array
        mapping, to one point axis (N = 1 for all numbers)."""
        if isinstance(values, ModelParams):
            values = vars(values)
        return cls(*np.broadcast_arrays(
            *(np.atleast_1d(np.asarray(values[name], dtype=float)) for name in _PARAM_FIELDS)))

    def take(self, which) -> ParamGrid:
        """The points an index array or boolean mask selects."""
        return ParamGrid(*(a[which] for a in self))


def params_valid(p: ParamGrid) -> np.ndarray:
    """Per-point mask: True where ModelParams would accept the values."""
    ok = np.ones(np.shape(p.r1), dtype=bool)
    for names, holds, _ in _RULES:
        for name in names:
            ok &= holds(getattr(p, name))
    return ok


class EquilibriumLabel(str, Enum):
    E0 = "E0"
    E1 = "E1"
    E2 = "E2"
    ESTAR = "EStar"


class Stability(str, Enum):
    STABLE = "Stable"
    UNSTABLE = "Unstable"
    UNDETERMINED = "Undetermined"


@dataclass(frozen=True)
class Equilibrium:
    label: EquilibriumLabel
    point: State
    exists: bool
    local_stability: Stability


def reduced_rhs(current: State, delayed: State, params: ModelParams) -> State:
    """Time derivative of the reduced system.

    The delayed state enters only through the interaction term of the
    u-equation; every other term uses the instantaneous state.
    """
    du = (params.r1 * current.u * (1.0 - params.a1 * current.u)
          - params.b1 * params.r1 * delayed.u * delayed.v)
    dv = (params.r2 * current.v * (1.0 - params.a2 * current.v)
          + params.b2 * params.r2 * current.w)
    dw = current.u * current.v - (params.mu + params.r) * current.w
    return State(du, dv, dw)


def estar_exists(params: ModelParams) -> bool:
    """Existence predicate for the coexistence equilibrium.

    True exactly where the closed-form point is componentwise positive
    and the shared denominator D = a1*a2*(mu+r) + b1*b2 is positive.
    The other positive branch (D < 0, b1 > a2, a1*(mu+r) + b2 < 0) is a
    fixed point too, but the predicate rejects it: there
    p0 + q0 = r1*r2*u*v*D < 0, so the characteristic function is
    negative at lambda = 0 and has a positive real root at every delay.
    That point is unstable for all s, with no stability switch.
    """
    return bool(coexistence_points(params)[0])


def coexistence_points(p) -> tuple[np.ndarray, State]:
    """Existence mask and closed-form coexistence point, elementwise.

    Works on a ModelParams or a ParamGrid. The mask is
    ``estar_exists``: a positive point with a positive shared
    denominator a1*a2*(mu+r) + b1*b2. Where the denominator vanishes the
    point is NaN; where it is negative the point may still be positive,
    and is unstable at every delay.
    """
    mr = p.mu + p.r
    exists = (p.b1 < p.a2) & (p.a1 * p.a2 * mr > np.maximum(-p.b1 * p.b2, -p.a2 * p.b2))
    den = p.a1 * p.a2 * mr + p.b1 * p.b2
    flat = den == 0.0
    den = np.where(flat, 1.0, den)
    u_star = np.where(flat, math.nan, (p.a2 - p.b1) * mr / den)
    v_star = np.where(flat, math.nan, (p.a1 * mr + p.b2) / den)
    # w* = u*v*/(mu+r) by construction; identical to the closed form
    # (a2-b1)(a1(mu+r)+b2)/den^2 after the mr factor cancels.
    return exists, State(u_star, v_star, u_star * v_star / mr)


def equilibria(params: ModelParams) -> list[Equilibrium]:
    """All four equilibria with existence and stability verdicts.

    E0 (both extinct), E1 (u only), E2 (v only) always exist. EStar is
    marked existing exactly when ``estar_exists`` holds; a positive
    point with a negative denominator, unstable at every delay, is
    marked missing.
    Stability verdicts for E0/E1/E2 come from the zero-delay spectrum;
    E2 in particular can be delay-destabilized even when b1 > a2, which
    the flag deliberately ignores. The EStar verdict is delegated to the
    characteristic-equation machinery in the stability module and is
    reported Undetermined here.
    """
    mr = params.mu + params.r
    out = [Equilibrium(EquilibriumLabel.E0, State(0.0, 0.0, 0.0), True,
                       Stability.UNSTABLE)]

    # E1: the u-only vertex. Its v-w block has negative determinant when
    # mu + r + b2/a1 > 0, giving a saddle; otherwise nothing is claimed.
    e1_stab = (Stability.UNSTABLE if mr + params.b2 / params.a1 > 0
               else Stability.UNDETERMINED)
    out.append(Equilibrium(EquilibriumLabel.E1, State(1.0 / params.a1, 0.0, 0.0),
                           True, e1_stab))

    if params.b1 > params.a2:
        e2_stab = Stability.STABLE
    elif params.b1 < params.a2:
        e2_stab = Stability.UNSTABLE
    else:
        e2_stab = Stability.UNDETERMINED
    out.append(Equilibrium(EquilibriumLabel.E2, State(0.0, 1.0 / params.a2, 0.0),
                           True, e2_stab))

    exists, point = coexistence_points(params)
    out.append(Equilibrium(EquilibriumLabel.ESTAR, State(*map(float, point)), bool(exists),
                           Stability.UNDETERMINED))
    return out


def coexistence(params: ModelParams) -> Equilibrium:
    """The EStar entry of ``equilibria``, existing or not."""
    return equilibria(params)[3]


class WOracleResult(NamedTuple):
    value: float
    truncation_bound: float


def distributed_w_oracle(times: Sequence[float],
                         u: Sequence[float],
                         v: Sequence[float],
                         params: ModelParams) -> WOracleResult:
    """Exponentially weighted integral of u*v over a stored history.

    Evaluates int_0^T exp(-(mu+r)*tau) * u(t-tau) * v(t-tau) dtau by
    composite trapezoid on the given grid, where t = times[-1] and
    T = times[-1] - times[0]. Truncating the infinite past at T discards
    at most exp(-(mu+r)*T) * sup|uv| / (mu+r), which is returned
    alongside the value. The history must span at least 30/(mu+r) so the
    discarded tail is at the exp(-30) level.

    On a constant history (u0, v0) the value is u0*v0/(mu+r) up to
    quadrature error, which is also the consistent starting value for
    the memory variable w of the reduced system.
    """
    t_arr = np.asarray(times, dtype=float)
    u_arr = np.asarray(u, dtype=float)
    v_arr = np.asarray(v, dtype=float)
    if t_arr.ndim != 1 or t_arr.shape != u_arr.shape or t_arr.shape != v_arr.shape:
        raise ValueError("times, u, v must be 1-D arrays of equal length")
    if t_arr.size < 2:
        raise ValueError("history needs at least two samples")
    mr = params.mu + params.r
    span = float(t_arr[-1] - t_arr[0])
    if span * mr < 30.0 * (1.0 - 1e-12):
        raise ValueError(
            f"history span {span:g} too short: need at least 30/(mu+r) = {30.0 / mr:g}")
    prod = u_arr * v_arr
    integrand = np.exp(-mr * (t_arr[-1] - t_arr)) * prod
    value = float(np.trapezoid(integrand, t_arr))
    bound = math.exp(-mr * span) * float(np.max(np.abs(prod))) / mr
    return WOracleResult(value, bound)
