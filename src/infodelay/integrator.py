"""Time-domain integration of the delayed interaction model.

Both integrators are fixed-step RK4 on the method of steps (Bellen and
Zennaro, Numerical Methods for Delay Differential Equations, 2003). The
step h divides the delay s exactly, so every delayed (u, v) an RK stage
needs sits on a lag grid of spacing h/2. The grid starts as the history
sampled at g*h/2 on [-s, 0]; each step then appends the cubic Hermite
midpoint of the step before it (node values plus node derivatives, which
keeps the fourth order) and its own starting node. Step i reads the
grid entries 2i, 2i+1 and 2i+2. When s = 0 the system is an ODE and the
delayed factor is the stage's own state.

simulate advances the three-variable reduced system in which the memory
variable w obeys its own ODE. simulate_distributed instead evaluates
the memory integral directly by exponentially weighted quadrature over
the product history at the same h/2 spacing; agreement between the two
validates the chain reduction.

cycle_metrics classifies the tail of a trajectory (settled, oscillating,
growing) and measures amplitude and period of a limit cycle.
"""
from __future__ import annotations

import math
from array import array
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .model import ModelParams, State, reduced_rhs

__all__ = [
    "HistorySpec",
    "Trajectory",
    "SimulationDiverged",
    "Classification",
    "CycleMetrics",
    "simulate",
    "simulate_distributed",
    "cycle_metrics",
    "fft_period",
]

# any component beyond this bound aborts the run as diverged; the
# comparison is written so NaN also trips it
_DIVERGENCE_BOUND = 1e6
# tail deviation below this counts as settled at the equilibrium
_CONVERGED_DEV = 1e-3
_PEAK_PROMINENCE = 1e-6
_SUSTAINED_CV = 0.01
_MIN_PERIODS = 5
_ENVELOPE_CHUNKS = 8
# window-end to window-start deviation envelope ratio accepted as a
# settled cycle; a slow spiral keeps a steady rhythm while its envelope
# collapses or keeps growing, and must not count as sustained
_ENVELOPE_SETTLED = (0.5, 4.0)
_DIVERGE_GROWTH = 10.0
# the memory kernel is truncated once it has decayed below exp(-30)
_KERNEL_SPAN = 30.0


class SimulationDiverged(RuntimeError):
    """A state component left the admissible range at the given time."""

    def __init__(self, time: float):
        super().__init__(f"state left |x| <= {_DIVERGENCE_BOUND:g} at t = {time:g}")
        self.time = time


@dataclass(frozen=True, eq=False)
class HistorySpec:
    """Prehistory of (u, v) on [-s, 0] plus an optional initial memory value.

    The samples are interpolated linearly, and a lookup before the first
    sample clamps to it. A single sample at t = 0 is therefore a history
    held constant forever; a history of two or more samples must cover
    one delay. The distributed integrator's memory kernel reaches far
    beyond one delay and sees the clamped value there.

    With w0 None, w(0) = u(0)*v(0)/(mu+r), the exact memory value of a
    history held constant forever (reported as the Consistent policy);
    otherwise w(0) = w0 (Explicit).
    """

    sample_times: np.ndarray
    sample_values: np.ndarray
    w0: float | None = None

    @classmethod
    def constant(cls, u0: float, v0: float, w0: float | None = None) -> "HistorySpec":
        value = (float(u0), float(v0))
        if not all(math.isfinite(x) for x in value):
            raise ValueError(f"constant_value must be finite, got {value!r}")
        return cls(np.zeros(1), np.array([value]), w0)

    @classmethod
    def sampled(cls, times, values, w0: float | None = None) -> "HistorySpec":
        t = np.asarray(times, dtype=float)
        if t.ndim != 1 or len(t) < 2:
            raise ValueError("sample_times must be 1-D with at least two entries")
        return cls(t, np.asarray(values, dtype=float), w0)

    def __post_init__(self):
        t, x = self.sample_times, self.sample_values
        if t.ndim != 1 or len(t) == 0:
            raise ValueError("sample_times must be 1-D and non-empty")
        if x.shape != (len(t), 2):
            raise ValueError(f"sample_values must have shape ({len(t)}, 2), got {x.shape}")
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(x))):
            raise ValueError("history samples must be finite")
        if np.any(np.diff(t) <= 0):
            raise ValueError("sample_times must be strictly increasing")
        if abs(t[-1]) > 1e-9:
            raise ValueError(f"last sample time must be 0, got {t[-1]!r}")
        if self.w0 is not None and not math.isfinite(self.w0):
            raise ValueError("Explicit w0 policy needs a finite w0")

    def at(self, times) -> tuple[np.ndarray, np.ndarray]:
        """u and v of the history at the given times."""
        t, x = self.sample_times, self.sample_values
        return np.interp(times, t, x[:, 0]), np.interp(times, t, x[:, 1])

    def initial_w(self, params: ModelParams) -> float:
        """w(0): w0 if given, else the consistent u(0)*v(0)/(mu+r)."""
        if self.w0 is not None:
            return self.w0
        u0, v0 = self.at(0.0)
        return float(u0 * v0 / (params.mu + params.r))


@dataclass(eq=False)
class Trajectory:
    """Fixed-step solution with dense cubic Hermite output.

    states[k] is the state at t0 + k*step and dense_coeffs[k] the exact
    right-hand side there; between nodes __call__ evaluates the Hermite
    cubic through the bracketing pair, and at a node it returns the
    stored row bit for bit.
    """

    t0: float
    t_end: float
    step: float
    states: np.ndarray
    dense_coeffs: np.ndarray

    @property
    def times(self) -> np.ndarray:
        return self.t0 + self.step * np.arange(len(self.states))

    def __call__(self, t):
        ts = np.asarray(t, dtype=float).ravel()
        slack = 1e-9 * self.step
        outside = ~((self.t0 - slack <= ts) & (ts <= self.t_end + slack))
        if outside.any():
            raise ValueError(f"t = {float(ts[outside][0])!r} outside "
                             f"[{self.t0!r}, {self.t_end!r}]")
        nodes = self.times
        k = np.clip(np.searchsorted(nodes, ts, side="right") - 1, 0, len(nodes) - 2)
        h = self.step
        th = ((ts - nodes[k]) / h)[:, None]
        om = 1.0 - th
        y0, y1 = self.states[k], self.states[k + 1]
        d0, d1 = self.dense_coeffs[k], self.dense_coeffs[k + 1]
        out = (om * om * (1.0 + 2.0 * th) * y0
               + th * om * om * h * d0
               + th * th * (3.0 - 2.0 * th) * y1
               - th * th * om * h * d1)
        first, last = ts == nodes[k], ts == nodes[k + 1]
        out[first] = y0[first]
        out[last] = y1[last]
        return out if np.ndim(t) > 0 else out[0]

    def to_csv(self, path) -> None:
        data = np.column_stack([self.times, self.states])
        np.savetxt(path, data, fmt="%.17g", delimiter=",", header="t,u,v,w", comments="")


class Classification(str, Enum):
    CONVERGES = "ConvergesToEquilibrium"
    SUSTAINED = "SustainedOscillation"
    DIVERGES = "Diverges"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class CycleMetrics:
    classification: Classification
    amplitude: np.ndarray | None
    period: float | None
    n_periods_measured: int


def _run_grid(s: float, t_end: float, steps_per_delay: int) -> tuple[int, float, int]:
    """Steps per delay, step size and step count of a run to t_end."""
    nd = int(steps_per_delay)
    if nd != steps_per_delay or nd < 20:
        raise ValueError(f"steps_per_delay must be an integer >= 20, got {steps_per_delay!r}")
    if not (math.isfinite(t_end) and t_end > 0):
        raise ValueError(f"t_end must be positive and finite, got {t_end!r}")
    h = s / nd if s > 0.0 else 1.0 / nd
    return nd, h, max(1, math.ceil(t_end / h - 1e-9))


def _lag_grid(history: HistorySpec, s: float, nd: int, h: float) -> tuple[array, array]:
    """The u and v lag grids, primed with the history on [-s, 0].

    Entry 2*nd (the last one here) is the state at t = 0; for s = 0 it
    is the only history entry.
    """
    t0 = history.sample_times[0]
    if len(history.sample_times) > 1 and t0 > -s + 1e-9 * max(1.0, s):
        raise ValueError(f"sampled history starts at {t0!r} but must cover [-{s!r}, 0]")
    hu, hv = history.at(np.arange(-2 * nd if s > 0.0 else 0, 1) * (0.5 * h))
    return array("d", hu), array("d", hv)


def _end_row(params: ModelParams, state: State, lu: array, lv: array, n: int) -> State:
    """Right-hand side at the last node n, whose delayed state is entry 2n."""
    delayed = State(lu[2 * n], lv[2 * n], 0.0) if params.s > 0.0 else state
    return reduced_rhs(state, delayed, params)


def simulate(params: ModelParams, history: HistorySpec, t_end: float,
             steps_per_delay: int = 200) -> Trajectory:
    """Integrate the reduced three-variable system from the given history.

    The step is s/steps_per_delay (1/steps_per_delay when s = 0, where
    the system is an ODE), and the run extends to the first node at or
    past t_end. Raises SimulationDiverged when a component leaves
    |x| <= 1e6.
    """
    nd, h, n = _run_grid(params.s, t_end, steps_per_delay)
    lu, lv = _lag_grid(history, params.s, nd, h)
    lagged = params.s > 0.0
    u, v, w = lu[-1], lv[-1], history.initial_w(params)

    r1, a1 = params.r1, params.a1
    r2, a2 = params.r2, params.a2
    br1 = params.b1 * params.r1
    br2 = params.b2 * params.r2
    mr = params.mu + params.r

    states = np.empty((n + 1, 3))
    derivs = np.empty((n + 1, 3))
    states[0] = (u, v, w)
    half, sixth, eighth = 0.5 * h, h / 6.0, 0.125 * h
    bound = _DIVERGENCE_BOUND

    for i in range(n):
        if lagged:
            g = 2 * i
            du1, dv1 = lu[g], lv[g]
            dum, dvm = lu[g + 1], lv[g + 1]
            du4, dv4 = lu[g + 2], lv[g + 2]
        else:
            du1, dv1 = u, v
        k1u = r1 * u * (1.0 - a1 * u) - br1 * du1 * dv1
        k1v = r2 * v * (1.0 - a2 * v) + br2 * w
        k1w = u * v - mr * w
        derivs[i, 0], derivs[i, 1], derivs[i, 2] = k1u, k1v, k1w
        if i:
            lu.append(0.5 * (pu + u) + eighth * (pku - k1u))
            lv.append(0.5 * (pv + v) + eighth * (pkv - k1v))
            lu.append(u)
            lv.append(v)
        pu, pv, pku, pkv = u, v, k1u, k1v
        u2, v2, w2 = u + half * k1u, v + half * k1v, w + half * k1w
        if not lagged:
            dum, dvm = u2, v2
        k2u = r1 * u2 * (1.0 - a1 * u2) - br1 * dum * dvm
        k2v = r2 * v2 * (1.0 - a2 * v2) + br2 * w2
        k2w = u2 * v2 - mr * w2
        u3, v3, w3 = u + half * k2u, v + half * k2v, w + half * k2w
        if not lagged:
            dum, dvm = u3, v3
        k3u = r1 * u3 * (1.0 - a1 * u3) - br1 * dum * dvm
        k3v = r2 * v3 * (1.0 - a2 * v3) + br2 * w3
        k3w = u3 * v3 - mr * w3
        u4, v4, w4 = u + h * k3u, v + h * k3v, w + h * k3w
        if not lagged:
            du4, dv4 = u4, v4
        k4u = r1 * u4 * (1.0 - a1 * u4) - br1 * du4 * dv4
        k4v = r2 * v4 * (1.0 - a2 * v4) + br2 * w4
        k4w = u4 * v4 - mr * w4
        u += sixth * (k1u + 2.0 * (k2u + k3u) + k4u)
        v += sixth * (k1v + 2.0 * (k2v + k3v) + k4v)
        w += sixth * (k1w + 2.0 * (k2w + k3w) + k4w)
        if not (abs(u) <= bound and abs(v) <= bound and abs(w) <= bound):
            raise SimulationDiverged((i + 1) * h)
        states[i + 1, 0], states[i + 1, 1], states[i + 1, 2] = u, v, w
    derivs[n] = _end_row(params, State(u, v, w), lu, lv, n)
    return Trajectory(t0=0.0, t_end=n * h, step=h, states=states, dense_coeffs=derivs)


def simulate_distributed(params: ModelParams, history: HistorySpec, t_end: float,
                         steps_per_delay: int = 200) -> Trajectory:
    """Integrate with the memory integral evaluated by direct quadrature.

    The exponentially weighted product history is accumulated on a grid
    of half the RK step (trapezoid rule), truncated where the kernel has
    decayed to exp(-30). Half-grid products come from the lag grid's
    Hermite midpoints; the newest half-step product is seeded from the
    inner RK stages and replaced by its Hermite value one step later,
    which only ever touches one quadrature weight.

    The returned w column is the quadrature value of the memory
    integral; the history's w0 is ignored because the history itself
    determines that value. The discrete delay s is handled exactly as
    in simulate.
    """
    nd, h, n = _run_grid(params.s, t_end, steps_per_delay)
    lu, lv = _lag_grid(history, params.s, nd, h)
    lagged = params.s > 0.0

    r1, a1 = params.r1, params.a1
    r2, a2 = params.r2, params.a2
    br1 = params.b1 * params.r1
    br2 = params.b2 * params.r2
    mr = params.mu + params.r

    qstep = 0.5 * h
    ns = int(math.ceil(_KERNEL_SPAN / (mr * qstep)))
    tw = np.full(ns + 1, qstep)
    tw[0] = tw[-1] = 0.5 * qstep
    wk = tw * np.exp(-mr * qstep * np.arange(ns + 1))
    wk_past = np.ascontiguousarray(wk[:0:-1])  # tau = ns*qstep .. qstep
    w0_tail = float(wk[0])

    # fine-grid products u*v at spacing qstep; index g <-> time (g - ns)*qstep
    q = np.empty(ns + 2 * n + 1)
    qu, qv = history.at(np.arange(-ns, 1) * qstep)
    q[:ns + 1] = qu * qv

    states = np.empty((n + 1, 3))
    derivs = np.empty((n + 1, 3))
    half, sixth, eighth = 0.5 * h, h / 6.0, 0.125 * h
    bound = _DIVERGENCE_BOUND

    u, v = lu[-1], lv[-1]
    w_cur = float(wk_past @ q[0:ns]) + w0_tail * q[ns]
    states[0] = (u, v, w_cur)

    for i in range(n):
        base = ns + 2 * i
        if lagged:
            g = 2 * i
            du1, dv1 = lu[g], lv[g]
            dum, dvm = lu[g + 1], lv[g + 1]
            du4, dv4 = lu[g + 2], lv[g + 2]
        else:
            du1, dv1 = u, v
        sn = float(wk_past @ q[2 * i: 2 * i + ns])
        k1u = r1 * u * (1.0 - a1 * u) - br1 * du1 * dv1
        k1v = r2 * v * (1.0 - a2 * v) + br2 * (sn + w0_tail * u * v)
        derivs[i, 0], derivs[i, 1] = k1u, k1v
        derivs[i, 2] = u * v - mr * w_cur
        if i:
            # replace last step's seeded half product with its Hermite value
            um = 0.5 * (pu + u) + eighth * (pku - k1u)
            vm = 0.5 * (pv + v) + eighth * (pkv - k1v)
            lu.append(um)
            lv.append(vm)
            lu.append(u)
            lv.append(v)
            q[base - 1] = um * vm
        pu, pv, pku, pkv = u, v, k1u, k1v
        sh = float(wk_past @ q[2 * i + 1: 2 * i + 1 + ns])
        u2, v2 = u + half * k1u, v + half * k1v
        if not lagged:
            dum, dvm = u2, v2
        k2u = r1 * u2 * (1.0 - a1 * u2) - br1 * dum * dvm
        k2v = r2 * v2 * (1.0 - a2 * v2) + br2 * (sh + w0_tail * u2 * v2)
        u3, v3 = u + half * k2u, v + half * k2v
        if not lagged:
            dum, dvm = u3, v3
        k3u = r1 * u3 * (1.0 - a1 * u3) - br1 * dum * dvm
        k3v = r2 * v3 * (1.0 - a2 * v3) + br2 * (sh + w0_tail * u3 * v3)
        q[base + 1] = 0.5 * (u2 * v2 + u3 * v3)
        sn1 = float(wk_past @ q[2 * i + 2: 2 * i + 2 + ns])
        u4, v4 = u + h * k3u, v + h * k3v
        if not lagged:
            du4, dv4 = u4, v4
        k4u = r1 * u4 * (1.0 - a1 * u4) - br1 * du4 * dv4
        k4v = r2 * v4 * (1.0 - a2 * v4) + br2 * (sn1 + w0_tail * u4 * v4)
        u += sixth * (k1u + 2.0 * (k2u + k3u) + k4u)
        v += sixth * (k1v + 2.0 * (k2v + k3v) + k4v)
        q[base + 2] = u * v
        w_cur = sn1 + w0_tail * u * v
        if not (abs(u) <= bound and abs(v) <= bound and abs(w_cur) <= bound):
            raise SimulationDiverged((i + 1) * h)
        states[i + 1, 0], states[i + 1, 1], states[i + 1, 2] = u, v, w_cur
    derivs[n] = _end_row(params, State(u, v, w_cur), lu, lv, n)
    return Trajectory(t0=0.0, t_end=n * h, step=h, states=states, dense_coeffs=derivs)


def fft_period(values, step: float) -> float | None:
    """Dominant period of a uniformly sampled signal, or None if flat.

    The spectral peak is sharpened by parabolic interpolation of the
    magnitude across the peak bin, which recovers off-bin frequencies to
    far better than one bin width.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or len(x) < 8:
        return None
    x = x - x.mean()
    mag = np.abs(np.fft.rfft(x))
    if len(mag) < 3:
        return None
    k = 1 + int(np.argmax(mag[1:]))
    if mag[k] < 1e-12 * len(x) * max(1.0, float(np.abs(x).max())):
        return None
    kk = float(k)
    if 1 <= k < len(mag) - 1:
        denom = mag[k - 1] - 2.0 * mag[k] + mag[k + 1]
        if denom < 0:
            kk += 0.5 * (mag[k - 1] - mag[k + 1]) / denom
    if kk <= 0:
        return None
    return len(x) * step / kk


def _refined_peak_times(ts: np.ndarray, signal: np.ndarray,
                        peaks: np.ndarray) -> np.ndarray:
    """Peak instants with the sample-grid quantization removed.

    A vertex fit through the three samples around each detected maximum
    shifts it by up to half a sample; without this the spacing jitter
    of a coarsely resolved cycle is grid artifact, not rhythm.
    """
    if len(peaks) == 0:
        return ts[peaks]
    step = ts[1] - ts[0]
    left, mid, right = signal[peaks - 1], signal[peaks], signal[peaks + 1]
    curv = left - 2.0 * mid + right
    shift = np.where(curv < 0.0, 0.5 * (left - right) / np.where(curv < 0.0, curv, -1.0), 0.0)
    return ts[peaks] + np.clip(shift, -0.5, 0.5) * step


def _prominent_peaks(x: np.ndarray, min_prominence: float) -> np.ndarray:
    """Indices of the peaks of x whose prominence is at least min_prominence.

    The definitions are those of scipy.signal.find_peaks. A peak is a
    sample above both neighbours; a flat top counts once, at its middle
    (rounded down), and the two end samples never count. Its prominence
    is its height over the higher of the two lowest points between it
    and the nearest strictly higher peak (or the signal end) on each
    side.
    """
    # collapse runs of equal samples; a peak is a run above both neighbour runs
    starts = np.flatnonzero(np.r_[True, x[1:] != x[:-1]])
    ends = np.r_[starts[1:] - 1, len(x) - 1]
    runs = x[starts]
    top = np.flatnonzero((runs[1:-1] > runs[:-2]) & (runs[1:-1] > runs[2:])) + 1
    peaks = (starts[top] + ends[top]) // 2
    if len(peaks) == 0:
        return peaks
    heights = x[peaks]
    # lowest sample before the first peak, between neighbouring peaks, after the last
    valleys = np.minimum.reduceat(x, np.r_[0, peaks])
    left = _lowest_back_to_higher(heights, valleys[:-1])
    right = _lowest_back_to_higher(heights[::-1], valleys[:0:-1])[::-1]
    return peaks[heights - np.maximum(left, right) >= min_prominence]


def _lowest_back_to_higher(heights: np.ndarray, valleys: np.ndarray) -> np.ndarray:
    """Per peak, the lowest valley back to the nearest strictly higher peak.

    valleys[k] is the lowest point between peak k-1 (or the signal
    start) and peak k. A stack holds the peaks not yet overtaken, each
    with the lowest point back to the peak below it on the stack.
    """
    out = np.empty(len(heights))
    stack: list[tuple[float, float]] = []
    for k, (height, low) in enumerate(zip(heights.tolist(), valleys.tolist())):
        while stack and stack[-1][0] <= height:
            low = min(low, stack.pop()[1])
        stack.append((height, low))
        out[k] = low
    return out


def cycle_metrics(traj: Trajectory, equilibrium, transient_fraction: float = 0.5
                  ) -> CycleMetrics:
    """Classify the post-transient window and measure the cycle if any.

    The first transient_fraction of the run is discarded. Verdicts, in
    priority order: ConvergesToEquilibrium when the retained deviation
    from the given equilibrium stays under 1e-3 with a non-increasing
    chunk envelope; SustainedOscillation when at least 6 peaks (5 full
    periods) exist with peak spacings spread under 1% of their mean and
    a deviation envelope that neither collapses nor keeps growing
    across the window; Diverges when the chunk envelope grows strictly
    and at least tenfold; Inconclusive otherwise. When an oscillation
    is suspected the retained window should cover 10 or more estimated
    periods, else the verdict is unreliable.

    amplitude is the per-component half peak-to-peak over the retained
    window, period the mean spacing of the deviation peaks with the
    peak instants refined to sub-sample accuracy.
    """
    if not 0.0 <= transient_fraction < 1.0:
        raise ValueError(f"transient_fraction must be in [0, 1), got {transient_fraction!r}")
    eq = np.asarray(equilibrium, dtype=float).reshape(3)
    times = traj.times
    start = traj.t0 + transient_fraction * (traj.t_end - traj.t0)
    keep = times >= start
    ts = times[keep]
    xs = traj.states[keep]
    if len(ts) < 32:
        return CycleMetrics(Classification.INCONCLUSIVE, None, None, 0)

    amplitude = 0.5 * (xs.max(axis=0) - xs.min(axis=0))
    dev = np.abs(xs - eq).max(axis=1)
    chunks = np.array_split(dev, _ENVELOPE_CHUNKS)
    env = np.array([c.max() for c in chunks])

    signal = xs[:, 0] - eq[0]
    peaks = _prominent_peaks(signal, _PEAK_PROMINENCE)
    n_periods = max(0, len(peaks) - 1)
    pk_times = _refined_peak_times(ts, signal, peaks)
    period = float(np.diff(pk_times).mean()) if len(peaks) >= 2 else None

    non_increasing = bool(np.all(env[1:] <= env[:-1] * 1.05 + 1e-15))
    if dev.max() < _CONVERGED_DEV and non_increasing:
        return CycleMetrics(Classification.CONVERGES, amplitude, period, n_periods)

    if len(peaks) >= _MIN_PERIODS + 1:
        spacings = np.diff(pk_times)
        steady = spacings.std() / spacings.mean() < _SUSTAINED_CV
        lo, hi = _ENVELOPE_SETTLED
        settled = lo * env[0] <= env[-1] <= hi * env[0]
        if steady and settled:
            return CycleMetrics(Classification.SUSTAINED, amplitude, period, n_periods)

    if bool(np.all(env[1:] > env[:-1])) and env[-1] >= _DIVERGE_GROWTH * env[0]:
        return CycleMetrics(Classification.DIVERGES, amplitude, period, n_periods)

    return CycleMetrics(Classification.INCONCLUSIVE, amplitude, period, n_periods)
