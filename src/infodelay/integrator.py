"""Time-domain integration of the delayed interaction model.

Both integrators are fixed-step RK4 on the method of steps (Bellen and
Zennaro, Numerical Methods for Delay Differential Equations, 2003). The
step h divides the delay s exactly, so every delayed (u, v) an RK stage
needs sits on a lag grid of spacing h/2: the history sampled at g*h/2
on [-s, 0], then, for each step, the cubic Hermite midpoint of the step
(node values plus node derivatives, which keeps the fourth order) and
the node that ends it. Step i reads the grid entries 2i, 2i+1 and 2i+2.

The delay enters only through the loss term b1*r1*u(t-s)*v(t-s), so on
any stretch of at most one delay that term is known before the stretch
starts. The run is therefore cut into delay blocks of at most
s/h steps. Before a block one numpy expression forms its delayed
losses from the lag grid, the block's Python loop does only the RK4
stage algebra and collects its rows in a list, and after it two slice
assignments store states and node derivatives and two strided ones put
the block's midpoints and nodes on the lag grid. The derivative at the
next block's first node, which the last midpoint needs, reads the grid
one delay back and is evaluated before that fill. Every value comes
from the same expression, evaluated in the same order, as in a loop
that reads and appends the lag grid step by step; only where values are
stored has changed, so the results are bit-identical to it. When s = 0
the system is an ODE, the delayed factor is the stage's own state, and
blocks only bound the length of the row list.

simulate advances the three-variable reduced system in which the memory
variable w obeys its own ODE. simulate_distributed instead evaluates
the memory integral by quadrature: a trapezoid sum over the whole
exponentially weighted product history at the same h/2 spacing.
Because the kernel is exponential, that sum is carried as one number
and updated in O(1) per half-step (the linear-chain property behind
the reduction; MacDonald, Time Lags in Biological Models, 1978), and
the clamped history before its first sample adds a geometric series.
Agreement between the two integrators validates the chain reduction.
Both report the first node at which u or v turns negative, where the
model leaves its meaningful region; the 1e6 divergence bound is only a
backstop.

cycle_metrics classifies the tail of a trajectory (settled, oscillating,
growing), measures amplitude and period of a limit cycle, and returns
the spacing spread, envelope ratio and largest deviation its verdict
rests on.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from itertools import repeat

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
# most steps per block; with s = 0 (nothing delayed) this only bounds
# the row list
_MAX_BLOCK = 4096
# rows per chunk of the trajectory CSV writer
_CSV_CHUNK = 8192


class SimulationDiverged(RuntimeError):
    """A state component left the admissible range at the given time.

    left_positive_orthant_at is the first node time, up to that one, at
    which u or v was negative, or None.
    """

    def __init__(self, time: float, left_positive_orthant_at: float | None = None):
        super().__init__(f"state left |x| <= {_DIVERGENCE_BOUND:g} at t = {time:g}")
        self.time = time
        self.left_positive_orthant_at = left_positive_orthant_at


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
        return cls(np.zeros(1), np.array([(float(u0), float(v0))]), w0)

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
    stored row bit for bit. left_positive_orthant_at is the first node
    time at which u or v is negative, or None.
    """

    t0: float
    t_end: float
    step: float
    states: np.ndarray
    dense_coeffs: np.ndarray
    left_positive_orthant_at: float | None = None

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
        """Write t,u,v,w rows with 17 significant digits.

        The bytes are those of np.savetxt(path, column_stack([times,
        states]), fmt="%.17g", delimiter=",", header="t,u,v,w",
        comments=""); the rows are formatted a chunk at a time, with the
        t column built exactly like times.
        """
        n = len(self.states)
        with open(path, "w", encoding="latin1") as fh:
            fh.write("t,u,v,w\n")
            for a in range(0, n, _CSV_CHUNK):
                b = min(a + _CSV_CHUNK, n)
                chunk = np.empty((b - a, 4))
                chunk[:, 0] = self.t0 + self.step * np.arange(a, b)
                chunk[:, 1:] = self.states[a:b]
                fh.write(("%.17g,%.17g,%.17g,%.17g\n" * (b - a)) % tuple(chunk.ravel().tolist()))


class Classification(str, Enum):
    CONVERGES = "ConvergesToEquilibrium"
    SUSTAINED = "SustainedOscillation"
    DIVERGES = "Diverges"
    INCONCLUSIVE = "Inconclusive"


@dataclass(frozen=True)
class CycleMetrics:
    """A cycle_metrics verdict with the numbers behind it.

    spacing_cv is the spread of the peak spacings over their mean (None
    with fewer than three peaks), envelope_ratio the deviation envelope
    of the window's last chunk over that of its first (None when the
    first is zero), and max_deviation the largest deviation from the
    equilibrium in the retained window; all three are None when the
    window is too short to measure.
    """

    classification: Classification
    amplitude: np.ndarray | None
    period: float | None
    n_periods_measured: int
    spacing_cv: float | None = None
    envelope_ratio: float | None = None
    max_deviation: float | None = None


def _run_grid(s: float, t_end: float, steps_per_delay: int) -> tuple[int, float, int]:
    """Steps per delay, step size and step count of a run to t_end."""
    nd = int(steps_per_delay)
    if nd != steps_per_delay or nd < 20:
        raise ValueError(f"steps_per_delay must be an integer >= 20, got {steps_per_delay!r}")
    if not (math.isfinite(t_end) and t_end > 0):
        raise ValueError(f"t_end must be positive and finite, got {t_end!r}")
    h = s / nd if s > 0.0 else 1.0 / nd
    return nd, h, max(1, math.ceil(t_end / h - 1e-9))


class _Run:
    """Node storage and lag grid of one fixed-step run, filled block by block.

    The lag grid holds delayed (u, v) at spacing h/2: column 2*nd + 2*i
    is node i, column 2*nd + 2*i - 1 the Hermite midpoint of step i - 1,
    and the columns before 2*nd the history on [-s, 0]. Step i reads
    columns 2i, 2i+1 and 2i+2. For s = 0 the grid is the one column of
    the state at t = 0. The run's initial (u, v) is in states[0]; the
    integrator adds w.

    blocks() yields each block's first step and, per step, the delayed
    losses b1*r1*u*v at the step's first node, midpoint and last node,
    formed for the whole block by one numpy expression (placeholder
    zeros when s = 0, where each stage uses its own product). The caller
    runs the block and hands its rows to close(), or to diverged() when
    a state leaves the bound. A row is (k1u, k1v, k1w, u, v, w): the
    derivative at the step's first node and the state at its last node.
    """

    def __init__(self, params: ModelParams, history: HistorySpec, t_end: float,
                 steps_per_delay: int):
        nd, h, n = _run_grid(params.s, t_end, steps_per_delay)
        t0 = history.sample_times[0]
        if len(history.sample_times) > 1 and t0 > -params.s + 1e-9 * max(1.0, params.s):
            raise ValueError(f"sampled history starts at {t0!r} but must cover "
                             f"[-{params.s!r}, 0]")
        self.params, self.h, self.n = params, h, n
        self.lagged = params.s > 0.0
        self.off = 2 * nd if self.lagged else 0
        self.block = min(nd, _MAX_BLOCK) if self.lagged else _MAX_BLOCK
        self.lag = np.empty((2, self.off + 2 * n + 1 if self.lagged else 1))
        self.lag[:, :self.off + 1] = history.at(np.arange(-self.off, 1) * (0.5 * h))
        self.states = np.empty((n + 1, 3))
        self.derivs = np.empty((n + 1, 3))
        self.states[0, :2] = self.lag[:, self.off]

    def blocks(self):
        """Each block's first step and its per-step delayed losses."""
        lag, br1 = self.lag, self.params.b1 * self.params.r1
        for i0 in range(0, self.n, self.block):
            m = min(self.block, self.n - i0)
            if self.lagged:
                cols = slice(2 * i0, 2 * (i0 + m) + 1)
                F = (br1 * lag[0, cols] * lag[1, cols]).tolist()
                yield i0, zip(F[0:-1:2], F[1::2], F[2::2])
            else:
                yield i0, repeat((0.0, 0.0, 0.0), m)

    def close(self, i0: int, rows: list, state: State) -> None:
        """Store a finished block and put its midpoints and nodes on the lag grid.

        The midpoint of the block's last step needs the derivative at the
        next block's first node, whose delayed value is a delay back and
        so already on the grid; it is the same expression the next
        block's first step evaluates, and is the final row if no block
        follows.
        """
        b = self._store(i0, rows)
        delayed = State(*self.lag[:, 2 * b].tolist(), 0.0) if self.lagged else state
        self.derivs[b] = reduced_rhs(state, delayed, self.params)
        if self.lagged and b < self.n:
            y, d = self.states[i0:b + 1, :2].T, self.derivs[i0:b + 1, :2].T
            seg = self.lag[:, self.off + 2 * i0:self.off + 2 * b + 1]
            seg[:, 1::2] = 0.5 * (y[:, :-1] + y[:, 1:]) + 0.125 * self.h * (d[:, :-1] - d[:, 1:])
            seg[:, 2::2] = y[:, 1:]

    def diverged(self, i0: int, rows: list, state: State) -> SimulationDiverged:
        """The exception for a state past the bound after the given rows."""
        b = self._store(i0, rows) + 1
        self.states[b] = state
        return SimulationDiverged(b * self.h, self._orthant_exit(b))

    def _store(self, i0: int, rows: list) -> int:
        """Put the rows of steps i0, i0+1, ... into states and derivs; the next node index."""
        m = len(rows) // 6
        block = np.fromiter(rows, float, len(rows)).reshape(m, 6)
        self.derivs[i0:i0 + m] = block[:, :3]
        self.states[i0 + 1:i0 + m + 1] = block[:, 3:]
        return i0 + m

    def _orthant_exit(self, last: int) -> float | None:
        """Time of the first node up to node last with u or v < 0, or None."""
        uv = self.states[:last + 1]
        hit = np.flatnonzero((uv[:, 0] < 0.0) | (uv[:, 1] < 0.0))
        return int(hit[0]) * self.h if len(hit) else None

    def trajectory(self) -> Trajectory:
        return Trajectory(t0=0.0, t_end=self.n * self.h, step=self.h, states=self.states,
                          dense_coeffs=self.derivs,
                          left_positive_orthant_at=self._orthant_exit(self.n))


def simulate(params: ModelParams, history: HistorySpec, t_end: float,
             steps_per_delay: int = 200) -> Trajectory:
    """Integrate the reduced three-variable system from the given history.

    The step is s/steps_per_delay (1/steps_per_delay when s = 0, where
    the system is an ODE), and the run extends to the first node at or
    past t_end. Raises SimulationDiverged when a component leaves
    |x| <= 1e6.
    """
    run = _Run(params, history, t_end, steps_per_delay)
    lagged, h = run.lagged, run.h
    u, v = run.states[0, :2].tolist()
    w = run.states[0, 2] = history.initial_w(params)

    r1, a1 = params.r1, params.a1
    r2, a2 = params.r2, params.a2
    br1 = params.b1 * params.r1
    br2 = params.b2 * params.r2
    mr = params.mu + params.r
    half, sixth = 0.5 * h, h / 6.0
    bound = _DIVERGENCE_BOUND

    for i0, forcing in run.blocks():
        rows = []
        for f1, fm, f4 in forcing:
            if not lagged:
                f1 = br1 * u * v
            k1u = r1 * u * (1.0 - a1 * u) - f1
            k1v = r2 * v * (1.0 - a2 * v) + br2 * w
            k1w = u * v - mr * w
            u2, v2, w2 = u + half * k1u, v + half * k1v, w + half * k1w
            if not lagged:
                fm = br1 * u2 * v2
            k2u = r1 * u2 * (1.0 - a1 * u2) - fm
            k2v = r2 * v2 * (1.0 - a2 * v2) + br2 * w2
            k2w = u2 * v2 - mr * w2
            u3, v3, w3 = u + half * k2u, v + half * k2v, w + half * k2w
            if not lagged:
                fm = br1 * u3 * v3
            k3u = r1 * u3 * (1.0 - a1 * u3) - fm
            k3v = r2 * v3 * (1.0 - a2 * v3) + br2 * w3
            k3w = u3 * v3 - mr * w3
            u4, v4, w4 = u + h * k3u, v + h * k3v, w + h * k3w
            if not lagged:
                f4 = br1 * u4 * v4
            k4u = r1 * u4 * (1.0 - a1 * u4) - f4
            k4v = r2 * v4 * (1.0 - a2 * v4) + br2 * w4
            k4w = u4 * v4 - mr * w4
            u += sixth * (k1u + 2.0 * (k2u + k3u) + k4u)
            v += sixth * (k1v + 2.0 * (k2v + k3v) + k4v)
            w += sixth * (k1w + 2.0 * (k2w + k3w) + k4w)
            if not (abs(u) <= bound and abs(v) <= bound and abs(w) <= bound):
                raise run.diverged(i0, rows, State(u, v, w))
            rows.extend((k1u, k1v, k1w, u, v, w))
        run.close(i0, rows, State(u, v, w))
    return run.trajectory()


def simulate_distributed(params: ModelParams, history: HistorySpec, t_end: float,
                         steps_per_delay: int = 200) -> Trajectory:
    """Integrate with the memory integral evaluated by quadrature.

    The exponentially weighted product history is summed by the
    trapezoid rule on a grid of half the RK step over the whole past,
    where before its first sample the history is clamped to that
    sample. Half-grid products come from the Hermite midpoints of the
    steps; the newest half-step product is seeded from the inner RK
    stages and replaced by its Hermite value one step later, which only
    ever touches one quadrature weight.

    The sum over every sample but the newest is carried as one number
    S. The kernel is exponential, so a new sample scales every older
    weight by E = exp(-(mu+r)*h/2): S becomes E*S plus the previous
    newest sample at its weight E*h/2, and the Hermite replacement adds
    E*h/2 times the change. Nothing of the product history is kept.

    The returned w column is the quadrature value of the memory
    integral; the history's w0 is ignored because the history itself
    determines that value. The discrete delay s is handled exactly as
    in simulate.
    """
    run = _Run(params, history, t_end, steps_per_delay)
    lagged, h = run.lagged, run.h

    r1, a1 = params.r1, params.a1
    r2, a2 = params.r2, params.a2
    br1 = params.b1 * params.r1
    br2 = params.b2 * params.r2
    mr = params.mu + params.r

    qstep = 0.5 * h
    decay = math.exp(-mr * qstep)
    w0_tail, w1 = 0.5 * qstep, qstep * decay

    # S: the weighted sum over every sample before the newest one. The
    # samples reach back K half-steps, to the first at or before the
    # history's start t0; the clamped q(t0) before that adds a geometric
    # series. Weights more than 745/(mu+r) back underflow to zero.
    t0 = max(history.sample_times[0], -745.0 / mr)
    K = math.ceil(-t0 / qstep)
    k = np.arange(1, K + 1)
    qu, qv = history.at(-qstep * k)
    ut0, vt0 = history.at(t0)
    S = float(qstep * (np.exp(-mr * qstep * k) @ (qu * qv))
              + qstep * ut0 * vt0 * decay ** (K + 1) / -math.expm1(-mr * qstep))

    half, sixth, eighth = 0.5 * h, h / 6.0, 0.125 * h
    bound = _DIVERGENCE_BOUND

    u, v = run.states[0, :2].tolist()
    uv = u * v
    w_cur = run.states[0, 2] = S + w0_tail * uv

    for i0, forcing in run.blocks():
        rows = []
        for i, (f1, fm, f4) in enumerate(forcing, i0):
            if not lagged:
                f1 = br1 * u * v
            k1u = r1 * u * (1.0 - a1 * u) - f1
            k1v = r2 * v * (1.0 - a2 * v) + br2 * (S + w0_tail * u * v)
            k1w = u * v - mr * w_cur
            if i:
                # replace last step's seeded half product with its Hermite value
                um = 0.5 * (pu + u) + eighth * (pku - k1u)
                vm = 0.5 * (pv + v) + eighth * (pkv - k1v)
                S += w1 * (um * vm - q_seed)
            pu, pv, pku, pkv = u, v, k1u, k1v
            S = decay * S + w1 * uv
            u2, v2 = u + half * k1u, v + half * k1v
            if not lagged:
                fm = br1 * u2 * v2
            k2u = r1 * u2 * (1.0 - a1 * u2) - fm
            k2v = r2 * v2 * (1.0 - a2 * v2) + br2 * (S + w0_tail * u2 * v2)
            u3, v3 = u + half * k2u, v + half * k2v
            if not lagged:
                fm = br1 * u3 * v3
            k3u = r1 * u3 * (1.0 - a1 * u3) - fm
            k3v = r2 * v3 * (1.0 - a2 * v3) + br2 * (S + w0_tail * u3 * v3)
            q_seed = 0.5 * (u2 * v2 + u3 * v3)
            S = decay * S + w1 * q_seed
            u4, v4 = u + h * k3u, v + h * k3v
            if not lagged:
                f4 = br1 * u4 * v4
            k4u = r1 * u4 * (1.0 - a1 * u4) - f4
            k4v = r2 * v4 * (1.0 - a2 * v4) + br2 * (S + w0_tail * u4 * v4)
            u += sixth * (k1u + 2.0 * (k2u + k3u) + k4u)
            v += sixth * (k1v + 2.0 * (k2v + k3v) + k4v)
            uv = u * v
            w_cur = S + w0_tail * uv
            if not (abs(u) <= bound and abs(v) <= bound and abs(w_cur) <= bound):
                raise run.diverged(i0, rows, State(u, v, w_cur))
            rows.extend((k1u, k1v, k1w, u, v, w_cur))
        run.close(i0, rows, State(u, v, w_cur))
    return run.trajectory()


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
    # k >= 1, and mag[0] is at rounding level after the mean removal, so
    # past the flatness guard mag[k] tops both neighbours and the vertex
    # stays within half a bin of k
    k = 1 + int(np.argmax(mag[1:]))
    if mag[k] < 1e-12 * len(x) * max(1.0, float(np.abs(x).max())):
        return None
    if k < len(mag) - 1:
        return len(x) * step / (k + float(_vertex_shift(*mag[k - 1:k + 2])))
    return len(x) * step / k


def _vertex_shift(left, mid, right):
    """Offset from the middle sample to the vertex of the parabola through
    three equally spaced samples, in samples; 0 where they do not bend down."""
    curv = left - 2.0 * mid + right
    return np.where(curv < 0.0, 0.5 * (left - right) / np.where(curv < 0.0, curv, -1.0), 0.0)


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
    shift = _vertex_shift(signal[peaks - 1], signal[peaks], signal[peaks + 1])
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
    peak instants refined to sub-sample accuracy. spacing_cv,
    envelope_ratio and max_deviation are the numbers the verdict was
    decided on.
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
    spacings = np.diff(pk_times)
    period = float(spacings.mean()) if len(peaks) >= 2 else None
    spacing_cv = float(spacings.std() / spacings.mean()) if len(peaks) >= 3 else None
    envelope_ratio = float(env[-1] / env[0]) if env[0] > 0.0 else None
    max_deviation = float(dev.max())

    lo, hi = _ENVELOPE_SETTLED
    if max_deviation < _CONVERGED_DEV and np.all(env[1:] <= env[:-1] * 1.05 + 1e-15):
        verdict = Classification.CONVERGES
    elif (len(peaks) >= _MIN_PERIODS + 1 and spacing_cv < _SUSTAINED_CV
          and lo * env[0] <= env[-1] <= hi * env[0]):
        verdict = Classification.SUSTAINED
    elif np.all(env[1:] > env[:-1]) and env[-1] >= _DIVERGE_GROWTH * env[0]:
        verdict = Classification.DIVERGES
    else:
        verdict = Classification.INCONCLUSIVE
    return CycleMetrics(verdict, amplitude, period, n_periods,
                        spacing_cv, envelope_ratio, max_deviation)
