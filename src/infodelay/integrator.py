"""Time-domain integration of the delayed interaction model.

Both integrators are fixed-step RK4 on the method of steps (Bellen and
Zennaro, Numerical Methods for Delay Differential Equations, 2003). The
step h divides the delay s exactly, so every delayed (u, v) an RK stage
needs sits on a lag grid of spacing h/2: the history sampled at g*h/2
on [-s, 0], then, for each step, the cubic Hermite midpoint of the step
(node values plus node derivatives, which keeps the fourth order) and
the node that ends it. The step is fixed for a run;
simulate_to_tolerance chooses it by step doubling, and its docstring
describes how.

The delay enters only through the loss term b1*r1*u(t-s)*v(t-s), so on
any stretch of one delay that term is known before the stretch starts.
The run is therefore cut into delay blocks of s/h steps (the last may
be shorter), and a block reads the lag grid only over the block before
it. Only that last delay of the grid is kept, 2*s/h + 1 values per
component, so a run's memory is its states plus one delay: a node's
derivative is the model's right-hand side at the node, so the
trajectory derives it from the states where dense output needs it, and
the run keeps only the current block's. _Run hands each block's Python
loop the delayed losses, formed from that buffer by one numpy
expression, and a row list; the loop does only the RK4 stage algebra
and appends a row per step. Then two slice assignments store the rows,
one numpy test holds the nodes to the divergence bound, and two strided
ones overwrite the buffer with the block's nodes and midpoints. The
derivative at the next block's first node, which the last midpoint
needs, takes the block's last delayed loss. Every value comes from the
same expression, evaluated in the same order, as in a loop that reads
and appends a whole-run lag grid step by step, so the results are
bit-identical to it. When s = 0 the system is an ODE, the delayed
factor is the stage's own state, and blocks of _MAX_BLOCK steps only
bound the row list.

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
model leaves its meaningful region; the divergence bound, 1e6 times
each component's scale, is only a backstop.

Trajectory.to_csv writes the bytes of np.savetxt with %.17g, made by
numpy a chunk of rows at a time (_rowtext, exact by Dekker's
TwoProduct), to a temp file that then replaces the path; its docstring
has the details.

cycle_metrics classifies the tail of a trajectory (settled, oscillating,
growing), measures amplitude and period of a limit cycle, and returns
the spacing spread, envelope ratio and largest deviation its verdict
rests on; deviations are relative to the equilibrium's components, so
no size test in the module is in the units of u and v. The extrema
behind the amplitude and the peak instants behind the period are both
refined by the three-point parabola, so that a coarse step does not set
their error. Like the step-doubling estimate, it works on views and
single columns of the states, never on a copy of the whole run.
"""
from __future__ import annotations

import math
import mmap
import os
import signal
import threading
from contextlib import contextmanager
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
    "simulate_to_tolerance",
    "simulate_distributed",
    "cycle_metrics",
    "fft_period",
]

# a component beyond this times its scale, 1/a1, 1/a2 or 1/(a1*a2*(mu+r)),
# aborts the run as diverged; the comparison is written so NaN also trips it
_DIVERGENCE_BOUND = 1e6
# tail deviation below this, relative to each component, counts as settled
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
# steps per block when s = 0, where nothing is delayed and blocks only
# bound the row list
_MAX_BLOCK = 4096
# rows per chunk of the trajectory CSV writer; its scratch is about
# 650 bytes per row
_CSV_CHUNK = 2048
# the steps per delay simulate_to_tolerance climbs, and the step-doubling
# error estimate its kept run must meet
_SPD_LADDER = (25, 50, 100, 200)
_STEP_RTOL = 1e-6


class SimulationDiverged(RuntimeError):
    """A component passed _DIVERGENCE_BOUND times its scale at the given time.

    left_positive_orthant_at is the first node time, up to that one, at
    which u or v was negative, or None, and steps_per_delay the run's.
    """

    def __init__(self, time: float, left_positive_orthant_at: float | None = None,
                 steps_per_delay: int | None = None):
        super().__init__(f"state passed {_DIVERGENCE_BOUND:g} times its scale at t = {time:g}")
        self.time = time
        self.left_positive_orthant_at = left_positive_orthant_at
        self.steps_per_delay = steps_per_delay


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

    states[k] is the state at t = k*step. The slope there, bit for bit
    the run's own, is reduced_rhs of params with the (u, v) a delay
    back: from the states, or from history_nodes, the history at the
    nodes of [-s, 0], before the run (for s = 0, the node's own). It is
    derived where needed and not kept.
    Between nodes __call__ evaluates the Hermite cubic through the
    bracketing pair, and at a node it returns the stored row bit for
    bit; without params there is no dense output.
    left_positive_orthant_at is the first node time at which u or v is
    negative, or None; step_error_estimate is set where
    simulate_to_tolerance kept the run.
    """

    step: float
    states: np.ndarray
    params: ModelParams | None = None
    history_nodes: np.ndarray | None = None
    left_positive_orthant_at: float | None = None
    steps_per_delay: int | None = None
    step_error_estimate: float | None = None

    @property
    def t_end(self) -> float:
        return self.step * (len(self.states) - 1)

    @property
    def times(self) -> np.ndarray:
        return self.step * np.arange(len(self.states))

    def _slopes(self, k: np.ndarray) -> np.ndarray:
        """reduced_rhs at the nodes k, as rows."""
        if self.params is None:
            raise ValueError("a trajectory built without params has no dense output")
        nd = self.steps_per_delay if self.params.s > 0.0 else 0
        y, delayed = self.states[k], self.states[np.maximum(k - nd, 0), :2]
        early = k < nd
        if early.any():
            delayed[early] = self.history_nodes[k[early]]
        return np.column_stack(reduced_rhs(State(*y.T), State(*delayed.T, 0.0), self.params))

    def __call__(self, t):
        ts = np.asarray(t, dtype=float).ravel()
        slack = 1e-9 * self.step
        outside = ~((-slack <= ts) & (ts <= self.t_end + slack))
        if outside.any():
            raise ValueError(f"t = {float(ts[outside][0])!r} outside [0.0, {self.t_end!r}]")
        h = self.step
        # at a node t_j the bracket is (t_{j-1}, t_j], and `last` returns row j
        k = np.clip(_first_node_from(self, ts) - 1, 0, len(self.states) - 2)
        tk = h * k
        th = ((ts - tk) / h)[:, None]
        om = 1.0 - th
        y0, y1 = self.states[k], self.states[k + 1]
        d0, d1 = np.split(self._slopes(np.concatenate([k, k + 1])), 2)
        out = (om * om * (1.0 + 2.0 * th) * y0
               + th * om * om * h * d0
               + th * th * (3.0 - 2.0 * th) * y1
               - th * th * om * h * d1)
        first, last = ts == tk, ts == h * (k + 1)
        out[first] = y0[first]
        out[last] = y1[last]
        return out if np.ndim(t) > 0 else out[0]

    def to_csv(self, path) -> None:
        """Write t,u,v,w rows with 17 significant digits.

        The bytes are those of np.savetxt(path, column_stack([times,
        states]), fmt="%.17g", delimiter=",", header="t,u,v,w",
        comments=""), made a chunk of _CSV_CHUNK rows at a time by
        _rowtext.RowFormatter: fixed-notation values (zero and every
        |x| in [1e-4, 1e17)) are converted exactly with numpy, and any
        other value falls back to '%.17g' % v. The rows go to a hidden
        temp file beside path, created with the mode open() would give a
        new file there, which then replaces path. The file appears at
        path only once complete: on any exception an existing file at
        path is left as it was and the temp file is removed.
        """
        directory, name = os.path.split(os.path.abspath(path))
        tmp = os.path.join(directory, f".{name}.{os.urandom(6).hex()}.tmp")
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with open(fd, "wb") as fh:
                fh.write(b"t,u,v,w\n")
                self._write_rows(fh)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise

    def _write_rows(self, fh) -> None:
        """Write the text of every row to the binary file fh a chunk at a
        time, with the t column built exactly like times."""
        from ._rowtext import RowFormatter

        size = min(_CSV_CHUNK, len(self.states))
        rows, text = np.empty((size, 4)), RowFormatter(4 * size)
        for c in range(0, len(self.states), _CSV_CHUNK):
            states = self.states[c:c + _CSV_CHUNK]
            chunk = rows[:len(states)]
            chunk[:, 0] = self.step * np.arange(c, c + len(states))
            chunk[:, 1:] = states
            fh.write(text(chunk))


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
    equilibrium, relative to each component, in the retained window;
    all three are None when the window is too short to measure.
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
    """Node storage and one-delay lag buffer of one fixed-step run, filled
    block by block.

    With s > 0 every block but the last is nd = s/h steps long, and a
    block reads delayed (u, v) only from the one before it. The buffer
    holds those values at spacing h/2, 2*nd + 1 columns: column 2*k is
    node i0 - nd + k of the block starting at step i0, and column 2*k + 1
    the Hermite midpoint of the step after that node; the first block
    reads the history on [-s, 0] there. Step i0 + j reads columns 2j,
    2j+1 and 2j+2. Once a block is stored, its own nodes and midpoints
    overwrite the buffer for the next one. For s = 0 the buffer is the
    one column of the state at t = 0. The run's initial (u, v) is in
    states[0]; the integrator adds w.

    blocks() yields each block's delayed losses b1*r1*u*v at each step's
    first node, midpoint and last node (one numpy expression per block;
    placeholder zeros when s = 0, where each stage uses its own product)
    and an empty list, to which the caller appends per step the row
    (k1u, k1v, u, v, w): the (u, v) derivative at the step's first node
    and the state at its last. Asking for the next block stores the
    states and keeps the (u, v) derivatives of that block alone in
    slopes, for its midpoints; a block with a node past bound, the
    per-component divergence bound, raises SimulationDiverged at the
    first such node, its loop having run on to the block's end (Python
    float overflow gives inf or NaN, never an exception). rates are the
    constants of the stage algebra that both integrators share;
    history_nodes the history at the nodes of [-s, 0], for the
    trajectory to derive its slopes from.
    """

    def __init__(self, params: ModelParams, history: HistorySpec, t_end: float,
                 steps_per_delay: int):
        nd, h, n = _run_grid(params.s, t_end, steps_per_delay)
        t0 = history.sample_times[0]
        if len(history.sample_times) > 1 and t0 > -params.s + 1e-9 * max(1.0, params.s):
            raise ValueError(f"sampled history starts at {t0!r} but must cover "
                             f"[-{params.s!r}, 0]")
        self.params, self.nd, self.h, self.n = params, nd, h, n
        self.br1 = params.b1 * params.r1
        self.rates = (params.r1, params.a1, params.r2, params.a2, self.br1,
                      params.b2 * params.r2, params.mu + params.r, 0.5 * h, h / 6.0)
        self.bound = _DIVERGENCE_BOUND / np.array(
            [params.a1, params.a2, params.a1 * params.a2 * (params.mu + params.r)])
        self.least_bound = float(self.bound.min())
        self.lagged = params.s > 0.0
        self.block = nd if self.lagged else _MAX_BLOCK
        back = 2 * nd if self.lagged else 0
        self.lag = np.stack(history.at(np.arange(-back, 1) * (0.5 * h)))
        self.history_nodes = self.lag[:, 0::2].T.copy()
        self.states = np.empty((n + 1, 3))
        self.slopes = np.empty((self.block + 1, 2))
        self.states[0, :2] = self.lag[:, -1]

    def blocks(self):
        """Each block's delayed losses and row list."""
        lag, br1 = self.lag, self.br1
        for i0 in range(0, self.n, self.block):
            m = min(self.block, self.n - i0)
            rows = []
            if not self.lagged:
                yield repeat((0.0, 0.0, 0.0), m), rows
                self._store(i0, rows)
                continue
            F = (br1 * lag[0, :2 * m + 1] * lag[1, :2 * m + 1]).tolist()
            yield zip(F[0:-1:2], F[1::2], F[2::2]), rows
            if self._store(i0, rows) < self.n:
                self._next_lag(i0)

    def _next_lag(self, i0: int) -> None:
        """Make the lag buffer the next block's, after the full block from
        step i0.

        The midpoint of the block's last step needs the slope at the next
        block's first node, whose delayed (u, v) is the buffer's last
        column: bit for bit the k1 of the next block's first step.
        """
        end = i0 + self.block
        self.slopes[-1] = reduced_rhs(State(*self.states[end].tolist()),
                                      State(*self.lag[:, -1].tolist(), 0.0), self.params)[:2]
        y, d = self.states[i0:end + 1, :2].T, self.slopes.T
        self.lag[:, 1::2] = 0.5 * (y[:, :-1] + y[:, 1:]) + 0.125 * self.h * (d[:, :-1] - d[:, 1:])
        self.lag[:, 0::2] = y

    def _store(self, i0: int, rows: list) -> int:
        """Put the rows of steps i0, i0+1, ... into slopes and states; the next
        node index. Raises SimulationDiverged at the first node past bound."""
        m = len(rows) // 5
        block = np.fromiter(rows, float, len(rows)).reshape(m, 5)
        self.slopes[:m] = block[:, :2]
        stored = self.states[i0 + 1:i0 + m + 1]
        stored[:] = block[:, 2:]
        size = np.abs(stored)
        if not size.max() <= self.least_bound and not (size <= self.bound).all():
            b = i0 + 1 + int((size <= self.bound).all(axis=1).argmin())
            raise SimulationDiverged(b * self.h, self._orthant_exit(b), self.nd)
        return i0 + m

    def _orthant_exit(self, last: int) -> float | None:
        """Time of the first node up to node last with u or v < 0, or None."""
        uv = self.states[:last + 1]
        neg = uv[:, 0] < 0.0
        neg |= uv[:, 1] < 0.0
        first = int(neg.argmax())
        return first * self.h if neg[first] else None

    def trajectory(self) -> Trajectory:
        """The finished run."""
        return Trajectory(step=self.h, states=self.states, params=self.params,
                          history_nodes=self.history_nodes, steps_per_delay=self.nd,
                          left_positive_orthant_at=self._orthant_exit(self.n))


def simulate(params: ModelParams, history: HistorySpec, t_end: float,
             steps_per_delay: int) -> Trajectory:
    """Integrate the reduced three-variable system from the given history.

    The step is s/steps_per_delay (1/steps_per_delay when s = 0, where
    the system is an ODE), and the run extends to the first node at or
    past t_end. Raises SimulationDiverged when a component passes 1e6
    times its scale: 1/a1 for u, 1/a2 for v, 1/(a1*a2*(mu+r)) for w.
    """
    run = _Run(params, history, t_end, steps_per_delay)
    lagged, h = run.lagged, run.h
    u, v = run.states[0, :2].tolist()
    w = run.states[0, 2] = history.initial_w(params)

    r1, a1, r2, a2, br1, br2, mr, half, sixth = run.rates

    for forcing, rows in run.blocks():
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
            rows.extend((k1u, k1v, u, v, w))
    return run.trajectory()


def simulate_to_tolerance(params: ModelParams, history: HistorySpec, t_end: float) -> Trajectory:
    """simulate at the steps per delay (spd) that step doubling chooses.

    The rungs are _SPD_LADDER, spd 25, 50, 100 and 200. Runs at N and 2N
    spd give a Richardson estimate of the finer run's error (_step_error;
    Hairer, Norsett and Wanner, Solving ODEs I, II.4), and the first
    finer run whose estimate is at most _STEP_RTOL = 1e-6 is kept. A rung
    below the top runs only where the one under it reached t_end and,
    from the second pair on, missed by at most 16x (RK4's error falls
    16-fold per halving of h); a stiff config can diverge at a coarse
    step where spd 200 is fine. Otherwise the run is simulate's at the
    top rung, kept whether or not it meets the tolerance: its
    SimulationDiverged propagates, and its estimate is taken against the
    finest coarser run, or is None if none reached t_end. The kept run
    records its spd and estimate.

    Where the rungs run: spd 25 and 50 are independent, so while this
    process runs spd 50, a forked child runs spd 25 on a second CPU and
    hands back its states through shared memory or nothing
    (_rung_aside). Where it hands back nothing, after a divergence,
    another failure or a kill, spd 25 runs again here after spd 50, so
    its divergence (which discards the spd 50 run) or failure raises
    from this process. spd 25 runs here instead, first and alone, where
    os.fork is missing, the affinity set has one CPU, or another thread
    is alive; a diverged spd 25 run then skips spd 50. spd 100 and 200
    always run here, one after the other. Either way the kept run, its
    estimate and any divergence are the same; no child outlives the call.
    """
    first, second = _SPD_LADDER[:2]
    coarse = fine = None   # (spd, states) of the finest run so far; the next rung's run
    try:
        with _rung_aside(params, history, t_end, first) as collect:
            fine = _reached(params, history, t_end, second)
            coarse = (first, collect())
    except SimulationDiverged:
        fine = None
    rung = 1
    while fine is not None:
        spd = _SPD_LADDER[rung]
        estimate = _step_error(*coarse, spd, fine.states)
        if estimate <= _STEP_RTOL:
            fine.step_error_estimate = estimate
            return fine
        # only the states are kept, so a coarse run's dense rows are
        # freed before the finer run allocates its own
        coarse, fine, rung = (spd, fine.states), None, rung + 1
        if estimate <= 16.0 * _STEP_RTOL and rung < len(_SPD_LADDER) - 1:
            fine = _reached(params, history, t_end, _SPD_LADDER[rung])
    fine = simulate(params, history, t_end, _SPD_LADDER[-1])
    if coarse is not None:
        fine.step_error_estimate = _step_error(*coarse, _SPD_LADDER[-1], fine.states)
    return fine


def _reached(params: ModelParams, history: HistorySpec, t_end: float,
             spd: int) -> Trajectory | None:
    """simulate's run at spd, or None where it diverged."""
    try:
        return simulate(params, history, t_end, spd)
    except SimulationDiverged:
        return None


def _spare_cpu() -> bool:
    """Whether a forked child can run beside this process: os.fork
    exists, the affinity set has a second CPU, and no other thread is
    alive (forking a threaded process is unsafe)."""
    return (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")
            and len(os.sched_getaffinity(0)) > 1 and threading.active_count() == 1)


@contextmanager
def _rung_aside(params: ModelParams, history: HistorySpec, t_end: float, spd: int):
    """Start simulate's run at spd and yield collect(), which returns the
    run's states or raises its SimulationDiverged.

    With a spare CPU (_spare_cpu) a forked child makes the run into a
    shared anonymous mmap, sized by _run_grid, while the caller goes on,
    and collect() reaps it. The child hands back its states or nothing:
    exit status 0 means the states are in place. On any other outcome,
    a divergence, another failure or a signal from outside, collect()
    makes the run here, so the run's own SimulationDiverged or other
    exception raises from this process. On leaving the block by an
    exception before collect(), the child is killed and reaped. Without
    a spare CPU the run is made here on entry, and its divergence
    raises from the with statement.
    """
    if not _spare_cpu():
        states = simulate(params, history, t_end, spd).states
        yield lambda: states
        return
    rows = _run_grid(params.s, t_end, spd)[2] + 1
    shared = np.frombuffer(mmap.mmap(-1, 3 * rows * 8)).reshape(rows, 3)
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            shared[:] = simulate(params, history, t_end, spd).states
            status = 0
        finally:
            os._exit(status)

    def collect() -> np.ndarray:
        nonlocal pid
        status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
        pid = None
        return shared if status == 0 else simulate(params, history, t_end, spd).states

    try:
        yield collect
    finally:
        if pid is not None:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)


def _step_error(coarse_spd: int, coarse: np.ndarray, spd: int, fine: np.ndarray) -> float:
    """Richardson estimate of the error of the states of a run at spd
    from those of a run at coarse_spd = spd / k: over the columns c, the
    largest max|fine[::k, c] - coarse[:, c]| / max|fine[:, c]| on their
    common nodes, over k**4 - 1 (RK4's gap there over the finer run's
    error); a column zero in both runs adds nothing. Each run ends at
    the first node at or past t_end, so the coarse one may have a node
    more. Gap and scale are taken a column at a time, so no copy is
    made (a reduction over axis 0 of the rows is several times slower)."""
    k = spd // coarse_spd
    m = min(len(coarse), len(fine[::k]))
    worst, diff = 0.0, np.empty(m)
    for c in range(coarse.shape[1]):
        np.subtract(fine[::k, c][:m], coarse[:m, c], out=diff)
        gap = max(float(diff.max()), -float(diff.min()))
        if gap:
            worst = max(worst, gap / max(float(fine[:, c].max()), -float(fine[:, c].min())))
    return worst / (k ** 4 - 1)


def simulate_distributed(params: ModelParams, history: HistorySpec, t_end: float,
                         steps_per_delay: int) -> Trajectory:
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

    r1, a1, r2, a2, br1, br2, mr, half, sixth = run.rates
    qstep, eighth = 0.5 * h, 0.125 * h
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

    u, v = run.states[0, :2].tolist()
    uv = u * v
    w_cur = run.states[0, 2] = S + w0_tail * uv
    q_seed = None

    for forcing, rows in run.blocks():
        for f1, fm, f4 in forcing:
            if not lagged:
                f1 = br1 * u * v
            k1u = r1 * u * (1.0 - a1 * u) - f1
            k1v = r2 * v * (1.0 - a2 * v) + br2 * w_cur
            if q_seed is not None:
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
            rows.extend((k1u, k1v, u, v, w_cur))
    return run.trajectory()


def fft_period(values, step: float) -> float | None:
    """Dominant period of a uniformly sampled signal, or None if flat.

    Only the newest _fast_length(n) of the n samples are transformed:
    numpy's FFT takes a length with a large prime factor (a run's tail
    of 61,882 = 2*30,941 samples, say) by Bluestein's algorithm, in
    several times the time and with a workspace several times the
    signal. The oldest samples it drops are under 10% of any signal of
    64 samples or more, and under 4% past 10,000. The spectral peak is
    sharpened by parabolic interpolation of the magnitude across the
    peak bin, which recovers off-bin frequencies to far better than one
    bin width.
    """
    x = np.asarray(values, dtype=float)
    if x.ndim != 1 or len(x) < 8:
        return None
    x = x[len(x) - _fast_length(len(x)):]
    size = float(np.abs(x).max())
    x = x - x.mean()
    mag = np.abs(np.fft.rfft(x))
    # k >= 1, and mag[0] is at rounding level after the mean removal, so
    # past the flatness guard, relative to the signal's size, mag[k]
    # tops both neighbours and the vertex stays within half a bin of k
    k = 1 + int(np.argmax(mag[1:]))
    if mag[k] <= 1e-12 * len(x) * size:
        return None
    if k < len(mag) - 1:
        return len(x) * step / (k + float(_vertex_shift(*mag[k - 1:k + 2])))
    return len(x) * step / k


def _fast_length(n: int) -> int:
    """The largest length up to n with no prime factor above 5."""
    best, p2 = 1, 1
    while p2 <= n:
        p3 = p2
        while p3 <= n:
            p5 = p3
            while 5 * p5 <= n:
                p5 *= 5
            best = max(best, p5)
            p3 *= 3
        p2 *= 2
    return best


def _vertex_shift(left, mid, right):
    """Offset from the middle sample to the vertex of the parabola through
    three equally spaced samples, in samples; 0 where they do not bend down."""
    curv = left - 2.0 * mid + right
    return np.where(curv < 0.0, 0.5 * (left - right) / np.where(curv < 0.0, curv, -1.0), 0.0)


def _vertex_extreme(xs: np.ndarray, sign: float) -> np.ndarray:
    """Per column, the largest sample of sign*xs (sign 1 or -1) raised to
    the vertex of the parabola through it and its two neighbours; a
    maximum at either end stays as sampled. Only the samples used are
    multiplied by sign; negation is exact, so sign -1 gives the result
    for -xs without forming -xs."""
    cols = np.arange(xs.shape[1])
    i = xs.argmax(axis=0) if sign > 0.0 else xs.argmin(axis=0)
    j = np.clip(i, 1, len(xs) - 2)
    left, mid, right = (sign * xs[j + d, cols] for d in (-1, 0, 1))
    vertex = mid + 0.25 * (right - left) * _vertex_shift(left, mid, right)
    return np.where(i == j, vertex, sign * xs[i, cols])


def _refined_peak_times(node_time, signal: np.ndarray, peaks: np.ndarray) -> np.ndarray:
    """Peak instants with the sample-grid quantization removed;
    node_time(k) is the time of signal[k].

    A vertex fit through the three samples around each detected maximum
    shifts it by up to half a sample; without this the spacing jitter
    of a coarsely resolved cycle is grid artifact, not rhythm.
    """
    if len(peaks) == 0:
        return node_time(peaks)
    step = node_time(1) - node_time(0)
    shift = _vertex_shift(signal[peaks - 1], signal[peaks], signal[peaks + 1])
    return node_time(peaks) + np.clip(shift, -0.5, 0.5) * step


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
    runs = x[starts]
    top = np.flatnonzero((runs[1:-1] > runs[:-2]) & (runs[1:-1] > runs[2:])) + 1
    # a top run is never the last, so it ends where the next one starts
    peaks = (starts[top] + starts[top + 1] - 1) // 2
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


def _first_node_from(traj: Trajectory, ts):
    """Per entry of ts, the first k with step*k >= t (len(states) if
    none): np.searchsorted(traj.times, ts) without forming the times.
    The quotient's ceiling is off by at most one node either way, and
    each correction makes the same comparison as the search."""
    n, step = len(traj.states), traj.step
    k = np.clip(np.ceil(ts / step), 0, n).astype(np.intp)
    k = k - ((k > 0) & (step * (k - 1) >= ts))
    return k + ((k < n) & (step * k < ts))


def cycle_metrics(traj: Trajectory, equilibrium, transient_fraction: float = 0.5
                  ) -> CycleMetrics:
    """Classify the post-transient window and measure the cycle if any.

    The first transient_fraction of the run is discarded. The deviation
    is max |x_c - e_c| / e_c over the components of the given positive
    equilibrium e. Verdicts, in priority order: ConvergesToEquilibrium
    when the retained deviation stays under 1e-3 with a non-increasing
    chunk envelope; SustainedOscillation when at least 6 peaks of u
    (prominence 1e-6*e_u; 5 full periods) exist with peak spacings
    spread under 1% of their mean and a deviation envelope that neither
    collapses nor keeps growing across the window; Diverges when the
    chunk envelope grows strictly and at least tenfold; Inconclusive
    otherwise. When an oscillation is suspected the retained window
    should cover 10 or more periods, else the verdict is unreliable.

    amplitude is the per-component half peak-to-peak over the retained
    window, each extremum refined to the vertex of the parabola through
    it and its two neighbours, so that the sample grid does not set its
    error; period the mean spacing of the deviation peaks with the
    peak instants refined to sub-sample accuracy. spacing_cv,
    envelope_ratio and max_deviation are the numbers the verdict was
    decided on.

    The window is a view of the states, and no whole-run array is made:
    the deviation is formed one column at a time and node times only at
    the peaks.
    """
    if not 0.0 <= transient_fraction < 1.0:
        raise ValueError(f"transient_fraction must be in [0, 1), got {transient_fraction!r}")
    eq = np.asarray(equilibrium, dtype=float).reshape(3)
    if not (eq > 0.0).all():
        raise ValueError(f"equilibrium components must be positive, got {eq.tolist()!r}")
    first = int(_first_node_from(traj, transient_fraction * traj.t_end))
    xs = traj.states[first:]
    if len(xs) < 32:
        return CycleMetrics(Classification.INCONCLUSIVE, None, None, 0)

    amplitude = 0.5 * (_vertex_extreme(xs, 1.0) + _vertex_extreme(xs, -1.0))
    signal = xs[:, 0] - eq[0]
    dev, col = np.zeros_like(signal), np.empty_like(signal)
    for c in range(3):
        np.abs(np.subtract(xs[:, c], eq[c], out=col), out=col)
        np.maximum(dev, np.divide(col, eq[c], out=col), out=dev)
    env = np.array([c.max() for c in np.array_split(dev, _ENVELOPE_CHUNKS)])
    max_deviation = float(dev.max())
    del dev, col

    peaks = _prominent_peaks(signal, _PEAK_PROMINENCE * eq[0])
    n_periods = max(0, len(peaks) - 1)
    pk_times = _refined_peak_times(lambda k: traj.step * (first + k), signal, peaks)
    spacings = np.diff(pk_times)
    period = float(spacings.mean()) if len(peaks) >= 2 else None
    spacing_cv = float(spacings.std() / spacings.mean()) if len(peaks) >= 3 else None
    envelope_ratio = float(env[-1] / env[0]) if env[0] > 0.0 else None

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
