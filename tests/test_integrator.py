"""Time stepping, dense output, classification, distributed memory."""

import io
import math
import os
import signal
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from infodelay import (
    Classification,
    HistorySpec,
    ModelParams,
    SimulationDiverged,
    Trajectory,
    coexistence,
    cycle_metrics,
    equilibria,
    fft_period,
    simulate,
    simulate_distributed,
    simulate_to_tolerance,
)
import infodelay
from infodelay import integrator
from infodelay.integrator import (_CSV_CHUNK, _MAX_BLOCK, _Run, _first_node_from, _prominent_peaks,
                                  _step_error)
from infodelay.model import State, distributed_w_oracle, reduced_rhs
from conftest import ESTAR, S_STAR, draw_params, make_params, screen_for_flip


def _flat(u, v):
    return HistorySpec.constant(u, v)


# --------------------------------------------------------------------------
# history specification


def test_constant_history_validation():
    with pytest.raises(ValueError, match="finite"):
        HistorySpec.constant(1.0, float("nan"))
    with pytest.raises(ValueError, match="finite"):
        HistorySpec.constant(1.0, 1.0, w0=float("inf"))


def test_sampled_history_validation():
    good_t = [-2.0, -1.0, 0.0]
    good_x = [[1.0, 1.0]] * 3
    HistorySpec.sampled(good_t, good_x)
    with pytest.raises(ValueError, match="increasing"):
        HistorySpec.sampled([-1.0, -1.0, 0.0], good_x)
    with pytest.raises(ValueError, match="shape"):
        HistorySpec.sampled(good_t, [[1.0, 1.0, 1.0]] * 3)
    with pytest.raises(ValueError, match="last sample"):
        HistorySpec.sampled([-2.0, -1.0], [[1.0, 1.0]] * 2)
    with pytest.raises(ValueError, match="two"):
        HistorySpec.sampled([0.0], [[1.0, 1.0]])
    with pytest.raises(ValueError, match="finite"):
        HistorySpec.sampled([-1.0, 0.0], [[1.0, float("nan")]] * 2)


def test_w0_policies():
    p = make_params(2.0)
    hist = HistorySpec.constant(1.01, 0.99)
    traj = simulate(p, hist, 1.0, 50)
    assert traj.states[0, 2] == 1.01 * 0.99 / 6.0

    explicit = HistorySpec.constant(1.01, 0.99, w0=0.3)
    traj2 = simulate(p, explicit, 1.0, 50)
    assert traj2.states[0, 2] == 0.3


def test_history_must_cover_one_delay():
    p = make_params(2.0)
    short = HistorySpec.sampled([-1.0, 0.0], [[1.0, 1.0], [1.0, 1.0]])
    with pytest.raises(ValueError, match="history"):
        simulate(p, short, 1.0, 50)


def test_flat_sampled_history_equals_constant():
    p = make_params(2.0)
    a = simulate(p, _flat(1.01, 0.99), 20.0, 50)
    samples = HistorySpec.sampled([-2.0, -1.0, 0.0], [[1.01, 0.99]] * 3)
    b = simulate(p, samples, 20.0, 50)
    assert np.array_equal(a.states, b.states)


def test_ramp_history_changes_the_run():
    p = make_params(2.0)
    ramp = HistorySpec.sampled([-2.0, 0.0], [[0.9, 1.1], [1.01, 0.99]])
    a = simulate(p, ramp, 20.0, 50)
    b = simulate(p, _flat(1.01, 0.99), 20.0, 50)
    assert not np.allclose(a.states, b.states)


# --------------------------------------------------------------------------
# stepping and dense output


def test_run_argument_validation():
    p = make_params(2.0)
    hist = _flat(1.0, 1.0)
    with pytest.raises(ValueError, match="steps_per_delay"):
        simulate(p, hist, 1.0, 19)
    with pytest.raises(ValueError, match="t_end"):
        simulate(p, hist, 0.0, 50)
    with pytest.raises(ValueError, match="t_end"):
        simulate(p, hist, float("inf"), 50)


def test_node_grid():
    traj = simulate(make_params(2.0), _flat(1.0, 1.0), 10.0, 50)
    assert traj.step == 2.0 / 50
    assert len(traj.states) == 251
    assert traj.times[0] == 0.0
    assert abs(traj.times[-1] - 10.0) < 1e-12


def test_zero_delay_uses_unit_step_base():
    traj = simulate(make_params(0.0), _flat(1.0, 1.0), 1.0, 50)
    assert traj.step == 1.0 / 50


def test_dense_output_hits_nodes_exactly():
    traj = simulate(make_params(2.0), _flat(1.05, 0.95), 10.0, 50)
    assert np.array_equal(traj(traj.times), traj.states)
    with pytest.raises(ValueError, match="outside"):
        traj(-1.0)
    with pytest.raises(ValueError, match="outside"):
        traj(traj.t_end + 1.0)


def test_dense_output_between_nodes():
    # coarse midpoints are fine-grid nodes, so the Hermite interpolant
    # can be checked against actually-computed states
    p = make_params(2.0)
    coarse = simulate(p, _flat(1.05, 0.95), 10.0, 50)
    fine = simulate(p, _flat(1.05, 0.95), 10.0, 100)
    mids = coarse.times[:-1] + 0.5 * coarse.step
    gap = np.abs(coarse(mids) - fine(mids)).max()
    assert gap < 1e-7


def test_dense_output_matches_pointwise_hermite():
    # the vectorized evaluation must reproduce the per-point formula
    # bit for bit away from the nodes
    traj = simulate(make_params(2.0), _flat(1.05, 0.95), 10.0, 50)
    h, y, d = traj.step, traj.states, traj.dense_coeffs
    ts = (np.arange(500) + 0.37) * (traj.t_end / 500)
    for t, row in zip(ts, traj(ts)):
        k = int(math.floor(t / h))
        th = (t - k * h) / h
        om = 1.0 - th
        want = (om * om * (1.0 + 2.0 * th) * y[k] + th * om * om * h * d[k]
                + th * th * (3.0 - 2.0 * th) * y[k + 1] - th * th * om * h * d[k + 1])
        assert np.array_equal(row, want), t


@pytest.mark.parametrize("t0", [0.0, -12.375])
def test_first_node_from_is_the_search_of_the_node_times(t0):
    # the node lookup behind dense output and the cycle window makes the
    # comparison of np.searchsorted(times, t) without forming the times
    rng = np.random.default_rng(20)
    steps = [2.02 / 25, 2.02 / 50, 0.0101, 1.0 / 3.0, *rng.uniform(1e-3, 1.0, 12)]
    for step, rows in zip(steps, rng.integers(2, 5000, len(steps))):
        traj = Trajectory(t0, t0 + step * (rows - 1), step, np.zeros((rows, 3)),
                          np.zeros((rows, 3)))
        times = traj.times
        ts = np.concatenate([times, np.nextafter(times, -np.inf), np.nextafter(times, np.inf),
                             rng.uniform(t0 - step, traj.t_end + step, 1000)])
        assert np.array_equal(_first_node_from(traj, ts), np.searchsorted(times, ts))
        for t in ts[::97].tolist():
            assert int(_first_node_from(traj, t)) == np.searchsorted(times, t)


def _per_step_rk4(p, hist, t_end, spd):
    """Plain per-step RK4 on reduced_rhs with its own Hermite lag list.

    Returns (states, dense rows, divergence time, orthant exit time):
    the arrays are None after a divergence, the times None when the
    event does not happen.
    """
    h = p.s / spd if p.s > 0.0 else 1.0 / spd
    n = max(1, math.ceil(t_end / h - 1e-9))
    half, sixth, eighth = 0.5 * h, h / 6.0, 0.125 * h
    lagged = p.s > 0.0
    hu, hv = hist.at(np.arange(-2 * spd if lagged else 0, 1) * half)
    lag = [State(a, b, 0.0) for a, b in zip(hu.tolist(), hv.tolist())]
    x = State(lag[-1].u, lag[-1].v, hist.initial_w(p))
    states, derivs = [x], []
    left = 0.0 if x.u < 0.0 or x.v < 0.0 else None

    def rhs(y, g):
        return reduced_rhs(y, lag[g] if lagged else y, p)

    def stage(k, c):
        return State(x.u + c * k.u, x.v + c * k.v, x.w + c * k.w)

    for i in range(n):
        k1 = rhs(x, 2 * i)
        if i:
            y0, d0 = states[-2], derivs[-1]
            lag.append(State(0.5 * (y0.u + x.u) + eighth * (d0.u - k1.u),
                             0.5 * (y0.v + x.v) + eighth * (d0.v - k1.v), 0.0))
            lag.append(x)
        derivs.append(k1)
        k2 = rhs(stage(k1, half), 2 * i + 1)
        k3 = rhs(stage(k2, half), 2 * i + 1)
        k4 = rhs(stage(k3, h), 2 * i + 2)
        x = State(*(a + sixth * (b1 + 2.0 * (b2 + b3) + b4)
                    for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)))
        if left is None and (x.u < 0.0 or x.v < 0.0):
            left = (i + 1) * h
        if not all(abs(c) <= 1e6 for c in x):
            return None, None, (i + 1) * h, left
        states.append(x)
    derivs.append(rhs(x, 2 * n))
    return np.array(states), np.array(derivs), None, left


_RAMP = HistorySpec.sampled([-2.0, 0.0], [[0.9, 1.1], [1.01, 0.99]])


@pytest.mark.parametrize("s, hist, t_end, spd", [
    (2.02, _flat(1.01, 0.99), 120.0, 20),
    (2.02, _flat(1.01, 0.99), 120.0, 37),
    (2.02, _flat(1.05, 0.95), 101.3, 50),
    (2.02, _flat(1.05, 0.95), 0.7, 50),
    (0.0, _flat(1.05, 0.95), 250.0, 20),
    (2.0, _RAMP, 60.0, 50),
    (2.0, _flat(1e3, 1e3), 10.0, 50),
    (2.0, _flat(1.0, -0.05), 20.0, 50),
    (0.3, _flat(1.05, 0.95), 2.0, 5000),
], ids=["spd20", "spd37", "partial-last-block", "t_end-below-s", "s0-past-block-cap",
        "ramp-history", "diverging-start", "negative-v-start", "delay-block-past-cap"])
def test_delay_blocks_match_per_step_rk4(s, hist, t_end, spd):
    # the block loop evaluates the same expressions in the same order as
    # a per-step loop, so states, dense rows and event times agree bit for bit
    p = make_params(s)
    want_states, want_derivs, want_time, want_left = _per_step_rk4(p, hist, t_end, spd)
    if want_time is not None:
        with pytest.raises(SimulationDiverged) as exc:
            simulate(p, hist, t_end, spd)
        assert exc.value.time == want_time
        assert exc.value.left_positive_orthant_at == want_left
        return
    traj = simulate(p, hist, t_end, spd)
    assert np.array_equal(traj.states, want_states)
    assert np.array_equal(traj.dense_coeffs, want_derivs)
    assert traj.left_positive_orthant_at == want_left
    if s == 0.0:
        assert len(traj.states) - 1 > _MAX_BLOCK


def test_left_positive_orthant_before_divergence():
    # past the end of the bounded cycle u turns negative about 20 time
    # units before the 1e6 bound trips
    with pytest.raises(SimulationDiverged) as exc:
        simulate(make_params(S_STAR + 0.02), _flat(1.01, 0.99), 700.0, 200)
    left, time = exc.value.left_positive_orthant_at, exc.value.time
    assert left is not None and left < time
    assert abs(left - 605.6) < 0.5 and abs(time - 628.1) < 0.5


def test_sustained_cycle_stays_in_positive_orthant(cycle_run):
    traj, _ = cycle_run
    assert traj.left_positive_orthant_at is None
    assert traj.states[:, :2].min() > 0.0


def _special_trajectory(rows):
    rng = np.random.default_rng(rows)
    states = rng.normal(size=(rows, 3)) * 10.0 ** rng.integers(-3, 6, size=(rows, 3))
    states[0] = (-0.0, 5e-324, -1e5 * math.pi)
    states[-1, 1:] = (-2.2250738585072014e-308 / 3.0, 123456.789)
    return Trajectory(t0=-12.375, t_end=-12.375 + 0.0101 * (rows - 1), step=0.0101,
                      states=states, dense_coeffs=np.zeros_like(states))


def _savetxt_bytes(traj, tmp_path):
    np.savetxt(tmp_path / "savetxt.csv", np.column_stack([traj.times, traj.states]),
               fmt="%.17g", delimiter=",", header="t,u,v,w", comments="")
    return (tmp_path / "savetxt.csv").read_bytes()


@pytest.mark.parametrize("rows", [1, _CSV_CHUNK - 1, _CSV_CHUNK, _CSV_CHUNK + 1])
def test_to_csv_matches_savetxt(tmp_path, rows):
    traj = _special_trajectory(rows)
    traj.to_csv(tmp_path / "chunked.csv")
    assert (tmp_path / "chunked.csv").read_bytes() == _savetxt_bytes(traj, tmp_path)


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_failed_to_csv_leaves_the_older_file(tmp_path, monkeypatch, error):
    raised, written, write_rows = error("write failed"), [], Trajectory._write_rows

    def fail_after_first_chunk(self, fh):
        write_rows(replace(self, states=self.states[:_CSV_CHUNK]), fh)
        written.append((fh.tell(), sorted(p.name for p in tmp_path.iterdir())))
        raise raised

    monkeypatch.setattr(Trajectory, "_write_rows", fail_after_first_chunk)
    path = tmp_path / "traj.csv"
    path.write_text("older run\n")
    with pytest.raises(error) as caught:
        _special_trajectory(3 * _CSV_CHUNK).to_csv(path)
    assert caught.value is raised
    # the first chunk went to a hidden temp file, which is gone again
    (size, names), = written
    assert size > len("t,u,v,w\n") and len(names) == 2 and names[0].startswith(".traj.csv.")
    assert [p.name for p in tmp_path.iterdir()] == ["traj.csv"]
    assert path.read_text() == "older run\n"


def test_to_csv_replaces_an_existing_file_with_a_fresh_one(tmp_path):
    path = tmp_path / "traj.csv"
    path.write_text("old\n")
    path.chmod(0o600)
    mask = os.umask(0o027)
    try:
        traj = _special_trajectory(10)
        traj.to_csv(path)
    finally:
        os.umask(mask)
    assert path.read_bytes() == _savetxt_bytes(traj, tmp_path)
    assert path.stat().st_mode & 0o777 == 0o640


def _percent_g_mismatches(values, step):
    """The fields of the CSV rows of a trajectory holding values, three to
    a row after the t column of the given step, that differ from
    '%.17g' % v, as (want, got) pairs."""
    states = np.resize(values, (-(-len(values) // 3), 3))
    traj = Trajectory(0.0, step * (len(states) - 1), step, states, np.zeros_like(states))
    buf = io.BytesIO()
    traj._write_rows(buf)
    got = buf.getvalue().decode().replace("\n", ",").split(",")[:-1]
    want = ["%.17g" % v for v in np.column_stack([traj.times, states]).ravel().tolist()]
    assert len(got) == len(want)
    return [(w, g) for w, g in zip(want, got) if w != g]


def test_row_formatter_matches_percent_g(tmp_path):
    rng = np.random.default_rng(14)
    # random bit patterns of both signs with |x| in [1e-4, 1e17), where
    # %.17g prints fixed notation
    bits = rng.integers(np.float64(1e-4).view(np.int64), np.float64(1e17).view(np.int64),
                        200_000)
    drawn = bits.view(np.float64) * rng.choice([-1.0, 1.0], len(bits))
    # ±0, both ends of that range, ±40 ulp around each power of ten from
    # 1e-4 to 1e16, and the decimal just below each power
    near = (10.0 ** np.arange(-4, 17)).view(np.int64)[:, None] + np.arange(-40, 41)
    edges = [0.0, -0.0, 1e-4, np.nextafter(1e17, 0.0)] + [
        float(f"9.9999999999999995e{k}") for k in range(-4, 17)]
    # exact ties N/4 in [1e15, 2^51): 17 digits end one place after the
    # dot, at .25 or .75, and must round half to even
    ties = (2 * rng.integers(2 * 10 ** 15, 2 ** 52, 20_000) + 1) / 4.0
    assert ["%.17g" % v for v in (1e15 + 0.25, 1e15 + 0.75)] == [
        "1000000000000000.2", "1000000000000000.8"]
    values = np.concatenate([drawn, near.ravel().view(np.float64), edges, ties])
    values = np.concatenate([values, -values])
    # the t column walks the grids k*h of the reference run and of h = 0.04
    for step in (0.0101, 0.04):
        assert _percent_g_mismatches(values, step) == []

    # fast values mixed with ones that print in exponent form, subnormals,
    # infinities and nan, in every column
    states = rng.uniform(0.05, 1.5, (3001, 3))
    specials = [5e-324, -1e-300, 1e-5, 1e17, 1e300, math.inf, -math.inf, math.nan]
    states.flat[rng.choice(states.size, 300, replace=False)] = rng.choice(specials, 300)
    traj = Trajectory(0.0, 0.04 * 3000, 0.04, states, np.zeros_like(states))
    traj.to_csv(tmp_path / "mixed.csv")
    assert (tmp_path / "mixed.csv").read_bytes() == _savetxt_bytes(traj, tmp_path)


def test_csv_round_trip(tmp_path):
    traj = simulate(make_params(2.0), _flat(1.05, 0.95), 5.0, 50)
    path = tmp_path / "traj.csv"
    traj.to_csv(path)
    text = path.read_text().splitlines()
    assert text[0] == "t,u,v,w"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert np.array_equal(data[:, 1:], traj.states)
    assert np.allclose(data[:, 0], traj.times, atol=1e-15)


def test_fourth_order_convergence():
    # halving the step must shrink the error by about 2^4
    p = make_params(2.0)
    hist = _flat(1.05, 0.95)
    ref = simulate(p, hist, 40.0, 320)
    errs = []
    for spd in (40, 80):
        traj = simulate(p, hist, 40.0, spd)
        stride = 320 // spd
        errs.append(np.abs(traj.states - ref.states[::stride]).max())
    ratio = errs[0] / errs[1]
    assert 12.0 < ratio < 20.0, f"error ratio {ratio:.2f} not near 16"


def test_equilibria_are_fixed_points_of_the_flow():
    # zero delay: every equilibrium must hold still under integration
    p = make_params(0.0)
    for eq in equilibria(p):
        pt = eq.point
        traj = simulate(p, _flat(pt.u, pt.v), 50.0, 50)
        drift = np.abs(traj.states - np.asarray(pt)).max()
        assert drift < 1e-9, (eq.label, drift)


def test_coexistence_holds_under_delay():
    traj = simulate(make_params(2.0), _flat(ESTAR[0], ESTAR[1]), 200.0, 100)
    assert np.abs(traj.states - ESTAR).max() < 1e-11


def test_divergence_guard_reports_time():
    p = make_params(2.0)
    with pytest.raises(SimulationDiverged) as exc:
        simulate(p, _flat(1e3, 1e3), 10.0, 50)
    assert 0.0 < exc.value.time < 1.0
    assert exc.value.steps_per_delay == 50


def test_step_ladder_keeps_the_spd_50_run():
    p, hist = make_params(2.0), _flat(1.05, 0.95)
    kept = simulate_to_tolerance(p, hist, 30.0)
    x25 = simulate(p, hist, 30.0, 25).states
    direct = simulate(p, hist, 30.0, 50)
    assert (kept.steps_per_delay, kept.step, kept.t_end) == (50, direct.step, direct.t_end)
    assert np.array_equal(kept.states, direct.states)
    assert np.array_equal(kept.dense_coeffs, direct.dense_coeffs)
    assert kept.step_error_estimate == _step_error(25, x25, 50, direct.states) <= 1e-6
    # a run simulate makes on its own records its spd and no estimate
    assert direct.steps_per_delay == 50 and direct.step_error_estimate is None


def test_step_ladder_raises_the_top_rungs_divergence():
    # spd 25 diverges, so the run is the one simulate makes at spd 200
    with pytest.raises(SimulationDiverged) as exc:
        simulate_to_tolerance(make_params(2.0), _flat(1e3, 1e3), 10.0)
    with pytest.raises(SimulationDiverged) as spd200:
        simulate(make_params(2.0), _flat(1e3, 1e3), 10.0, 200)
    assert exc.value.steps_per_delay == 200
    assert exc.value.time == spd200.value.time


def _traced_peak(fn, *args) -> int:
    """How far traced memory rose above its level at the call of fn(*args)."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn(*args)
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("stage, bound", [
    ("simulate", 2.2), ("cycle_metrics", 1.1), ("_step_error", 0.4), ("traj(t)", 0.05),
])
def test_working_memory_is_bounded_by_the_states(stage, bound):
    # a run holds its states and dense rows plus one delay of lag, and
    # the stages after it copy no whole run (dense output at one point
    # forms no node times); bounds in states.nbytes
    p, hist = make_params(2.02), _flat(1.01, 0.99)
    traj = simulate(p, hist, 1000.0, 50)
    calls = {
        "simulate": (simulate, p, hist, 1000.0, 50),
        "cycle_metrics": (cycle_metrics, traj, ESTAR),
        "_step_error": (_step_error, 25, simulate(p, hist, 1000.0, 25).states, 50, traj.states),
        "traj(t)": (traj, 537.37),
    }
    assert _traced_peak(*calls[stage]) <= bound * traj.states.nbytes


# the four ways the ladder ends: (params, start, t_end, kept spd or None
# where the run raises)
_LADDER_ENDS = {
    "reference keeps spd 50": (make_params(2.02), (1.01, 0.99), 5000.0, 50),
    "reference to t_end 10000 keeps spd 100": (make_params(2.02), (1.01, 0.99), 10000.0, 100),
    "stiff keeps spd 200 without an estimate": (
        make_params(2.0, mu=100.0), (1.05, 0.95), 30.0, 200),
    "diverging start raises at spd 200": (make_params(2.0), (1e3, 1e3), 10.0, None),
}


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """One entry per os.fork call this process makes."""
    calls, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: calls.append(1) or fork())
    return calls


def _ladder_end(path, params, start, t_end):
    """The ladder's kept run and its CSV bytes, or its SimulationDiverged."""
    try:
        kept = simulate_to_tolerance(params, _flat(*start), t_end)
    except SimulationDiverged as exc:
        return exc, None
    kept.to_csv(path)
    return kept, path.read_bytes()


@pytest.mark.parametrize("params, start, t_end, spd", list(_LADDER_ENDS.values()),
                         ids=list(_LADDER_ENDS))
def test_forked_rung_gives_the_in_process_ladder(tmp_path, monkeypatch, forks, params, start,
                                                 t_end, spd):
    ends = []
    for forked in (False, True):
        monkeypatch.setattr(integrator, "_spare_cpu", lambda: forked)
        ends.append(_ladder_end(tmp_path / f"{forked}.csv", params, start, t_end))
        assert len(forks) == forked
    _assert_no_child_left()
    (here, here_csv), (aside, aside_csv) = ends
    if spd is None:
        assert isinstance(here, SimulationDiverged) and isinstance(aside, SimulationDiverged)
        assert here.steps_per_delay == aside.steps_per_delay == 200
        assert (here.time, here.left_positive_orthant_at) == (
            aside.time, aside.left_positive_orthant_at)
        return
    assert here.steps_per_delay == aside.steps_per_delay == spd
    assert here.step_error_estimate == aside.step_error_estimate
    assert (here.step_error_estimate is None) == (spd == 200)
    assert np.array_equal(here.states, aside.states)
    assert np.array_equal(here.dense_coeffs, aside.dense_coeffs)
    assert here_csv == aside_csv


def _interrupted_at_spd_50(params, history, t_end, spd):
    if spd == 50:
        raise KeyboardInterrupt
    return simulate(params, history, t_end, spd)


def _fails_at_spd_25(params, history, t_end, spd):
    if spd == 25:
        raise ValueError("the forked rung fails")
    return simulate(params, history, t_end, spd)


@pytest.mark.parametrize("start, rungs, raised", [
    ((1.01, 0.99), simulate, None),
    ((1e3, 1e3), simulate, SimulationDiverged),
    ((1.01, 0.99), _interrupted_at_spd_50, KeyboardInterrupt),
    ((1.01, 0.99), _fails_at_spd_25, ValueError),
], ids=["return", "divergence", "interrupt in spd 50", "failed child"])
def test_no_forked_rung_outlives_the_ladder(monkeypatch, forks, start, rungs, raised):
    monkeypatch.setattr(integrator, "_spare_cpu", lambda: True)
    monkeypatch.setattr(integrator, "simulate", rungs)
    if raised is None:
        assert simulate_to_tolerance(make_params(2.02), _flat(*start), 300.0).steps_per_delay == 50
    else:
        # spd 25 runs to t_end 5000 in the child, long after spd 50 is interrupted
        with pytest.raises(raised) as exc:
            simulate_to_tolerance(make_params(2.02), _flat(*start), 5000.0)
        if raised is ValueError:
            # the failed rung is run again here and raises its own exception
            assert str(exc.value) == "the forked rung fails"
    assert forks == [1]
    _assert_no_child_left()


def test_killed_forked_rung_is_run_here(monkeypatch, forks):
    # a child killed from outside (say by the OOM killer) leaves its rung
    # to this process, and the ladder ends as it does in process
    p, hist, parent = make_params(2.02), _flat(1.01, 0.99), os.getpid()

    def killed_in_the_child(params, history, t_end, spd):
        if spd == 25 and os.getpid() != parent:
            os.kill(os.getpid(), signal.SIGKILL)
        return simulate(params, history, t_end, spd)

    monkeypatch.setattr(integrator, "_spare_cpu", lambda: False)
    here = simulate_to_tolerance(p, hist, 300.0)
    monkeypatch.setattr(integrator, "_spare_cpu", lambda: True)
    monkeypatch.setattr(integrator, "simulate", killed_in_the_child)
    aside = simulate_to_tolerance(p, hist, 300.0)
    assert here.steps_per_delay == aside.steps_per_delay == 50
    assert here.step_error_estimate == aside.step_error_estimate is not None
    assert np.array_equal(here.states, aside.states)
    assert forks == [1]
    _assert_no_child_left()


# --------------------------------------------------------------------------
# settle / oscillate behavior at the reference point


def test_settles_below_first_crossing(settle_run):
    traj, metrics = settle_run
    assert metrics.classification is Classification.CONVERGES
    assert np.abs(traj.states[-1] - ESTAR).max() < 1e-3


def test_oscillates_above_first_crossing(cycle_run):
    traj, metrics = cycle_run
    assert metrics.classification is Classification.SUSTAINED
    assert abs(metrics.amplitude[0] - 0.44497634) < 1e-4
    assert abs(metrics.period - 34.3602) < 1e-3
    assert metrics.n_periods_measured == 72


# --------------------------------------------------------------------------
# distributed-memory integrator


def test_distributed_holds_coexistence_point():
    traj = simulate_distributed(make_params(2.0), _flat(ESTAR[0], ESTAR[1]),
                                50.0, 400)
    assert np.abs(traj.states - ESTAR).max() < 1e-4


def test_distributed_holds_rescaled_coexistence_point():
    # doubling mu + r moves the equilibrium; the quadrature must hold
    # the new one just as well
    p = make_params(2.0, mu=8.0)
    est = coexistence(p)
    assert est.exists
    traj = simulate_distributed(p, _flat(est.point.u, est.point.v), 30.0, 400)
    assert np.abs(traj.states - np.asarray(est.point)).max() < 1e-4


def test_distributed_matches_lumped_memory(reduction_pair):
    lumped, distributed = reduction_pair
    assert lumped.states.shape == distributed.states.shape
    gap = np.abs(lumped.states[:, :2] - distributed.states[:, :2]).max()
    assert gap < 1e-4


def test_distributed_ignores_w0_policy():
    p = make_params(2.0)
    a = simulate_distributed(p, HistorySpec.constant(1.01, 0.99), 5.0, 100)
    b = simulate_distributed(p, HistorySpec.constant(1.01, 0.99, w0=0.5),
                             5.0, 100)
    assert np.array_equal(a.states, b.states)


# the direct quadrature truncates the memory kernel once it has decayed
# below exp(-30)
_KERNEL_SPAN = 30.0


def _direct_quadrature(p, hist, t_end, spd):
    """simulate_distributed with the memory sum formed by a dot product
    over a window truncated at exp(-30) at every RK stage that needs it.

    Returns a Trajectory, or the SimulationDiverged it would raise.
    """
    run = _Run(p, hist, t_end, spd)
    lagged, h, n = run.lagged, run.h, run.n
    r1, a1, r2, a2 = p.r1, p.a1, p.r2, p.a2
    br1, br2, mr = p.b1 * p.r1, p.b2 * p.r2, p.mu + p.r
    qstep = 0.5 * h
    ns = int(math.ceil(_KERNEL_SPAN / (mr * qstep)))
    tw = np.full(ns + 1, qstep)
    tw[0] = tw[-1] = 0.5 * qstep
    wk = tw * np.exp(-mr * qstep * np.arange(ns + 1))
    wk_past = np.ascontiguousarray(wk[:0:-1])
    w0_tail = float(wk[0])
    # products u*v at spacing qstep; index g <-> time (g - ns)*qstep
    q = np.empty(ns + 2 * n + 1)
    qu, qv = hist.at(np.arange(-ns, 1) * qstep)
    q[:ns + 1] = qu * qv
    half, sixth, eighth = 0.5 * h, h / 6.0, 0.125 * h
    u, v = run.states[0, :2].tolist()
    w_cur = run.states[0, 2] = float(wk_past @ q[0:ns]) + w0_tail * q[ns]
    for i0, forcing, rows in run.blocks():
        for i, (f1, fm, f4) in enumerate(forcing, i0):
            base = ns + 2 * i
            if not lagged:
                f1 = br1 * u * v
            sn = float(wk_past @ q[2 * i: 2 * i + ns])
            k1u = r1 * u * (1.0 - a1 * u) - f1
            k1v = r2 * v * (1.0 - a2 * v) + br2 * (sn + w0_tail * u * v)
            k1w = u * v - mr * w_cur
            if i:
                um = 0.5 * (pu + u) + eighth * (pku - k1u)
                vm = 0.5 * (pv + v) + eighth * (pkv - k1v)
                q[base - 1] = um * vm
            pu, pv, pku, pkv = u, v, k1u, k1v
            sh = float(wk_past @ q[2 * i + 1: 2 * i + 1 + ns])
            u2, v2 = u + half * k1u, v + half * k1v
            if not lagged:
                fm = br1 * u2 * v2
            k2u = r1 * u2 * (1.0 - a1 * u2) - fm
            k2v = r2 * v2 * (1.0 - a2 * v2) + br2 * (sh + w0_tail * u2 * v2)
            u3, v3 = u + half * k2u, v + half * k2v
            if not lagged:
                fm = br1 * u3 * v3
            k3u = r1 * u3 * (1.0 - a1 * u3) - fm
            k3v = r2 * v3 * (1.0 - a2 * v3) + br2 * (sh + w0_tail * u3 * v3)
            q[base + 1] = 0.5 * (u2 * v2 + u3 * v3)
            sn1 = float(wk_past @ q[2 * i + 2: 2 * i + 2 + ns])
            u4, v4 = u + h * k3u, v + h * k3v
            if not lagged:
                f4 = br1 * u4 * v4
            k4u = r1 * u4 * (1.0 - a1 * u4) - f4
            k4v = r2 * v4 * (1.0 - a2 * v4) + br2 * (sn1 + w0_tail * u4 * v4)
            u += sixth * (k1u + 2.0 * (k2u + k3u) + k4u)
            v += sixth * (k1v + 2.0 * (k2v + k3v) + k4v)
            q[base + 2] = u * v
            w_cur = sn1 + w0_tail * u * v
            rows.extend((k1u, k1v, k1w, u, v, w_cur))
            if not (abs(u) <= 1e6 and abs(v) <= 1e6 and abs(w_cur) <= 1e6):
                return run.diverged(i0, rows)
    return run.trajectory()


@pytest.mark.parametrize("s, hist, t_end, spd, overrides", [
    (2.0, _flat(1.01, 0.99), 50.0, 400, {}),
    (0.0, _flat(1.05, 0.95), 250.0, 20, {}),
    (2.0, _RAMP, 60.0, 50, {}),
    (2.02, _flat(1.05, 0.95), 101.3, 37, {}),
    (3.0, _flat(1.01, 0.99), 20.0, 20, {"mu": 8.0}),
    (2.0, _flat(1e3, 1e3), 10.0, 50, {}),
], ids=["reference-pair", "s0", "clamped-ramp-history", "spd37-partial-last-block",
        "window-shorter-than-block", "diverging-start"])
def test_memory_recurrence_matches_direct_quadrature(s, hist, t_end, spd, overrides):
    # the recurrence carries the untruncated trapezoid sum; the dot
    # product over the truncated window differs from it by about e^-30
    # relative plus rounding
    p = make_params(s, **overrides)
    want = _direct_quadrature(p, hist, t_end, spd)
    if isinstance(want, SimulationDiverged):
        with pytest.raises(SimulationDiverged) as exc:
            simulate_distributed(p, hist, t_end, spd)
        assert exc.value.time == want.time
        assert exc.value.left_positive_orthant_at == want.left_positive_orthant_at
        return
    got = simulate_distributed(p, hist, t_end, spd)
    assert got.states.shape == want.states.shape
    assert np.abs(got.states - want.states).max() <= 1e-10
    assert np.abs(got.dense_coeffs - want.dense_coeffs).max() <= 1e-10
    assert got.left_positive_orthant_at == want.left_positive_orthant_at
    if overrides:  # the mu = 8 window spans fewer half-steps than one block
        ns = math.ceil(_KERNEL_SPAN / ((p.mu + p.r) * 0.5 * got.step))
        assert ns < 2 * spd


def _oracle_w0(p, hist, qstep):
    """distributed_w_oracle on the history sampled at qstep back to 40/(mu+r)."""
    n = math.ceil(40.0 / ((p.mu + p.r) * qstep))
    times = np.arange(-n, 1) * qstep
    u, v = hist.at(times)
    return distributed_w_oracle(times, u, v, p).value


_T20 = np.linspace(-20.0, 0.0, 81)


@pytest.mark.parametrize("hist", [
    HistorySpec.sampled(_T20, np.column_stack([1.0 + 0.1 * np.sin(_T20), 0.9 + 0.005 * _T20])),
    _flat(1.05, 0.95),
], ids=["sampled-from-minus-20", "constant"])
def test_distributed_w0_on_slow_kernel(hist):
    # e-fold time 10: a history reaching back to t = -20 leaves about
    # e^-2 of the kernel's weight to the clamped value before it
    p = make_params(2.0, mu=0.0, r=0.1)
    traj = simulate_distributed(p, hist, 1.0, 20)
    qstep = 0.5 * traj.step
    w0 = traj.states[0, 2]
    assert abs(w0 - _oracle_w0(p, hist, qstep)) <= 1e-12 * abs(w0)
    if len(hist.sample_times) == 1:
        u0, v0 = hist.sample_values[0]
        E = math.exp(-(p.mu + p.r) * qstep)
        closed = qstep * u0 * v0 * (0.5 + E / (1.0 - E))
        assert abs(w0 - closed) <= 1e-12 * abs(w0)


# --------------------------------------------------------------------------
# classification of synthetic signals


def _synthetic(times, u, eq=1.0):
    states = np.column_stack([u, np.full_like(u, eq), np.full_like(u, eq)])
    return Trajectory(t0=float(times[0]), t_end=float(times[-1]),
                      step=float(times[1] - times[0]), states=states,
                      dense_coeffs=np.zeros_like(states))


def test_metrics_converged_signal():
    t = np.arange(0.0, 1000.0, 0.5)
    u = 1.0 + 1e-5 * np.exp(-t / 100.0) * np.sin(t)
    m = cycle_metrics(_synthetic(t, u), (1.0, 1.0, 1.0))
    assert m.classification is Classification.CONVERGES


def test_metrics_sustained_signal():
    t = np.arange(0.0, 1000.0, 0.5)
    u = 1.0 + 0.3 * np.sin(2 * np.pi * t / 17.0)
    m = cycle_metrics(_synthetic(t, u), (1.0, 1.0, 1.0))
    assert m.classification is Classification.SUSTAINED
    assert abs(m.amplitude[0] - 0.3) < 5e-3
    assert abs(m.period - 17.0) < 0.2
    assert m.n_periods_measured >= 20
    assert m.spacing_cv < 0.01
    assert 0.5 <= m.envelope_ratio <= 4.0
    assert abs(m.max_deviation - 0.3) < 5e-3


def test_metrics_amplitude_is_refined_off_the_sample_grid():
    # at 34 samples per period the sampled peaks of 0.3*sin fall up to
    # 1.3e-3 short; the parabola through each extremum and its two
    # neighbours leaves under 1e-5
    t = np.arange(0.0, 1000.0, 0.5)
    u = 1.0 + 0.3 * np.sin(2 * np.pi * t / 17.0)
    kept = u[t >= 500.0]
    assert 0.3 - 0.5 * (kept.max() - kept.min()) > 1e-3
    m = cycle_metrics(_synthetic(t, u), (1.0, 1.0, 1.0))
    assert abs(m.amplitude[0] - 0.3) < 1e-5
    # extrema at the window's ends, and flat columns, stay as sampled
    u = 1.0 + 0.002 + 1e-4 * t / 1000.0
    m = cycle_metrics(_synthetic(t, u), (1.0, 1.0, 1.0))
    assert m.amplitude[0] == 0.5 * (u[-1] - u[t >= 500.0][0])
    assert m.amplitude[1] == m.amplitude[2] == 0.0


def test_metrics_growing_signal():
    t = np.arange(0.0, 1000.0, 0.5)
    u = 1.0 + 1e-3 * np.exp(t / 100.0) * np.sin(2 * np.pi * t / 17.0)
    m = cycle_metrics(_synthetic(t, u), (1.0, 1.0, 1.0))
    assert m.classification is Classification.DIVERGES
    assert m.envelope_ratio >= 10.0


def test_metrics_drifting_signal_is_inconclusive():
    t = np.arange(0.0, 1000.0, 0.5)
    u = 1.0 + 0.002 + 1e-4 * t / 1000.0
    m = cycle_metrics(_synthetic(t, u), (1.0, 1.0, 1.0))
    assert m.classification is Classification.INCONCLUSIVE
    # the evidence says why: no peaks, too far out to have settled, and
    # an envelope that creeps up too slowly to count as diverging
    assert m.spacing_cv is None and m.n_periods_measured == 0
    assert m.max_deviation >= 1e-3
    assert 1.0 < m.envelope_ratio < 10.0


def test_metrics_short_window_is_inconclusive():
    t = np.arange(0.0, 10.0, 0.5)
    u = 1.0 + 0.3 * np.sin(t)
    m = cycle_metrics(_synthetic(t, u), (1.0, 1.0, 1.0))
    assert m.classification is Classification.INCONCLUSIVE
    assert m.amplitude is None and m.period is None
    assert m.n_periods_measured == 0
    assert m.spacing_cv is None and m.envelope_ratio is None and m.max_deviation is None


def test_metrics_transient_fraction_validation(settle_run):
    traj, _ = settle_run
    with pytest.raises(ValueError, match="transient_fraction"):
        cycle_metrics(traj, ESTAR, transient_fraction=1.0)
    with pytest.raises(ValueError, match="transient_fraction"):
        cycle_metrics(traj, ESTAR, transient_fraction=-0.1)


def test_peaks_match_scipy_find_peaks():
    # small-integer signals make ties, plateaus and end maxima common
    find_peaks = pytest.importorskip("scipy.signal").find_peaks
    rng = np.random.default_rng(7)
    for trial in range(3000):
        n = int(rng.integers(3, 60))
        if trial % 3 == 0:
            x = rng.normal(size=n)
        else:
            x = rng.integers(0, 1 + trial % 5, size=n).astype(float)
        for prominence in (0.0, 1e-6, 1.0, 2.5):
            want, _ = find_peaks(x, prominence=prominence)
            got = _prominent_peaks(x, prominence)
            assert np.array_equal(got, want), (x.tolist(), prominence, got, want)


def test_import_leaves_scipy_out():
    src = str(Path(infodelay.__file__).resolve().parents[1])
    code = (f"import sys; sys.path.insert(0, {src!r}); import infodelay; "
            "print('scipy' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "False"


def test_fft_period_recovers_off_bin_frequency():
    step = 0.5
    t = np.arange(0.0, 2048.0, step)
    got = fft_period(np.sin(2 * np.pi * t / 17.3), step)
    assert abs(got - 17.3) / 17.3 < 0.01


def test_fft_period_flat_and_short_signals():
    assert fft_period(np.zeros(100), 0.5) is None
    assert fft_period(np.ones(100), 0.5) is None
    assert fft_period(np.ones(7), 0.5) is None


# --------------------------------------------------------------------------
# the delay switch flips stability in the full nonlinear system


def test_stability_flip_across_first_crossing():
    # ten admissible random parameter sets; integrate just below and
    # just above the first crossing and demand the settle/escape split.
    # Below: the 1 percent kick decays back (classified as convergence
    # over the last quarter of a run sized by the predicted decay rate).
    # Above: the deviation grows past ten times the kick, or the run
    # diverges outright.
    rng = np.random.default_rng(0)
    picked, tried = [], 0
    while len(picked) < 10 and tried < 2000:
        tried += 1
        p = draw_params(rng)
        got = screen_for_flip(p)
        if got is not None:
            picked.append((p, *got))
    assert len(picked) == 10, f"only {len(picked)} admissible draws in {tried}"

    for p, est, nf in picked:
        sb, om, ch1 = nf.s_star, nf.omega_star, nf.chi1
        delta = 0.05 * sb
        rate = delta * ch1 / sb
        t_end = max(20 * 2 * np.pi / om, 9.0 / rate)
        eq = np.asarray(est.point)
        dev0 = 0.01 * max(eq[0], eq[1])
        hist = HistorySpec.constant(1.01 * eq[0], 0.99 * eq[1])
        kw = {f: getattr(p, f) for f in ("r1", "r2", "a1", "a2", "b1", "b2",
                                         "mu", "r")}
        for ds in (-2 * delta, -delta):
            tr = simulate(ModelParams(**kw, s=sb + ds), hist, t_end, 40)
            m = cycle_metrics(tr, eq, transient_fraction=0.75)
            assert m.classification is Classification.CONVERGES, \
                (kw, sb + ds, m.classification)
        for ds in (delta, 2 * delta):
            try:
                tr = simulate(ModelParams(**kw, s=sb + ds), hist, t_end, 40)
                escaped = bool(np.abs(tr.states - eq).max() >= 10 * dev0)
            except SimulationDiverged:
                escaped = True
            assert escaped, (kw, sb + ds)
