"""Equilibria, existence predicate, zero-delay verdicts, memory oracle."""

import importlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import infodelay
from infodelay import (
    EquilibriumLabel,
    HistorySpec,
    ModelParams,
    ParamGrid,
    Stability,
    State,
    coexistence,
    equilibria,
    params_valid,
    reduced_rhs,
    simulate_distributed,
)
from infodelay.model import _PARAM_FIELDS, coexistence_points
from infodelay.stability import _coeffs_at, _jacobian
from conftest import ESTAR, distributed_w_oracle, make_params

_f = dict(allow_nan=False, allow_infinity=False)


@st.composite
def wide_params(draw):
    """Parameter draws that cross every branch of the existence predicate."""
    return ModelParams(
        r1=draw(st.floats(0.1, 1.0, **_f)),
        r2=draw(st.floats(0.1, 1.0, **_f)),
        a1=draw(st.floats(0.01, 0.3, **_f)),
        a2=draw(st.floats(0.5, 1.5, **_f)),
        b1=draw(st.floats(0.0, 2.0, **_f)),
        b2=draw(st.floats(-1.0, 1.0, **_f)),
        mu=draw(st.floats(0.1, 3.0, **_f)),
        r=draw(st.floats(0.1, 5.0, **_f)),
        s=draw(st.floats(0.0, 5.0, **_f)),
    )


def test_reference_equilibria():
    eqs = equilibria(make_params(2.0))
    assert [e.label for e in eqs] == [EquilibriumLabel.E0, EquilibriumLabel.E1,
                                      EquilibriumLabel.E2, EquilibriumLabel.ESTAR]
    assert eqs[0].point == State(0.0, 0.0, 0.0)
    assert eqs[1].point == State(1.0 / 0.05, 0.0, 0.0)
    assert eqs[2].point == State(0.0, 1.0 / 1.045, 0.0)
    est = eqs[3]
    assert est.exists
    assert np.max(np.abs(np.asarray(est.point) - ESTAR)) < 1e-12


def test_coexistence_matches_equilibria_entry():
    p = make_params(1.0)
    assert coexistence(p) == equilibria(p)[3]


def test_boundary_verdicts():
    eqs = equilibria(make_params(2.0))
    assert eqs[0].local_stability is Stability.UNSTABLE
    # mu + r + b2/a1 = 6 + 5.4 > 0, so the v-direction at E1 is expansive
    assert eqs[1].local_stability is Stability.UNSTABLE
    # b1 < a2 here, so E2 sheds the u-direction
    assert eqs[2].local_stability is Stability.UNSTABLE
    assert eqs[3].local_stability is Stability.UNDETERMINED


def test_e1_verdict_needs_sign_of_shifted_rate():
    # mu + r + b2/a1 = 6 - 7 < 0: linearisation at E1 is inconclusive here
    p = make_params(1.0, a1=0.1, b2=-0.7)
    assert equilibria(p)[1].local_stability is Stability.UNDETERMINED


def test_e2_verdict_flips_at_b1_equals_a2():
    below = make_params(1.0, b1=1.044)
    at = make_params(1.0, b1=1.045)
    above = make_params(1.0, b1=1.046)
    assert equilibria(below)[2].local_stability is Stability.UNSTABLE
    assert equilibria(at)[2].local_stability is Stability.UNDETERMINED
    assert equilibria(above)[2].local_stability is Stability.STABLE


@given(wide_params())
@settings(max_examples=200)
def test_existence_predicate(p):
    mr = p.mu + p.r
    expected = (p.b1 < p.a2) and (p.a1 * p.a2 * mr > max(-p.b1 * p.b2,
                                                         -p.a2 * p.b2))
    assert coexistence(p).exists == expected


@given(wide_params())
@settings(max_examples=200)
def test_coexistence_point_is_a_fixed_point(p):
    est = coexistence(p)
    assume(est.exists)
    rhs = reduced_rhs(est.point, est.point, p)
    scale = 1.0 + max(abs(x) for x in est.point)
    assert max(abs(x) for x in rhs) < 1e-9 * scale


def test_degenerate_denominator_gives_no_point():
    # a1*a2*(mu+r) = 0.5 and b1*b2 = -0.5 cancel exactly
    p = ModelParams(r1=0.5, r2=0.5, a1=0.1, a2=1.0, b1=0.5, b2=-1.0,
                    mu=1.0, r=4.0, s=1.0)
    est = coexistence(p)
    assert not est.exists
    assert all(math.isnan(x) for x in est.point)


def test_param_validation_names_offending_field():
    for field, value in [("r1", 0.0), ("r2", -1.0), ("a1", 0.0),
                         ("a2", -0.5), ("r", 0.0), ("mu", -0.1),
                         ("s", -1.0), ("b1", float("nan")),
                         ("mu", float("inf"))]:
        kw = dict(r1=0.5, r2=0.5, a1=0.05, a2=1.0, b1=0.5, b2=0.3,
                  mu=2.0, r=4.0, s=1.0)
        kw[field] = value
        with pytest.raises(ValueError, match=field):
            ModelParams(**kw)


def test_params_valid_applies_the_model_params_rules():
    # one grid point per rule violation plus valid ones: the mask is True
    # exactly where ModelParams accepts the values
    kw = dict(r1=0.5, r2=0.5, a1=0.05, a2=1.0, b1=0.5, b2=0.3, mu=2.0, r=4.0, s=1.0)
    bad = [("r1", 0.0), ("r2", -1.0), ("a1", 0.0), ("a2", -0.5), ("r", 0.0),
           ("mu", -0.1), ("s", -1.0), ("b1", float("nan")), ("mu", float("inf")),
           ("b2", -5.0), ("mu", 0.0), ("s", 0.0)]
    points = [dict(kw, **{field: value}) for field, value in bad] + [kw]
    grid = ParamGrid.of({k: np.array([pt[k] for pt in points]) for k in kw})
    want = []
    for pt in points:
        try:
            ModelParams(**pt)
        except ValueError:
            want.append(False)
        else:
            want.append(True)
    assert params_valid(grid).tolist() == want
    assert want.count(True) == 4
    # ParamGrid.of builds the grid positionally from the ModelParams fields
    assert ParamGrid._fields == _PARAM_FIELDS


@given(wide_params())
@settings(max_examples=100)
def test_coexistence_points_match_equilibria(p):
    exists, point = coexistence_points(ParamGrid.of(p))
    est = coexistence(p)
    assert bool(exists[0]) is est.exists
    assert [float(x[0]) for x in point] == list(est.point)


def test_zero_delay_is_allowed():
    make_params(0.0)


def test_w_oracle_constant_history():
    p = make_params(1.0)
    mr = p.mu + p.r
    times = np.linspace(-6.0, 0.0, 2401)
    res = distributed_w_oracle(times, np.full_like(times, 2.0),
                               np.full_like(times, 3.0), p)
    # trapezoid error on the exponential kernel at this grid spacing
    dt = times[1] - times[0]
    quad_err = (mr * dt) ** 2 / 12.0 * 6.0 / mr
    assert abs(res.value - 6.0 / mr) < quad_err + res.truncation_bound + 1e-12
    assert res.truncation_bound < 1e-14


def test_w_oracle_rejects_short_history():
    p = make_params(1.0)
    times = np.linspace(-1.0, 0.0, 101)
    ones = np.ones_like(times)
    with pytest.raises(ValueError, match="span"):
        distributed_w_oracle(times, ones, ones, p)


def test_w_oracle_shape_validation():
    p = make_params(1.0)
    with pytest.raises(ValueError):
        distributed_w_oracle([-6.0, 0.0], [1.0], [1.0, 1.0], p)
    with pytest.raises(ValueError):
        distributed_w_oracle([0.0], [1.0], [1.0], p)


def test_w_oracle_matches_distributed_memory_column():
    # integrate with the distributed kernel, then rebuild the final w
    # value directly from the stored (u, v) trajectory
    p = make_params(2.0)
    traj = simulate_distributed(p, HistorySpec.constant(1.05, 0.95),
                                10.0, 100)
    res = distributed_w_oracle(traj.times, traj.states[:, 0],
                               traj.states[:, 1], p)
    # history before t = 0 was constant (1.05, 0.95); the oracle window
    # starts at t = 0, so allow the truncation bound plus quadrature slack
    assert abs(res.value - traj.states[-1, 2]) < 5e-3 * abs(res.value)


def test_package_exports_are_module_exports():
    # the package namespace is the module lists in import order, each
    # name public where it is defined, and every module lists only
    # names it has
    modules = [importlib.import_module(f"infodelay.{sub}") for sub in
               ("model", "cubic", "stability", "normal_form", "integrator", "plots", "cli")]
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, f"{module.__name__}.__all__ lists missing {missing}"
    listed = [name for module in modules for name in module.__all__]
    assert infodelay.__all__ == listed + ["__version__"]
    assert len(set(infodelay.__all__)) == len(infodelay.__all__)
    unresolved = [name for name in infodelay.__all__ if not hasattr(infodelay, name)]
    assert not unresolved, f"listed but not on the package: {unresolved}"
    unlisted = [name for name in listed
                if name not in importlib.import_module(getattr(infodelay, name).__module__).__all__]
    assert not unlisted, f"re-exported but not in their module's __all__: {unlisted}"


def test_existence_predicate_means_positive_point_with_positive_denominator():
    # at any coexistence point p0 + q0 = r1*r2*u*v*D, D = a1*a2*(mu+r) + b1*b2;
    # the predicate keeps the positive points with D > 0. The other
    # positive branch, D < 0, has p0 + q0 < 0: a positive real root at
    # every delay
    rng = np.random.default_rng(3)
    n = 4000
    def log_uniform(lo, hi):
        return np.exp(rng.uniform(lo, hi, n))
    grid = ParamGrid.of(dict(
        r1=log_uniform(-3, 3), r2=log_uniform(-3, 3), a1=log_uniform(-4, 2),
        a2=log_uniform(-4, 2), b1=rng.uniform(-5, 5, n), b2=rng.uniform(-5, 5, n),
        mu=log_uniform(-4, 2), r=log_uniform(-4, 2), s=1.0))
    _, point = coexistence_points(grid)
    positive = (point.u > 0) & (point.v > 0)
    grid, point = grid.take(positive), State(*(a[positive] for a in point))
    ju, jv, mr, br2, q2, _ = _jacobian(grid, point)
    cc = _coeffs_at(grid, point)
    uv = grid.r1 * grid.r2 * point.u * point.v
    den = grid.a1 * grid.a2 * mr + grid.b1 * grid.b2
    # the size of the summed terms on both sides
    scale = (abs(ju * jv * mr) + abs(br2 * point.u * ju) + abs(q2 * mr * jv)
             + uv * (abs(grid.a1 * grid.a2 * mr) + abs(grid.b1 * grid.b2)))
    assert np.all(abs(cc.p0 + cc.q0 - uv * den) <= 1e-12 * scale)
    exists = [coexistence(ModelParams(*(float(a[i]) for a in grid))).exists
              for i in range(len(den))]
    assert exists == (den > 0).tolist()
    assert 100 < sum(exists) < len(exists) - 100
    # the example: u* = 3.529, v* = 0.8235, D = -0.85, p0 + q0 = -0.618
    p = ModelParams(r1=0.5, r2=0.5, a1=0.05, a2=0.5, b1=1.0, b2=-1.0, mu=2.0, r=4.0, s=1.0)
    _, point = coexistence_points(p)
    assert not coexistence(p).exists
    assert abs(point.u - 3.0 / 0.85) < 1e-12 and abs(point.v - 0.7 / 0.85) < 1e-12
    rhs = reduced_rhs(State(*map(float, point)), State(*map(float, point)), p)
    assert max(map(abs, rhs)) < 1e-12
    cc = _coeffs_at(p, point)
    assert abs(cc.p0 + cc.q0 - (-0.25 * 0.85 * point.u * point.v)) < 1e-12
