"""Config parsing, report files, sweep output, exit codes."""

import csv
import hashlib
import io
import json
import math
import re
import textwrap
from dataclasses import fields

import numpy as np
import pytest

from infodelay import (
    CharCoeffs,
    Command,
    ConfigError,
    CycleMetrics,
    Direction,
    HistorySpec,
    HopfCandidate,
    ModelParams,
    ParamGrid,
    SimulationDiverged,
    State,
    Transversality,
    char_coeffs,
    coexistence,
    compute_normal_form,
    cycle_prediction,
    hopf_candidates,
    normal_forms,
    parse_config,
    predicted_amplitude,
    predicted_component_amplitudes,
    predicted_period,
    run,
    simulate,
)
from infodelay import cli, integrator, normal_form, stability
from infodelay.cli import _REPORT_KEYS, _SWEEP_COLUMNS, RunConfig, main
from conftest import REFERENCE, S_STAR, make_params
from test_stability import _LARGE

MODEL_LINES = "\n".join(f"{k} = {v}" for k, v in REFERENCE.items())


def cfg(command, extra="", s="2.0"):
    body = f"command = {command}\n{MODEL_LINES}\n"
    if s is not None:
        body += f"s = {s}\n"
    return body + textwrap.dedent(extra)


# --------------------------------------------------------------------------
# parsing


def test_parse_minimal_analyze():
    c = parse_config(cfg("Analyze"))
    assert c.command is Command.ANALYZE
    assert c.param_values["a2"] == 1.045
    # no steps_per_delay: a Simulate run picks it by the step ladder
    assert c.steps_per_delay is None
    assert c.transient_fraction == 0.5
    assert c.model_params() == make_params(2.0)


def test_parse_comments_and_blank_lines():
    text = cfg("Analyze") + "\n# a comment\n   \nsteps_per_delay = 250 # inline\n"
    assert parse_config(text).steps_per_delay == 250


@pytest.mark.parametrize("mangle, fragment", [
    ("bogus = 1\n", "unknown key"),
    ("a1 = 0.07\n", "duplicate"),
    ("just some words\n", "key = value"),
    ("t_end = abc\n", "number"),
    ("u0 = inf\n", "finite"),
    ("steps_per_delay = 2.5\n", "integer"),
    ("steps_per_delay = 10\n", "steps_per_delay"),
    ("transient_fraction = 1.0\n", "transient_fraction"),
])
def test_parse_rejects_bad_lines(mangle, fragment):
    with pytest.raises(ConfigError, match=fragment):
        parse_config(cfg("Analyze", extra=mangle))


def test_parse_error_carries_line_number():
    text = cfg("Analyze").replace("a1 = 0.05", "a1 = -0.1")
    with pytest.raises(ConfigError, match=r"line \d+: a1"):
        parse_config(text)


def test_parse_rejects_unknown_command():
    with pytest.raises(ConfigError, match="command"):
        parse_config(cfg("Explode"))


def test_parse_lists_all_missing_keys():
    with pytest.raises(ConfigError, match="t_end, u0, v0"):
        parse_config(cfg("Simulate"))
    with pytest.raises(ConfigError, match="s"):
        parse_config(cfg("Analyze", s=None))


def test_parse_simulate_requirements():
    c = parse_config(cfg("Simulate", extra="t_end = 100\nu0 = 1.05\nv0 = 0.95\n"))
    assert c.command is Command.SIMULATE
    assert c.t_end == 100.0 and c.w0 is None
    with pytest.raises(ConfigError, match="t_end"):
        parse_config(cfg("Simulate", extra="t_end = -1\nu0 = 1\nv0 = 1\n"))


def test_parse_sweep_requirements():
    extra = ("sweep_param = mu\nsweep_min = 1.0\nsweep_max = 3.0\n"
             "sweep_count = 5\n")
    c = parse_config(cfg("Sweep", extra=extra))
    assert c.sweep_param == "mu" and c.sweep_count == 5
    with pytest.raises(ConfigError, match="sweep"):
        parse_config(cfg("Sweep"))
    # missing model and sweep keys are reported together
    partial = cfg("Sweep", extra=extra.replace("sweep_count = 5\n", "")).replace(
        "r1 = 0.5\n", "")
    with pytest.raises(ConfigError, match="missing required keys: r1, sweep_count$"):
        parse_config(partial)
    with pytest.raises(ConfigError, match="sweep_param"):
        parse_config(cfg("Sweep", extra=extra.replace("mu", "t_end")))
    with pytest.raises(ConfigError, match="sweep_min"):
        parse_config(cfg("Sweep", extra=extra.replace("3.0", "0.5")))
    with pytest.raises(ConfigError, match="sweep_count"):
        parse_config(cfg("Sweep", extra=extra.replace("count = 5", "count = 0")))


def test_every_config_key_is_declared_once():
    # a config key is a ModelParams field or a RunConfig field other than
    # param_values, and a config that sets every run key parses each value
    # into the field of that name
    run_keys = tuple(f.name for f in fields(RunConfig) if f.name != "param_values")
    assert cli._ALL_KEYS == tuple(f.name for f in fields(ModelParams)) + run_keys
    values = {"t_end": 40.0, "steps_per_delay": 60, "transient_fraction": 0.25, "u0": 1.5,
              "v0": 0.5, "w0": 0.125, "sweep_param": "mu", "sweep_min": 1.0, "sweep_max": 3.0,
              "sweep_count": 7}
    assert {"command", *values} == set(run_keys)
    c = parse_config(cfg("Sweep", extra="".join(f"{k} = {v}\n" for k, v in values.items())))
    assert c.command is Command.SWEEP
    assert {k: getattr(c, k) for k in values} == values
    assert all(type(getattr(c, k)) is type(v) for k, v in values.items())


_SWEEP_LINES = "sweep_param = mu\nsweep_min = 1.0\nsweep_max = 3.0\nsweep_count = 5\n"
_SWEEP_KEYS = ("sweep_param", "sweep_min", "sweep_max", "sweep_count")

# the full text of every ConfigError parse_config raises, one case per
# raise site, then the first error of configs that have several; model
# lines are 2-9, s is line 10 and the extra lines start at 11
_CONFIG_ERRORS = {
    "not key = value": (cfg("Analyze", extra="junk\n"),
                        "line 11: 'junk' is not 'key = value'"),
    "unknown key": (cfg("Analyze", extra="bogus = 1\n"), "line 11: unknown key 'bogus'"),
    "duplicate key": (cfg("Analyze", extra="a1 = 0.1\n"),
                      "line 11: duplicate key 'a1' (first set on line 4)"),
    "not a number": (cfg("Analyze", extra="t_end = abc\n"),
                     "line 11: t_end must be a number, got 'abc'"),
    "not finite": (cfg("Analyze", extra="t_end = nan\n"),
                   "line 11: t_end must be finite, got 'nan'"),
    "not an integer": (cfg("Analyze", extra="steps_per_delay = 2.5\n"),
                       "line 11: steps_per_delay must be an integer, got '2.5'"),
    "no command": (MODEL_LINES + "\ns = 2.0\n", "missing required keys: command"),
    "unknown command": (cfg("Explode"), "line 1: command must be one of Analyze, Critical, "
                                        "Direction, Simulate, Sweep, got 'Explode'"),
    "missing keys": (cfg("Simulate"), "missing required keys: t_end, u0, v0"),
    "sweep_param": (cfg("Sweep", extra=_SWEEP_LINES.replace("mu", "t_end")),
                    "line 11: sweep_param must be one of r1, r2, a1, a2, b1, b2, mu, r, s, "
                    "got 't_end'"),
    "sweep_min > sweep_max": (cfg("Sweep", extra=_SWEEP_LINES.replace("3.0", "0.5")),
                              "line 12: sweep_min 1.0 exceeds sweep_max 0.5"),
    "sweep_count": (cfg("Sweep", extra=_SWEEP_LINES.replace("= 5", "= 0")),
                    "line 14: sweep_count must be >= 1, got 0"),
    "model rule": (cfg("Analyze").replace("a1 = 0.05", "a1 = -0.1"),
                   "line 4: a1 must be positive, got -0.1"),
    "model rule on the swept key": (
        cfg("Sweep", extra=_SWEEP_LINES.replace("mu", "r1").replace("1.0", "-0.5")).replace(
            "r1 = 0.5\n", ""),
        "r1 must be positive, got -0.5"),
    "steps_per_delay": (cfg("Analyze", extra="steps_per_delay = 10\n"),
                        "line 11: steps_per_delay must be >= 20, got 10"),
    "transient_fraction": (cfg("Analyze", extra="transient_fraction = 1.0\n"),
                           "line 11: transient_fraction must be in [0, 1), got 1.0"),
    "t_end": (cfg("Simulate", extra="t_end = -1\nu0 = 1\nv0 = 1\n"),
              "line 11: t_end must be positive, got -1.0"),
    "range rules in order": (
        cfg("Analyze", extra="t_end = -1\ntransient_fraction = 1.5\nsteps_per_delay = 10\n"),
        "line 13: steps_per_delay must be >= 20, got 10"),
    "transient_fraction before t_end": (
        cfg("Analyze", extra="t_end = 0\ntransient_fraction = -0.1\n"),
        "line 12: transient_fraction must be in [0, 1), got -0.1"),
    "model rule before range rule": (
        cfg("Analyze", extra="steps_per_delay = 10\n").replace("a2 = 1.045", "a2 = -1"),
        "line 5: a2 must be positive, got -1.0"),
    "sweep check before model rule": (
        cfg("Sweep", extra=_SWEEP_LINES.replace("= 5", "= 0")).replace("a1 = 0.05", "a1 = -1"),
        "line 14: sweep_count must be >= 1, got 0"),
    "missing keys before model rule": (cfg("Simulate").replace("a1 = 0.05", "a1 = -3"),
                                       "missing required keys: t_end, u0, v0"),
    "first bad line": (cfg("Analyze", extra="bogus = 1\njunk\n"),
                       "line 11: unknown key 'bogus'"),
}


@pytest.mark.parametrize("text, message", list(_CONFIG_ERRORS.values()),
                         ids=list(_CONFIG_ERRORS))
def test_config_error_messages(text, message):
    with pytest.raises(ConfigError) as err:
        parse_config(text)
    assert str(err.value) == message


@pytest.mark.parametrize("bad, message", [
    ({"transient_fraction": 1.5}, "transient_fraction must be in [0, 1), got 1.5"),
    ({"steps_per_delay": 5}, "steps_per_delay must be >= 20, got 5"),
    ({"t_end": 0.0}, "t_end must be positive, got 0.0"),
    ({"u0": None}, "missing required keys: u0"),
    ({"u0": math.nan}, "history samples must be finite"),
    ({"w0": math.inf}, "Explicit w0 policy needs a finite w0"),
], ids=["transient_fraction", "steps_per_delay", "t_end", "u0", "u0 nan", "w0 inf"])
def test_run_config_checks_run_rules_before_anything_is_written(tmp_path, bad, message):
    # a RunConfig built by hand, not by parse_config, keeps the same rules
    out = tmp_path / "out"
    with pytest.raises(ValueError) as err:
        run(RunConfig(Command.SIMULATE, dict(REFERENCE, s=2.02),
                      **{"t_end": 50.0, "steps_per_delay": 50, "u0": 1.01, "v0": 0.99, **bad}),
            out)
    assert str(err.value) == message
    assert not out.exists()


def test_run_checks_the_model_before_anything_is_written(tmp_path):
    out = tmp_path / "out"
    with pytest.raises(ValueError) as err:
        run(RunConfig(Command.ANALYZE, dict(REFERENCE, s=2.02, a1=-1.0)), out)
    assert str(err.value) == "a1 must be positive, got -1.0"
    assert not out.exists()


@pytest.mark.parametrize("params, sweep, message", [
    (dict(REFERENCE, s=2.0, a1=-1.0), ("s", 1.0, 3.0, 3), "a1 must be positive, got -1.0"),
    (dict(REFERENCE, s=2.0, mu=-1.0), ("r1", -0.5, 0.5, 3), "mu must be nonnegative, got -1.0"),
], ids=["fixed key", "fixed key, swept from an invalid point"])
def test_run_checks_a_sweeps_fixed_model_keys_before_anything_is_written(tmp_path, params,
                                                                          sweep, message):
    # a Sweep RunConfig built by hand checks its fixed model keys; its
    # grid may start at an invalid point (test_sweep_rows_equal_the_one_point_chain)
    out = tmp_path / "out"
    with pytest.raises(ValueError) as err:
        run(RunConfig(Command.SWEEP, params, **dict(zip(_SWEEP_KEYS, sweep))), out)
    assert str(err.value) == message
    assert not out.exists()


@pytest.mark.parametrize("params, sweep, message", [
    (dict(REFERENCE, s=2.0), None,
     "missing required keys: sweep_param, sweep_min, sweep_max, sweep_count"),
    ({k: v for k, v in REFERENCE.items() if k != "mu"}, ("s", 1.0, 3.0, 3),
     "missing required keys: mu"),
    (dict(REFERENCE, s=2.0), ("t_end", 1.0, 3.0, 3),
     "sweep_param must be one of r1, r2, a1, a2, b1, b2, mu, r, s, got 't_end'"),
    (dict(REFERENCE, s=2.0), ("s", 3.0, 1.0, 3), "sweep_min 3.0 exceeds sweep_max 1.0"),
    (dict(REFERENCE, s=2.0), ("s", 1.0, 3.0, 0), "sweep_count must be >= 1, got 0"),
    (dict(REFERENCE, s=2.0), ("s", 1.0, 3.0, -2), "sweep_count must be >= 1, got -2"),
    ({k: v for k, v in dict(REFERENCE, s=2.0).items() if k != "mu"}, ("t_end", 1.0, 3.0, 3),
     "missing required keys: mu"),
], ids=["sweep", "model key", "sweep_param", "sweep_min > sweep_max", "sweep_count 0",
        "sweep_count -2", "missing model key before a bad sweep key"])
def test_run_config_checks_sweep_keys_before_anything_is_written(tmp_path, params, sweep,
                                                                 message):
    # RunConfig checks the missing keys first, as parse_config reports them
    out = tmp_path / "out"
    with pytest.raises(ValueError) as err:
        run(RunConfig(Command.SWEEP, params, **dict(zip(_SWEEP_KEYS, sweep or ()))), out)
    assert str(err.value) == message
    assert not out.exists()


def test_parse_sweep_over_swept_key_without_value():
    # the swept model key may be omitted; the grid supplies it
    extra = ("sweep_param = s\nsweep_min = 0.5\nsweep_max = 3.0\n"
             "sweep_count = 3\n")
    c = parse_config(cfg("Sweep", extra=extra, s=None))
    assert "s" not in c.param_values


# --------------------------------------------------------------------------
# report encoding


def _typed(x):
    """x with each dict as its item list and each leaf beside its exact
    type, so that equality also checks key order and int against float."""
    if type(x) is dict:
        return [(k, _typed(v)) for k, v in x.items()]
    if type(x) is list:
        return [_typed(v) for v in x]
    return type(x), x


# (object, its JSON value) by what the case pins
_JSON_CASES = {
    "nan": (math.nan, None),
    "inf": (math.inf, None),
    "-inf": (-math.inf, None),
    "numpy -inf": (np.float64(-np.inf), None),
    "float32": (np.float32(0.5), 0.5),
    "int64": (np.int64(7), 7),
    "bool": (True, True),
    "None": (None, None),
    "complex": (1.5 - 2j, {"re": 1.5, "im": -2.0}),
    "numpy complex": (np.complex128(complex(np.nan, 1.0)), {"re": None, "im": 1.0}),
    "State": (State(1.0, 2.0, 3.0), {"u": 1.0, "v": 2.0, "w": 3.0}),
    "dataclass": (CharCoeffs(6.0, 5.0, 4.0, 3.0, 2.0, 1.0),
                  {"p0": 6.0, "p1": 5.0, "p2": 4.0, "q0": 3.0, "q1": 2.0, "q2": 1.0}),
    "dataclass of tuple and enum": (
        HopfCandidate(z=0.25, omega=0.5, delays=(1.0, 13.5),
                      transversality_sign=Transversality.NEGATIVE),
        {"z": 0.25, "omega": 0.5, "delays": [1.0, 13.5], "transversality_sign": "Negative"}),
    "str enum": (Direction.SUPERCRITICAL, "Supercritical"),
    "tuple": ((1, "x", 2.5), [1, "x", 2.5]),
    "ndarray": (np.array([1.0, np.inf, -0.0]), [1.0, None, -0.0]),
    "nested": ({"a": [1, {"b": (np.int64(2), np.nan)}], 3: {"c": []}},
               {"a": [1, {"b": [2, None]}], "3": {"c": []}}),
}


@pytest.mark.parametrize("obj, want", list(_JSON_CASES.values()), ids=list(_JSON_CASES))
def test_jsonify_makes_plain_json_values(obj, want):
    assert _typed(cli._jsonify(obj)) == _typed(want)


@pytest.mark.parametrize("obj", [object(), {1, 2}, b"bytes", [1, {"k": object()}]])
def test_jsonify_rejects_unknown_types(obj):
    with pytest.raises(TypeError, match="cannot serialize"):
        cli._jsonify(obj)


# --------------------------------------------------------------------------
# analysis commands


def test_analyze_report(tmp_path):
    d = run(parse_config(cfg("Analyze")), tmp_path)
    assert list(d) == ["command", "params", "equilibria", "h1_holds",
                       "char_coeffs", "g_coeffs", "candidates", "s0",
                       "normal_form", "simulation", "sweep", "notes"]
    assert d["command"] == "Analyze"
    assert d["h1_holds"] is True
    assert abs(d["s0"] - S_STAR) < 1e-12
    nf = d["normal_form"]
    assert nf["direction"] == "Supercritical"
    assert abs(nf["linear_period"] - 2 * math.pi / nf["omega_star"]) < 1e-12
    assert len(d["candidates"]) == 1
    assert d["notes"] == []
    checks = nf["self_checks"]
    assert list(checks) == ["right_eigenvector_residual", "left_eigenvector_residual",
                            "gamma1_drift_residual"]
    assert 0.0 <= checks["right_eigenvector_residual"] < 1e-9
    assert 0.0 <= checks["left_eigenvector_residual"] < 1e-9
    assert 0.0 <= checks["gamma1_drift_residual"] < 1e-10
    # s = 2.0 lies below the supercritical switch: no cycle, no period
    pred = nf["prediction"]
    assert list(pred) == ["delta", "amplitude", "component_amplitudes", "period",
                          "valid_below"]
    assert abs(pred["delta"] - (2.0 - S_STAR)) < 1e-15
    assert pred["amplitude"] == 0.0
    assert pred["component_amplitudes"] == [0.0, 0.0, 0.0]
    assert pred["period"] is None
    assert (tmp_path / "report.json").exists()


def test_analyze_report_predicts_the_cycle(tmp_path):
    # the README config, just past the switch
    d = run(parse_config(cfg("Analyze", s="2.02")), tmp_path)
    nf = d["normal_form"]
    pred = nf["prediction"]
    assert abs(pred["delta"] - 0.0047985) < 1e-7
    assert abs(pred["amplitude"] - 0.0092524) < 1e-7
    assert np.allclose(pred["component_amplitudes"], [0.4608, 0.0185, 0.0796], atol=1e-4)
    # T(delta) as criterion 5 writes it inline
    g1, g2 = nf["Gamma1"], nf["Gamma2"]
    drift = pred["delta"] * (g1["im"] - g2["im"] * nf["chi1"] / nf["chi2"])
    want = 2.0 * math.pi * 2.02 / (nf["omega_star"] * nf["s_star"] + drift)
    assert abs(pred["period"] - want) < 1e-12 * want
    assert nf["linear_period"] < pred["period"]
    assert nf["self_checks"]["gamma1_drift_residual"] < 1e-10
    assert (tmp_path / "report.csv").exists()
    # every value is the library's own, and delta lies inside the bound:
    # the w-amplitude reaches w* = 1/6 first, near delta = 0.0210, before
    # the u-amplitude reaches u* = 1 near 0.0226
    want = compute_normal_form(make_params(2.02))
    delta = 2.02 - want.s_star
    assert pred["delta"] == delta
    assert pred["amplitude"] == predicted_amplitude(want, delta)
    assert pred["component_amplitudes"] == predicted_component_amplitudes(want, delta).tolist()
    assert pred["period"] == predicted_period(want, delta)
    assert abs(pred["valid_below"] - 0.0210385) < 1e-7
    assert d["notes"] == []


def test_prediction_past_valid_below_has_no_period(tmp_path):
    # the reference at s = 40: the amplitude equation's cycle would have
    # u-amplitude 41 against u* = 1 and period T(delta) < 0
    d = run(parse_config(cfg("Analyze", s="40")), tmp_path)
    pred = d["normal_form"]["prediction"]
    assert pred["period"] is None
    assert abs(pred["valid_below"] - 0.0210385) < 1e-7
    # the amplitude itself is not clipped
    nf = compute_normal_form(make_params(40.0))
    assert pred["component_amplitudes"] == predicted_component_amplitudes(
        nf, 40.0 - nf.s_star).tolist()
    assert pred["component_amplitudes"][0] > 40.0
    assert predicted_period(nf, 40.0 - nf.s_star) < 0
    assert d["notes"] == [
        "no predicted period: |delta| = 37.9848 is past valid_below = 0.0210385, "
        "where the predicted w-amplitude reaches w*",
        "s = 40 lies past the next stability switch, at 33.3627 (Positive): the normal "
        "form at s* = 2.0152 does not describe the point there"]


@pytest.mark.parametrize("delta", [0.0215, 0.0225])
def test_prediction_between_the_w_and_u_bounds_has_no_period(delta):
    # past w's bound, before u's: the predicted w-amplitude exceeds w*
    p = make_params(S_STAR + delta)
    nf, point = compute_normal_form(p), coexistence(p).point
    pred, note = cycle_prediction(nf, delta, point)
    assert pred["period"] is None
    assert pred["component_amplitudes"][2] > point.w
    assert pred["component_amplitudes"][0] < point.u
    assert note.endswith("the predicted w-amplitude reaches w*")


# a point per bound and side: (params, direction, the side of the
# cycle, what the note names)
_BOUNDS = {
    "subcritical, u-amplitude": (
        dict(r1=4.47, r2=15.5, a1=2.48, a2=5.19, b1=1.36, b2=2.34, mu=0.621, r=0.0299),
        Direction.SUBCRITICAL, -1.0, "the predicted u-amplitude reaches u*"),
    "supercritical, period pole": (
        dict(r1=0.295, r2=11.7, a1=6.34, a2=0.391, b1=-2.31, b2=-1.33, mu=0.634, r=0.733),
        Direction.SUPERCRITICAL, 1.0, "T(delta)'s denominator vanishes"),
}


@pytest.mark.parametrize("params, direction, side, where", list(_BOUNDS.values()),
                         ids=list(_BOUNDS))
def test_prediction_bound_on_the_cycles_side(params, direction, side, where):
    p = ModelParams(**params, s=1.0)
    nf = compute_normal_form(p)
    point = coexistence(p).point
    assert nf.direction is direction
    at_switch, note = cycle_prediction(nf, 0.0, point)
    bound = at_switch["valid_below"]
    assert note is None
    assert bound > 0.05 and nf.s_star + 1.01 * side * bound > 0   # s > 0 at every case
    inside, note = cycle_prediction(nf, 0.99 * side * bound, point)
    assert inside["period"] == predicted_period(nf, 0.99 * side * bound) > 0
    assert (np.array(inside["component_amplitudes"]) < point).all()
    assert note is None
    # the other side has no cycle, so no period and no note
    other, note = cycle_prediction(nf, -0.5 * side * bound, point)
    assert other["period"] is None and note is None
    past, note = cycle_prediction(nf, 1.01 * side * bound, point)
    assert past["period"] is None and past["valid_below"] == bound
    assert ((np.array(past["component_amplitudes"]) > point).any()
            or predicted_period(nf, 1.01 * side * bound) < 0)
    assert note.endswith(where)


def test_prediction_bound_holds_on_random_draws():
    # valid_below on the first 500 classified draws of a wide box: 0.99
    # of it on the cycle's side keeps every predicted amplitude below the
    # coexistence point and T > 0; at 1.01 of it a component has reached
    # its x*, or T <= 0, or the delay s* + delta is no longer positive
    rng = np.random.default_rng(27)
    n = 8000

    def log_uniform(lo, hi):
        return np.exp(rng.uniform(lo, hi, n))

    draws = dict(r1=log_uniform(-3, 3), r2=log_uniform(-3, 3), a1=log_uniform(-4, 2),
                 a2=log_uniform(-4, 2), b1=rng.uniform(-5, 5, n), b2=rng.uniform(-5, 5, n),
                 mu=log_uniform(-4, 2), r=log_uniform(-4, 2), s=np.ones(n))
    kinds, count = set(), 0
    for i in np.flatnonzero(normal_forms(ParamGrid.of(draws)).ok):
        p = ModelParams(**{k: float(v[i]) for k, v in draws.items()})
        nf = compute_normal_form(p)
        if nf.direction is Direction.DEGENERATE:
            continue
        point = coexistence(p).point
        side = math.copysign(1.0, nf.chi1 / nf.chi2)
        bound = cycle_prediction(nf, 0.0, point)[0]["valid_below"]
        inside, past = 0.99 * side * bound, 1.01 * side * bound
        assert (predicted_component_amplitudes(nf, inside) < point).all(), p
        assert predicted_period(nf, inside) > 0, p
        assert ((predicted_component_amplitudes(nf, past) >= point).any()
                or predicted_period(nf, past) <= 0 or nf.s_star + past <= 0), p
        kinds.add(cycle_prediction(nf, past, point)[1].split(", where ")[1])
        count += 1
        if count == 500:
            break
    assert count == 500
    # every bound binds somewhere in the box
    assert kinds == {"the predicted u-amplitude reaches u*", "the predicted v-amplitude reaches v*",
                     "the predicted w-amplitude reaches w*", "T(delta)'s denominator vanishes",
                     "s reaches 0"}


# the "two" point: stable below s* = 0.487, unstable up to the
# stabilizing switch at 3.087, stable again up to 5.718
_TWO = dict(r1=3.4, r2=2.2, a1=6.2, a2=1.2, b1=-2.7, b2=-5.0, mu=0.093, r=1.6)


@pytest.mark.parametrize("values, note", [
    ({**_TWO, "s": 4.0}, "s = 4 lies past the next stability switch, at 3.08677 (Negative): "
                         "the normal form at s* = 0.487198 does not describe the point there"),
    ({**REFERENCE, "s": 40.0}, "s = 40 lies past the next stability switch, at 33.3627 "
                               "(Positive): the normal form at s* = 2.0152 does not describe "
                               "the point there"),
    ({**REFERENCE, "s": 2.02}, None),
], ids=["two at s = 4", "reference at s = 40", "reference at s = 2.02"])
def test_note_where_s_lies_past_the_next_switch(tmp_path, values, note):
    # the normal form is local to s*: past the next delay of any ladder
    # the point may have switched back, so Analyze and Direction say so
    for command in Command.ANALYZE, Command.DIRECTION, Command.CRITICAL:
        notes = run(RunConfig(command=command, param_values=values), tmp_path / command.value)
        past = [n for n in notes["notes"] if "next stability switch" in n]
        assert past == ([] if note is None or command is Command.CRITICAL else [note])


# (params, whether they have a coexistence point) for the agreement of
# the analysis commands
_ONE_PASS = {
    "reference, s = 2.0": ({**REFERENCE, "s": 2.0}, True),
    "reference, s = 2.02": ({**REFERENCE, "s": 2.02}, True),
    "reference, s = 40": ({**REFERENCE, "s": 40.0}, True),
    "two, s = 4": ({**_TWO, "s": 4.0}, True),
    "no coexistence point": ({**REFERENCE, "b1": 1.2, "s": 2.0}, False),
    "no crossing": ({**REFERENCE, "b1": 0.0, "s": 2.02}, True),
}
# the report sections each single-purpose command fills
_FILLS = {Command.CRITICAL: ("params", "equilibria", "h1_holds", "char_coeffs", "g_coeffs",
                             "candidates", "s0"),
          Command.DIRECTION: ("params", "equilibria", "s0", "normal_form")}


@pytest.mark.parametrize("values, exists", list(_ONE_PASS.values()), ids=list(_ONE_PASS))
def test_analysis_commands_agree_in_one_pass(tmp_path, monkeypatch, values, exists):
    # Critical and Direction fill their sections with Analyze's JSON
    # text, and each command finds the crossings once
    calls = []
    real = normal_form.crossing_candidates
    monkeypatch.setattr(normal_form, "crossing_candidates",
                        lambda coeffs: calls.append(1) or real(coeffs))
    docs = {}
    for command in Command.ANALYZE, Command.CRITICAL, Command.DIRECTION:
        calls.clear()
        docs[command] = run(RunConfig(command=command, param_values=values),
                            tmp_path / command.value)
        assert len(calls) == (1 if exists else 0), command
    analyze = docs[Command.ANALYZE]
    for command, keys in _FILLS.items():
        for key in _REPORT_KEYS:
            want = analyze[key] if key in keys else None
            if key not in ("command", "notes"):
                assert json.dumps(docs[command][key]) == json.dumps(want), (command, key)
    # Analyze's notes are Critical's, then Direction's own
    critical, direction = docs[Command.CRITICAL]["notes"], docs[Command.DIRECTION]["notes"]
    assert critical + [n for n in direction if n not in critical] == analyze["notes"]


def test_critical_and_direction_sections(tmp_path):
    crit = run(parse_config(cfg("Critical")), tmp_path / "c")
    assert crit["candidates"] is not None
    assert crit["normal_form"] is None
    dirn = run(parse_config(cfg("Direction")), tmp_path / "d")
    assert dirn["candidates"] is None
    assert dirn["normal_form"] is not None
    assert dirn["s0"] is not None
    assert max(dirn["normal_form"]["self_checks"].values()) < 1e-9


def test_analyze_without_coexistence_point(tmp_path):
    text = cfg("Analyze").replace("b1 = 0.95", "b1 = 1.2")
    d = run(parse_config(text), tmp_path)
    assert d["equilibria"][3]["exists"] is False
    assert d["h1_holds"] is None
    assert d["candidates"] is None and d["s0"] is None
    assert any("coexistence" in note for note in d["notes"])


def test_analyze_without_crossing(tmp_path):
    # b1 = 0 removes the delayed coupling: no crossing and no normal form
    d = run(parse_config(cfg("Analyze", s="2.02").replace("b1 = 0.95", "b1 = 0")), tmp_path)
    assert d["equilibria"][3]["exists"] is True
    assert d["candidates"] == []
    assert d["s0"] is None and d["normal_form"] is None
    assert d["notes"] == [
        "no imaginary-axis crossings: no delay-induced stability switch",
        "bifurcation direction not computed: no imaginary-axis crossings: "
        "stability never switches",
    ]


@pytest.mark.parametrize("command", ["Analyze", "Critical", "Direction"])
def test_a_candidate_off_g_is_reported_in_band(tmp_path, monkeypatch, command):
    # a polishing step that lands 1% off the root at _LARGE's one
    # candidate: each analysis command notes the point and exits 0
    p = ModelParams(**_LARGE, s=1.0)
    omega = hopf_candidates(char_coeffs(p, coexistence(p)))[0].omega
    polish = stability._polish_pair

    def off_root(w, s, coeffs):
        w, s = polish(w, s, coeffs)
        return np.where(w == omega, 1.01 * w, w), s

    monkeypatch.setattr(stability, "_polish_pair", off_root)
    text = f"command = {command}\n" + "".join(f"{k} = {v}\n" for k, v in _LARGE.items())
    assert main([str(_write(tmp_path, text + "s = 1.0\n")),
                 "--output-dir", str(tmp_path / "out")]) == 0
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    assert doc["candidates"] is None and doc["s0"] is None and doc["normal_form"] is None
    assert any("is not a root of G" in note for note in doc["notes"])


def test_report_json_is_deterministic(tmp_path):
    run(parse_config(cfg("Analyze")), tmp_path / "one")
    run(parse_config(cfg("Analyze")), tmp_path / "two")
    a = (tmp_path / "one" / "report.json").read_bytes()
    b = (tmp_path / "two" / "report.json").read_bytes()
    assert a == b


def test_report_csv_round_trips_json(tmp_path):
    _assert_report_csv_round_trips(tmp_path, cfg("Analyze"))


def test_sweep_report_csv_round_trips_json(tmp_path):
    # a grid with empty cells and both direction words
    extra = "sweep_param = b1\nsweep_min = -0.3\nsweep_max = 1.3\nsweep_count = 40\n"
    _assert_report_csv_round_trips(tmp_path, cfg("Sweep", extra=extra))


def _dotted_leaves(node, prefix=""):
    if isinstance(node, (dict, list)):
        items = node.items() if isinstance(node, dict) else enumerate(node)
        for k, v in items:
            yield from _dotted_leaves(v, f"{prefix}.{k}" if prefix else str(k))
    else:
        yield prefix, node


def _assert_report_csv_round_trips(tmp_path, text):
    run(parse_config(text), tmp_path)
    doc = json.loads((tmp_path / "report.json").read_text())
    with open(tmp_path / "report.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["key", "value"]
    got = dict(rows[1:])
    assert len(got) == len(rows) - 1

    # every flattened leaf must agree with the JSON document: floats as
    # 17-digit decimals, everything else JSON-encoded
    leaves = dict(_dotted_leaves(doc))
    assert set(got) == set(leaves)
    for key, node in leaves.items():
        if isinstance(node, float):
            assert float(got[key]) == node, key
        else:
            assert got[key] == json.dumps(node), key


_REPORT_KEYS = ["command", "params", "equilibria", "h1_holds", "char_coeffs", "g_coeffs",
                "candidates", "s0", "normal_form", "simulation", "sweep", "notes"]
_COMMAND_EXTRAS = {
    "Analyze": "",
    "Critical": "",
    "Direction": "",
    "Simulate": "t_end = 30\nu0 = 1.05\nv0 = 0.95\nsteps_per_delay = 50\n",
    "Sweep": "sweep_param = mu\nsweep_min = 1.5\nsweep_max = 3.0\nsweep_count = 4\n",
}


@pytest.mark.parametrize("command", list(_COMMAND_EXTRAS))
def test_run_returns_the_report_json_document(tmp_path, command):
    doc = run(parse_config(cfg(command, extra=_COMMAND_EXTRAS[command])), tmp_path)
    text = (tmp_path / "report.json").read_text()
    assert doc == json.loads(text)
    # same keys in the same order at every depth, plain JSON types only
    assert json.dumps(doc, indent=2) + "\n" == text
    assert list(doc) == _REPORT_KEYS
    assert doc["command"] == command
    if command == "Simulate":
        cycle_keys = [f.name for f in fields(CycleMetrics)]
        assert [k for k in doc["simulation"] if k in cycle_keys] == cycle_keys


# --------------------------------------------------------------------------
# simulate command


def test_simulate_outputs(tmp_path):
    extra = "t_end = 50\nu0 = 1.05\nv0 = 0.95\nsteps_per_delay = 50\n"
    sim = run(parse_config(cfg("Simulate", extra=extra)), tmp_path)["simulation"]
    assert sim["diverged"] is False
    assert sim["left_positive_orthant_at"] is None
    assert sim["history"]["w0"] == 1.05 * 0.95 / 6.0
    assert sim["history"]["w0_policy"] == "Consistent"
    assert sim["step"] == 2.0 / 50
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,u,v,w"
    assert len(lines) == 1 + math.ceil(50 / (2.0 / 50)) + 1
    assert sim["classification"] in ("ConvergesToEquilibrium", "Inconclusive")
    # the numbers behind the verdict
    assert sim["max_deviation"] > 0.0 and sim["envelope_ratio"] > 0.0
    assert sim["spacing_cv"] is None or sim["spacing_cv"] >= 0.0
    with open(tmp_path / "report.csv", newline="") as fh:
        rows = dict(csv.reader(fh))
    assert float(rows["simulation.max_deviation"]) == sim["max_deviation"]
    assert float(rows["simulation.envelope_ratio"]) == sim["envelope_ratio"]


def test_simulate_explicit_w0(tmp_path):
    extra = ("t_end = 5\nu0 = 1.05\nv0 = 0.95\nw0 = 0.2\n"
             "steps_per_delay = 50\n")
    sim = run(parse_config(cfg("Simulate", extra=extra)), tmp_path)["simulation"]
    assert sim["history"]["w0"] == 0.2
    assert sim["history"]["w0_policy"] == "Explicit"


def test_simulate_divergence_stays_in_band(tmp_path):
    extra = "t_end = 10\nu0 = 1000\nv0 = 1000\nsteps_per_delay = 50\n"
    rc = main([str(_write(tmp_path, cfg("Simulate", extra=extra))),
               "--output-dir", str(tmp_path / "out")])
    assert rc == 0
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    sim = doc["simulation"]
    assert sim["diverged"] is True
    assert 0 < sim["diverged_at"] < 10
    assert sim["classification"] == "Diverges"
    assert not (tmp_path / "out" / "trajectory.csv").exists()
    assert not [p.name for p in (tmp_path / "out").iterdir() if p.name.startswith(".")]
    assert any("diverged" in note for note in doc["notes"])
    # a finished run writes the same keys in the same order
    extra = "t_end = 5\nu0 = 1.05\nv0 = 0.95\nsteps_per_delay = 50\n"
    finished = run(parse_config(cfg("Simulate", extra=extra)), tmp_path / "ok")
    assert list(sim) == list(finished["simulation"])
    assert sim["t_end"] is None and sim["step"] is None and sim["final_state"] is None


# the reference cycle: s = 2.02, t_end 5000, from (1.01, 0.99)
_REFERENCE_RUN = "t_end = 5000\nu0 = 1.01\nv0 = 0.99\n"


def _hidden(directory):
    return [p.name for p in directory.iterdir() if p.name.startswith(".")]


def test_step_ladder_keeps_spd_50_on_the_reference_cycle(tmp_path):
    config = parse_config(cfg("Simulate", extra=_REFERENCE_RUN, s="2.02"))
    sim = run(config, tmp_path)["simulation"]
    assert sim["steps_per_delay"] == 50 and sim["step"] == 2.02 / 50
    assert sim["classification"] == "SustainedOscillation"
    estimate = sim["step_error_estimate"]
    assert 0.0 < estimate <= 1e-6
    # the estimate tracks the true error, taken against an spd 400 run
    # on the spd 50 nodes and scaled the same way, column by column
    history = HistorySpec.constant(1.01, 0.99)
    kept = simulate(make_params(2.02), history, 5000.0, 50)
    x400 = simulate(make_params(2.02), history, 5000.0, 400).states
    m = min(len(kept.states), len(x400[::8]))
    gap = np.abs(x400[::8][:m] - kept.states[:m]).max(axis=0)
    true = (gap / np.abs(x400).max(axis=0)).max()
    assert true / 2.0 <= estimate <= 2.0 * true
    kept.to_csv(tmp_path / "direct.csv")
    assert (tmp_path / "trajectory.csv").read_bytes() == (tmp_path / "direct.csv").read_bytes()


@pytest.fixture
def in_process(monkeypatch):
    """Every rung of the step ladder runs in this process, in ladder
    order, so that a patched simulate sees each call; test_integrator
    checks that the forked rung gives the same result."""
    monkeypatch.setattr(integrator, "_spare_cpu", lambda: False)


@pytest.fixture
def spds(monkeypatch, in_process):
    """The steps per delay of each simulate call the CLI makes, itself or
    through the step ladder."""
    calls = []

    def record(*a, **k):
        calls.append(a[3])
        return simulate(*a, **k)

    monkeypatch.setattr(integrator, "simulate", record)
    return calls


def test_explicit_steps_per_delay_is_one_run(tmp_path, spds):
    extra = "t_end = 300\nu0 = 1.01\nv0 = 0.99\nsteps_per_delay = 50\n"
    sim = run(parse_config(cfg("Simulate", extra=extra, s="2.02")), tmp_path)["simulation"]
    assert spds == [50]
    assert sim["steps_per_delay"] == 50 and sim["step_error_estimate"] is None
    # the bytes this run wrote before the step ladder existed
    body = (tmp_path / "trajectory.csv").read_bytes()
    assert hashlib.sha256(body).hexdigest() == (
        "06a2cdc597791cc8bd39b0f852f00617c2006eabc53a544842370a61eaa088b9")


_SHORT_RUN = "t_end = 30\nu0 = 1.05\nv0 = 0.95\n"


def _ladder_states(t_end, *spds):
    history = HistorySpec.constant(1.05, 0.95)
    return [simulate(make_params(2.0), history, t_end, spd).states for spd in spds]


def test_step_ladder_out_of_reach_runs_the_top_rung(tmp_path, monkeypatch, spds):
    monkeypatch.setattr(integrator, "_STEP_RTOL", 1e-30)
    doc = run(parse_config(cfg("Simulate", extra=_SHORT_RUN)), tmp_path)
    sim = doc["simulation"]
    # the spd 50 estimate misses by more than 16x, so spd 100 is skipped
    assert spds == [25, 50, 200]
    assert sim["steps_per_delay"] == 200 and sim["step"] == 2.0 / 200
    x50, x200 = _ladder_states(30.0, 50, 200)
    m = min(len(x50), len(x200[::4]))
    estimate = sim["step_error_estimate"]
    gap = np.abs(x200[::4][:m] - x50[:m]).max(axis=0)
    assert estimate == (gap / np.abs(x200).max(axis=0)).max() / 255
    assert doc["notes"] == [f"steps_per_delay = 200: step-doubling error estimate "
                            f"{estimate:.3g} exceeds the tolerance 1e-30"]
    simulate(make_params(2.0), HistorySpec.constant(1.05, 0.95), 30.0, 200).to_csv(
        tmp_path / "direct.csv")
    assert (tmp_path / "trajectory.csv").read_bytes() == (tmp_path / "direct.csv").read_bytes()
    assert _hidden(tmp_path) == []


def test_step_ladder_climbs_to_spd_100_within_16x(tmp_path, monkeypatch, spds):
    x25, x50, x100 = _ladder_states(30.0, 25, 50, 100)
    e50 = integrator._step_error(25, x25, 50, x50)
    monkeypatch.setattr(integrator, "_STEP_RTOL", e50 / 4.0)
    doc = run(parse_config(cfg("Simulate", extra=_SHORT_RUN)), tmp_path)
    sim = doc["simulation"]
    assert spds == [25, 50, 100] and doc["notes"] == []
    assert sim["steps_per_delay"] == 100
    assert sim["step_error_estimate"] == integrator._step_error(50, x50, 100, x100) <= e50 / 4.0
    simulate(make_params(2.0), HistorySpec.constant(1.05, 0.95), 30.0, 100).to_csv(
        tmp_path / "direct.csv")
    assert (tmp_path / "trajectory.csv").read_bytes() == (tmp_path / "direct.csv").read_bytes()


def test_step_ladder_diverged_rung_goes_to_the_top(tmp_path, monkeypatch, in_process):
    spds = []

    def spd_100_diverges(params, history, t_end, spd, **kw):
        spds.append(spd)
        if spd == 100:
            raise SimulationDiverged(1.0)
        return simulate(params, history, t_end, spd, **kw)

    monkeypatch.setattr(integrator, "simulate", spd_100_diverges)
    x25, x50, x200 = _ladder_states(30.0, 25, 50, 200)
    monkeypatch.setattr(integrator, "_STEP_RTOL", integrator._step_error(25, x25, 50, x50) / 4.0)
    doc = run(parse_config(cfg("Simulate", extra=_SHORT_RUN)), tmp_path)
    sim = doc["simulation"]
    assert spds == [25, 50, 100, 200] and doc["notes"] == []
    # the finest trajectory below the top, spd 50, gives the estimate
    assert sim["diverged"] is False and sim["steps_per_delay"] == 200
    assert sim["step_error_estimate"] == integrator._step_error(50, x50, 200, x200)


def test_step_ladder_stiff_config_is_not_a_divergence(tmp_path, spds):
    # mu + r = 104: at spd 25 and 50 the w-equation's lambda*h is -8.3 and
    # -4.2, outside RK4's stability interval, and those runs blow up; at
    # spd 200 it is -1.0 and the run is fine
    text = cfg("Simulate", extra=_SHORT_RUN).replace("mu = 2.0\n", "mu = 100.0\n")
    doc = run(parse_config(text), tmp_path)
    sim = doc["simulation"]
    assert spds == [25, 200]
    assert sim["diverged"] is False and sim["steps_per_delay"] == 200
    assert sim["step_error_estimate"] is None
    # the run's note, then Direction's
    assert doc["notes"] == ["steps_per_delay = 200: no step-doubling error estimate, "
                            "no coarser run reached t_end",
                            "no predicted period: |delta| = 0.248555 is past valid_below = "
                            "0.0324128, where the predicted w-amplitude reaches w*"]
    assert (tmp_path / "trajectory.csv").exists() and _hidden(tmp_path) == []


def test_step_ladder_divergence_stays_in_band(tmp_path, spds):
    extra = "t_end = 10\nu0 = 1000\nv0 = 1000\n"
    rc = main([str(_write(tmp_path, cfg("Simulate", extra=extra))),
               "--output-dir", str(tmp_path / "out")])
    assert rc == 0
    doc = json.loads((tmp_path / "out" / "report.json").read_text())
    sim = doc["simulation"]
    # spd 25 diverges, so the top rung runs, and its divergence is reported
    assert spds == [25, 200]
    with pytest.raises(SimulationDiverged) as spd200:
        simulate(make_params(2.0), HistorySpec.constant(1000.0, 1000.0), 10.0, 200)
    assert sim["diverged"] is True and sim["diverged_at"] == spd200.value.time
    assert sim["steps_per_delay"] == 200 and sim["step_error_estimate"] is None
    assert sim["classification"] == "Diverges"
    assert not (tmp_path / "out" / "trajectory.csv").exists()
    assert _hidden(tmp_path / "out") == []
    assert any("diverged" in note for note in doc["notes"])


# (s, the config lines after it, the model lines replaced) of a Simulate
# run per case
_SIMULATE_ANALYSIS = {
    "reference, s = 2.02": ("2.02", _REFERENCE_RUN, ()),
    "stiff, mu = 100": ("2.0", _SHORT_RUN, (("mu = 2.0\n", "mu = 100.0\n"),)),
    "s = 0": ("0", "t_end = 300\nu0 = 1.01\nv0 = 0.99\n", ()),
}


@pytest.mark.parametrize("s, extra, edits", list(_SIMULATE_ANALYSIS.values()),
                         ids=list(_SIMULATE_ANALYSIS))
def test_simulate_reports_directions_analysis(tmp_path, s, extra, edits):
    # Simulate reads the pass Direction reads: the same equilibria, s0 and
    # normal form bit for bit, and Direction's notes after its run's
    text = cfg("Simulate", extra=extra, s=s)
    for old, new in edits:
        text = text.replace(old, new)
    sim = run(parse_config(text), tmp_path / "Simulate")
    direction = run(parse_config(text.replace("Simulate", "Direction")), tmp_path / "Direction")
    assert sim["s0"] is not None and sim["normal_form"] is not None
    for key in "equilibria", "s0", "normal_form":
        assert json.dumps(sim[key]) == json.dumps(direction[key]), key
    tail = len(sim["notes"]) - len(direction["notes"])
    assert sim["notes"][tail:] == direction["notes"]
    assert not any("stability switch" in note or "predicted" in note
                   for note in sim["notes"][:tail])


def test_simulate_reports_orthant_exit_before_divergence(tmp_path):
    extra = "t_end = 700\nu0 = 1.01\nv0 = 0.99\nsteps_per_delay = 200\n"
    run(parse_config(cfg("Simulate", extra=extra, s=repr(S_STAR + 0.02))), tmp_path)
    sim = json.loads((tmp_path / "report.json").read_text())["simulation"]
    assert sim["diverged"] is True
    assert 0.0 < sim["left_positive_orthant_at"] < sim["diverged_at"]
    with open(tmp_path / "report.csv", newline="") as fh:
        rows = dict(csv.reader(fh))
    assert float(rows["simulation.left_positive_orthant_at"]) == sim["left_positive_orthant_at"]


def test_simulate_without_coexistence_point(tmp_path):
    # b2 = -0.5 leaves no coexistence point; the run stays bounded, on its
    # way to E1 = (1/a1, 0, 0), and writes its trajectory, but has nothing
    # to measure a cycle against
    extra = "t_end = 50\nu0 = 1.01\nv0 = 0.99\n"
    text = cfg("Simulate", extra=extra, s="2.02").replace("b2 = 0.27", "b2 = -0.5")
    d = run(parse_config(text), tmp_path)
    sim = d["simulation"]
    assert d["equilibria"][3]["exists"] is False
    assert sim["diverged"] is False and sim["t_end"] >= 50.0
    assert sim["left_positive_orthant_at"] is None
    u, v, w = sim["final_state"]
    assert abs(u - 20.0) < 0.1 and 0.0 < v < 1e-3 and 0.0 < w < 1e-2
    assert all(sim[f.name] is None for f in fields(CycleMetrics))
    # without E* no analysis pass runs, so Direction's note is not added
    assert d["s0"] is None and d["normal_form"] is None
    assert d["notes"] == ["coexistence equilibrium does not exist; cycle metrics skipped"]
    lines = (tmp_path / "trajectory.csv").read_text().splitlines()
    assert lines[0] == "t,u,v,w" and len(lines) == 2 + round(sim["t_end"] / sim["step"])


def test_positive_point_with_negative_denominator_note(tmp_path):
    # u* = 3.529, v* = 0.8235 is a fixed point, but D = -0.85 < 0 makes
    # it unstable at every delay; the notes say so instead of "does not
    # exist"
    model = "r1 = 0.5\nr2 = 0.5\na1 = 0.05\na2 = 0.5\nb1 = 1\nb2 = -1\nmu = 2\nr = 4\ns = 1\n"
    why = "coexistence point is positive but D = a1*a2*(mu+r) + b1*b2 < 0: unstable at every delay; "
    d = run(parse_config(f"command = Analyze\n{model}"), tmp_path / "Analyze")
    assert d["equilibria"][3]["exists"] is False
    assert d["notes"] == [why + "delay analysis is not applicable"]
    text = f"command = Simulate\n{model}t_end = 5\nu0 = 3.5\nv0 = 0.8\n"
    d = run(parse_config(text), tmp_path / "Simulate")
    assert d["simulation"]["diverged"] is False
    assert d["notes"] == [why + "cycle metrics skipped"]


def test_near_double_root_note(tmp_path, monkeypatch):
    # Analyze and Critical add the note when G has an unresolved pair
    import infodelay.cli as cli
    monkeypatch.setattr(cli, "near_double_root", lambda g: 0.04)
    for command in ("Analyze", "Critical"):
        notes = run(parse_config(cfg(command)), tmp_path / command)["notes"]
        assert any("z = 0.04 " in note and "may have been added or dropped" in note
                   for note in notes), notes
    notes = run(parse_config(cfg("Direction")), tmp_path / "Direction")["notes"]
    assert notes == []


def test_simulate_plot_outputs(tmp_path):
    extra = "t_end = 30\nu0 = 1.05\nv0 = 0.95\nsteps_per_delay = 50\n"
    conf = _write(tmp_path, cfg("Simulate", extra=extra))
    out1, out2 = tmp_path / "p1", tmp_path / "p2"
    assert main([str(conf), "--output-dir", str(out1), "--plot"]) == 0
    assert main([str(conf), "--output-dir", str(out2), "--plot"]) == 0
    names = ["waveform_u.svg", "waveform_v.svg", "waveform_w.svg",
             "phase_uv.svg", "phase_uvw_projection.svg"]
    for name in names:
        body = (out1 / name).read_text()
        assert body.startswith("<svg") and body.rstrip().endswith("</svg>")
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    assert (out1 / "trajectory.csv").read_bytes() == \
        (out2 / "trajectory.csv").read_bytes()


# --------------------------------------------------------------------------
# sweep command


def test_sweep_rows_match_direct_computation(tmp_path):
    extra = ("sweep_param = mu\nsweep_min = 1.5\nsweep_max = 3.0\n"
             "sweep_count = 4\n")
    run(parse_config(cfg("Sweep", extra=extra)), tmp_path)
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    assert lines[0] == "param,value,s0,chi1,chi2,direction"
    assert len(lines) == 5
    for line in lines[1:]:
        name, value, s0_cell, chi1, chi2, direction = line.split(",")
        assert name == "mu"
        p = make_params(2.0, mu=float(value))
        got = hopf_candidates(char_coeffs(p, coexistence(p)))[0]
        assert float(s0_cell) == got.delays[0]
        nf = compute_normal_form(p)
        assert float(chi1) == nf.chi1
        assert float(chi2) == nf.chi2
        assert direction == nf.direction.value


def _chain_row(out_dir, values):
    """A sweep row from the N = 1 Analyze report of the same point; cells
    stay empty where the report has nothing, or the point is invalid."""
    try:
        doc = run(RunConfig(command=Command.ANALYZE, param_values=values), out_dir)
    except ValueError:
        return dict.fromkeys(_SWEEP_COLUMNS[1:])
    nf = doc["normal_form"] or {}
    return {"s0": doc["s0"], **{key: nf.get(key) for key in _SWEEP_COLUMNS[2:]}}


# (swept key, min, max, count): the counts straddle the 512-point block
# (one point, one block minus one, exactly one, one more, two blocks and
# a partial third); the grids cover every kind of row. parse_config
# rejects an invalid sweep_min, so the r1 grid goes in as a RunConfig.
_SWEEP_GRIDS = {
    "invalid r1 <= 0, then supercritical": ("r1", -0.5, 0.5, 513),
    "no coexistence, super- and subcritical": ("a2", 0.9, 1.5, 512),
    "subcritical, supercritical, no coexistence": ("b1", 0.5, 1.3, 511),
    "no crossing near b1 = 0, subcritical": ("b1", -0.3, 0.3, 1100),
    "one point": ("mu", 2.5, 2.5, 1),
}


@pytest.mark.parametrize("param, lo, hi, count", list(_SWEEP_GRIDS.values()),
                         ids=list(_SWEEP_GRIDS))
def test_sweep_rows_equal_the_one_point_chain(tmp_path, param, lo, hi, count):
    # a Sweep's 512-point blocks and their scattering change no row: each
    # equals the cells of its point's own Analyze report
    config = RunConfig(command=Command.SWEEP, param_values={**REFERENCE, "s": 2.0},
                       sweep_param=param, sweep_min=lo, sweep_max=hi, sweep_count=count)
    rows = run(config, tmp_path / "sweep")["sweep"]["rows"]
    assert len(rows) == count
    kinds = set()
    for row in rows:
        want = _chain_row(tmp_path / "analyze", {**REFERENCE, "s": 2.0, param: row["value"]})
        assert row == {"value": row["value"], **want}
        kinds.add(row["direction"] or ("no chi" if row["s0"] else "empty"))
    assert count == 1 or len(kinds) >= 2, kinds


def _csv_text(rows):
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


@pytest.mark.parametrize("name", list(_SWEEP_GRIDS))
def test_sweep_files_equal_the_reference_encoders(tmp_path, name):
    param, lo, hi, count = _SWEEP_GRIDS[name]
    config = RunConfig(command=Command.SWEEP, param_values={**REFERENCE, "s": 2.0},
                       sweep_param=param, sweep_min=lo, sweep_max=hi, sweep_count=count)
    doc = run(config, tmp_path)
    report_json = (tmp_path / "report.json").read_text(encoding="utf-8")
    assert report_json == json.dumps(doc, indent=2) + "\n"
    leaves = [[key, format(v, ".17g") if isinstance(v, float) else json.dumps(v)]
              for key, v in _dotted_leaves(doc)]
    assert (tmp_path / "report.csv").read_text(encoding="utf-8") == _csv_text(
        [["key", "value"], *leaves])
    rows = doc["sweep"]["rows"]
    cells = [[param, *("" if v is None else format(v, ".17g") if isinstance(v, float) else v
                       for v in row.values())] for row in rows]
    assert (tmp_path / "sweep.csv").read_text(encoding="utf-8") == _csv_text(
        [["param", "value", "s0", "chi1", "chi2", "direction"], *cells])
    assert len(rows) == count
    if name == "no crossing near b1 = 0, subcritical":
        # one chi1 near the super/subcritical border, 6.05e-05, is a cell
        # that repr and %.17g both print in exponent form
        assert re.search(r'": -?\d\.\d+e-\d+,?$', report_json, re.MULTILINE)


def test_sweep_cell_that_is_not_finite(tmp_path, monkeypatch):
    # a computed chi1 that is not finite is null in both reports, but
    # sweep.csv prints it, since only absent cells are empty there
    real = cli.normal_forms

    def with_infinite_chi1(grid):
        nfs = real(grid)
        nfs.Gamma1[0] = complex(math.inf, 0.0)
        return nfs

    monkeypatch.setattr(cli, "normal_forms", with_infinite_chi1)
    extra = "sweep_param = mu\nsweep_min = 1.5\nsweep_max = 3.0\nsweep_count = 4\n"
    doc = run(parse_config(cfg("Sweep", extra=extra)), tmp_path)
    assert (tmp_path / "report.json").read_text() == json.dumps(doc, indent=2) + "\n"
    row = doc["sweep"]["rows"][0]
    assert row["chi1"] is None and row["chi2"] is not None and row["direction"] is not None
    assert "sweep.rows.0.chi1,null\n" in (tmp_path / "report.csv").read_text()
    cells = (tmp_path / "sweep.csv").read_text().splitlines()[1].split(",")
    assert cells[3] == "inf" and cells[4] == format(row["chi2"], ".17g")


def test_sweep_over_s_notes_that_its_rows_do_not_depend_on_s(tmp_path):
    extra = "sweep_param = s\nsweep_min = 0.5\nsweep_max = 40\nsweep_count = 6\n"
    doc = run(parse_config(cfg("Sweep", extra=extra, s=None)), tmp_path)
    rows = doc["sweep"]["rows"]
    assert [row["value"] for row in rows] == np.linspace(0.5, 40.0, 6).tolist()
    assert all({**row, "value": 0} == {**rows[0], "value": 0} for row in rows)
    assert rows[0]["s0"] == S_STAR and rows[0]["direction"] == "Supercritical"
    assert doc["notes"] == ["s0, chi1, chi2 and the direction do not depend on s: "
                            "every row of a sweep over s is the same"]
    # any other swept key gets no such note
    extra = "sweep_param = mu\nsweep_min = 1.5\nsweep_max = 3.0\nsweep_count = 2\n"
    assert run(parse_config(cfg("Sweep", extra=extra)), tmp_path / "mu")["notes"] == []


def test_sweep_reports_empty_cells_when_analysis_is_inapplicable(tmp_path):
    # b1 > a2 kills the coexistence point across the whole grid
    extra = ("sweep_param = b1\nsweep_min = 1.1\nsweep_max = 1.3\n"
             "sweep_count = 3\n")
    rc = main([str(_write(tmp_path, cfg("Sweep", extra=extra))),
               "--output-dir", str(tmp_path / "out")])
    assert rc == 0
    lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
    assert len(lines) == 4
    for line in lines[1:]:
        assert line.endswith(",,,,")


# --------------------------------------------------------------------------
# entry point


def _write(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return path


def test_main_success_and_message(tmp_path, capsys):
    conf = _write(tmp_path, cfg("Analyze"))
    assert main([str(conf), "--output-dir", str(tmp_path / "out")]) == 0
    out = capsys.readouterr().out
    assert "finished" in out


def test_main_reads_a_config_saved_with_a_byte_order_mark(tmp_path):
    # a UTF-8 byte-order mark is not part of the first key
    text = cfg("Analyze", s="2.02")
    plain, marked = _write(tmp_path, text), tmp_path / "marked.cfg"
    marked.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
    assert main([str(plain), "--output-dir", str(tmp_path / "plain")]) == 0
    assert main([str(marked), "--output-dir", str(tmp_path / "marked")]) == 0
    assert (tmp_path / "marked" / "report.json").read_bytes() == \
        (tmp_path / "plain" / "report.json").read_bytes()


def test_main_invalid_config_exits_1(tmp_path, capsys):
    conf = _write(tmp_path, cfg("Analyze", extra="bogus = 1\n"))
    assert main([str(conf)]) == 1
    assert "invalid config" in capsys.readouterr().err


def test_main_config_without_command_exits_1(tmp_path, capsys):
    conf = _write(tmp_path, MODEL_LINES + "\ns = 2.0\n")
    assert main([str(conf), "--output-dir", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == "error: invalid config: missing required keys: command\n"
    assert not (tmp_path / "out").exists()


def test_main_unreadable_config_exits_2(tmp_path, capsys):
    assert main([str(tmp_path / "missing.cfg")]) == 2
    assert capsys.readouterr().err != ""


def test_main_unwritable_output_exits_2(tmp_path, capsys):
    conf = _write(tmp_path, cfg("Analyze"))
    blocker = tmp_path / "blocked"
    blocker.write_text("a file, not a directory\n")
    assert main([str(conf), "--output-dir", str(blocker)]) == 2
    assert capsys.readouterr().err != ""
