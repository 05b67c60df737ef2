"""Tests of the benchmark's own checker, inputs and span arithmetic.

    python -m pytest perfbench/test_check.py

They read the pinned references and run no child process.
"""
import copy
import json
from pathlib import Path

import pytest

import check
import layers
import run
import workloads


def _outputs(name: str) -> dict:
    """A run's outputs as the reference pins them, plus the trajectory
    facts the reference does not store."""
    out = copy.deepcopy(check.reference(name))
    if name == "simulate-cycle":
        sim = out["simulation"]
        out.update(header="t,u,v,w", rows=round(sim["t_end"] / sim["step"]) + 1,
                   t_last=sim["t_end"], fft_period=sim["period"] * 1.003,
                   plots=sorted(check.PLOTS))
    if name == "analyze-sweep":
        out["sweep_report_rows"] = len(out["sweep"])
    return out


def _inputs(name: str, seed: int = workloads.DEFAULT_SEED) -> dict:
    return workloads.make_inputs(name, seed)


@pytest.mark.parametrize("name", list(workloads.WORKLOADS))
def test_reference_outputs_pass(name):
    assert check.check(_inputs(name), _outputs(name)) == []


def test_flipped_verdicts_fail():
    out = _outputs("simulate-cycle")
    out["simulation"]["classification"] = "Inconclusive"
    assert check.check(_inputs("simulate-cycle"), out)

    out = _outputs("analyze-sweep")
    row = next(r for r in out["sweep"] if r["direction"] == "Supercritical")
    row["direction"] = "Subcritical"
    assert check.check(_inputs("analyze-sweep"), out)

    out = _outputs("memory-ladder")
    out["ladder"]["rungs"][3]["classification"] = "SustainedOscillation"
    assert check.check(_inputs("memory-ladder"), out)


@pytest.mark.parametrize("rel, fails", [(1e-3, True), (-1e-3, True), (2e-5, False)])
def test_period_tolerance(rel, fails):
    out = _outputs("simulate-cycle")
    out["simulation"]["period"] *= 1.0 + rel
    assert bool(check.check(_inputs("simulate-cycle"), out)) is fails

    out = _outputs("memory-ladder")
    out["ladder"]["rungs"][1]["period"] *= 1.0 + rel
    assert bool(check.check(_inputs("memory-ladder"), out)) is fails


def test_analysis_digits_and_pair_gap_fail():
    out = _outputs("analyze-sweep")
    out["analyze"]["normal_form"]["chi1"] *= 1.0 + 1e-7
    assert check.check(_inputs("analyze-sweep"), out)

    out = _outputs("memory-ladder")
    out["pair"]["node_gap"] = 2e-4
    assert check.check(_inputs("memory-ladder"), out)


def test_other_seeds_check_invariants_only():
    # a perturbed run may differ from the reference, but not in its verdicts
    out = _outputs("simulate-cycle")
    out["simulation"]["period"] *= 1.001
    assert check.check(_inputs("simulate-cycle", seed=7), out) == []
    out["fft_period"] = out["simulation"]["period"] * 1.03
    assert check.check(_inputs("simulate-cycle", seed=7), out)


def test_inputs_follow_the_seed():
    for name in workloads.WORKLOADS:
        assert _inputs(name, 5) == _inputs(name, 5)
        assert _inputs(name, 5) != _inputs(name, 6)
    base = _inputs("simulate-cycle")["simulate"]
    assert (base["u0"], base["v0"], base["s"]) == (1.01, 0.99, 2.02)
    for seed in range(1, 50):
        sim = _inputs("simulate-cycle", seed)["simulate"]
        assert abs(sim["u0"] / 1.01 - 1.0) <= 0.005
        assert -0.005 <= sim["v0"] / 0.99 - 1.0 <= 0.0015
        ladder = _inputs("memory-ladder", seed)["ladder"]
        for d, nominal in zip(ladder["deltas"], ladder["nominal_deltas"]):
            assert abs(d / nominal - 1.0) <= 0.05
        sweep = _inputs("analyze-sweep", seed)["sweep"]
        assert abs(sweep["sweep_min"] - 0.9) <= 0.6 / 3999


def test_self_time_subtracts_direct_children():
    spans = [["a", -1, 0.0, 10.0, {}], ["b", 0, 1.0, 4.0, {"steps": 3}],
             ["c", 1, 2.0, 3.0, {}], ["b", 0, 5.0, 6.0, {"steps": 1}]]
    totals = layers.span_totals([{"spans": spans, "counters": {}, "missing": {}}])
    assert totals["a"].self_time == pytest.approx(6.0)
    assert totals["b"].self_time == pytest.approx(3.0)
    assert totals["b"].calls == 2 and totals["b"].quantities["steps"] == 4


def test_missing_target_reads_null():
    child = {"spans": [], "counters": {"dropped": 0, "crossing_points": 0},
             "missing": {"stability.char_coeffs": "gone"}}
    values, notes = layers.span_metrics([child])
    assert values["stability.char_coeffs.us_per_call"] is None
    assert values["cubic.cubic_roots.calls"] == 0
    assert notes and "stability.char_coeffs" in notes[0]


def test_unmeasured_quantity_reads_null():
    spans = [["integrator.simulate", -1, 0.0, 2.0, {"measure_error": "KeyError('params')"}]]
    values, notes = layers.span_metrics(
        [{"spans": spans, "counters": {"dropped": 0, "crossing_points": 0}, "missing": {}}])
    assert values["integrator.simulate.calls"] == 1
    assert values["integrator.simulate.steps"] is None
    assert values["integrator.simulate.ns_per_step"] is None
    assert any("integrator.simulate" in note for note in notes)


def test_benchmark_json_lists_the_measured_metrics():
    spec = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [m["unit"] for m in spec["end_to_end"]] == list(run.END_TO_END.values())
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == [
        (m, layers.unit(m), layers.better(m)) for m in layers.METRICS]
    assert [(w["name"], w["why"]) for w in spec["workloads"]] == list(
        workloads.WORKLOADS.items())
