"""Correctness gate for one run of a workload.

read_outputs turns a run's files and child stdout into plain data;
check compares that data with the pinned reference (default seed) or
with invariants that hold for any seed, and returns the failures as
messages. A run counts as failed when the list is not empty.

Stated accuracy (never loosened to make a run pass):
- verdicts, directions and empty sweep cells identical to the reference;
- cycle period and every amplitude component within 1e-4 relative;
- s0, chi1 and chi2 within 1e-8 relative;
- lumped vs distributed gap at most 1e-4, at the nodes and off-grid;
- divergence times within 1e-2 relative.
Any seed: simulate-cycle is sustained with a peak period within 2% of
the FFT period of the tail; every sweep row's direction agrees with
the signs of chi1 and chi2; ladder offsets up to 0.01 stay sustained
and those from 0.02 diverge.
"""
from __future__ import annotations

import csv
import functools
import json
from pathlib import Path

import numpy as np

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

REL_CYCLE = 1e-4
REL_ANALYSIS = 1e-8
PAIR_GAP = 1e-4
REL_DIVERGED_AT = 1e-2
FFT_AGREEMENT = 0.02
SUSTAINED = "SustainedOscillation"
DIVERGES = "Diverges"
PLOTS = ("phase_uv.svg", "phase_uvw_projection.svg", "waveform_u.svg",
         "waveform_v.svg", "waveform_w.svg")
# ladder offsets up to this nominal value keep a bounded cycle
LAST_SUSTAINED_DELTA = 0.01


def fft_period(x: np.ndarray, step: float) -> float:
    """Dominant period by FFT with a parabolic peak refinement; kept
    independent of the package so the check does not trust the code
    it checks."""
    x = x - x.mean()
    mag = np.abs(np.fft.rfft(x))
    k = 1 + int(np.argmax(mag[1:]))
    kk = float(k)
    if k < len(mag) - 1:
        denom = mag[k - 1] - 2.0 * mag[k] + mag[k + 1]
        if denom < 0:
            kk += 0.5 * (mag[k - 1] - mag[k + 1]) / denom
    return len(x) * step / kk


def _read_json(path: Path) -> dict:
    return json.loads(path.read_text(encoding="utf-8"))


def _read_sweep(path: Path) -> list[dict]:
    with open(path, newline="", encoding="utf-8") as fh:
        return list(csv.DictReader(fh))


def _simulate_outputs(out_dir: Path, trajectory: bool) -> dict:
    out = {"simulation": _read_json(out_dir / "report.json")["simulation"]}
    if trajectory:
        path = out_dir / "trajectory.csv"
        with open(path, encoding="utf-8") as fh:
            out["header"] = fh.readline().strip()
        t, u = np.loadtxt(path, delimiter=",", skiprows=1, usecols=(0, 1), unpack=True)
        out["rows"] = len(t)
        out["t_last"] = float(t[-1])
        out["fft_period"] = fft_period(u[len(u) // 2:], float(t[1] - t[0]))
        out["plots"] = sorted(p.name for p in out_dir.glob("*.svg"))
    return out


def read_outputs(name: str, out_dir: Path, stdouts: list[str]) -> dict:
    """Plain-data view of one run: report sections, trajectory facts,
    sweep rows, or the ladder driver's JSON."""
    if name == "simulate-cycle":
        return _simulate_outputs(out_dir, trajectory=True)
    if name == "analyze-sweep":
        return {"analyze": _read_json(out_dir / "analyze" / "report.json"),
                "sweep_report_rows": len(
                    _read_json(out_dir / "sweep" / "report.json")["sweep"]["rows"]),
                "sweep": _read_sweep(out_dir / "sweep" / "sweep.csv")}
    if name == "memory-ladder":
        return json.loads(stdouts[-1].strip().splitlines()[-1])
    raise KeyError(name)


@functools.cache
def reference(name: str) -> dict:
    """Pinned outputs of the default seed, read like a run's outputs."""
    base = REFERENCE_DIR / name
    if name == "simulate-cycle":
        return _simulate_outputs(base, trajectory=False)
    if name == "analyze-sweep":
        return {"analyze": _read_json(base / "analyze" / "report.json"),
                "sweep": _read_sweep(base / "sweep" / "sweep.csv")}
    return _read_json(base / "ladder.json")


class _Failures(list):
    def close(self, what: str, got, want, rel: float) -> None:
        if got is None or want is None:
            if (got is None) != (want is None):
                self.append(f"{what}: got {got!r}, reference {want!r}")
        elif not abs(got - want) <= rel * abs(want):
            self.append(f"{what}: got {got!r}, reference {want!r} (rel tol {rel:g})")

    def same(self, what: str, got, want) -> None:
        if got != want:
            self.append(f"{what}: got {got!r}, reference {want!r}")


def _check_simulate(inputs: dict, out: dict, fails: _Failures) -> None:
    sim = out["simulation"]
    if sim["classification"] != SUSTAINED:
        fails.append(f"verdict {sim['classification']!r}, expected {SUSTAINED!r}")
        return
    gap = abs(sim["period"] - out["fft_period"]) / sim["period"]
    if not gap <= FFT_AGREEMENT:
        fails.append(f"peak period {sim['period']!r} vs FFT {out['fft_period']!r}: "
                     f"{gap:.2%} apart (tol {FFT_AGREEMENT:.0%})")
    fails.same("trajectory header", out["header"], "t,u,v,w")
    fails.same("trajectory rows", out["rows"], round(sim["t_end"] / sim["step"]) + 1)
    fails.close("trajectory end time", out["t_last"], sim["t_end"], 1e-12)
    fails.same("plots", out["plots"], sorted(PLOTS))
    if inputs["pinned"]:
        ref = reference("simulate-cycle")["simulation"]
        fails.same("verdict", sim["classification"], ref["classification"])
        fails.close("period", sim["period"], ref["period"], REL_CYCLE)
        for i, (got, want) in enumerate(zip(sim["amplitude"], ref["amplitude"])):
            fails.close(f"amplitude[{i}]", got, want, REL_CYCLE)


def _check_analyze(report: dict, ref: dict, fails: _Failures) -> None:
    def verdicts(doc):
        return {
            "equilibria": [(e["label"], e["exists"], e["local_stability"])
                           for e in doc["equilibria"]],
            "h1_holds": doc["h1_holds"],
            "transversality": [c["transversality_sign"] for c in doc["candidates"] or []],
            "direction": (doc["normal_form"] or {}).get("direction"),
        }

    for key, want in verdicts(ref).items():
        fails.same(f"Analyze {key}", verdicts(report)[key], want)
    fails.close("Analyze s0", report["s0"], ref["s0"], REL_ANALYSIS)
    nf, nf_ref = report["normal_form"] or {}, ref["normal_form"] or {}
    for key in ("chi1", "chi2"):
        fails.close(f"Analyze {key}", nf.get(key), nf_ref.get(key), REL_ANALYSIS)


def _num(cell: str) -> float | None:
    return None if cell == "" else float(cell)


def _direction_of(chi1: float, chi2: float) -> str:
    prod = chi1 * chi2
    if abs(prod) <= 1e-12:
        return "Degenerate"
    return "Supercritical" if prod > 0 else "Subcritical"


def _check_sweep(inputs: dict, out: dict, fails: _Failures) -> None:
    opts = inputs["sweep"]
    rows = out["sweep"]
    count = opts["sweep_count"]
    fails.same("sweep.csv rows", len(rows), count)
    fails.same("report.json sweep rows", out["sweep_report_rows"], count)
    if len(rows) != count:
        return
    fails.close("first grid value", float(rows[0]["value"]), opts["sweep_min"], 1e-12)
    fails.close("last grid value", float(rows[-1]["value"]), opts["sweep_max"], 1e-12)
    branches = set()
    for i, row in enumerate(rows):
        chi1, chi2, direction = _num(row["chi1"]), _num(row["chi2"]), row["direction"]
        branches.add(direction)
        want = "" if chi1 is None or chi2 is None else _direction_of(chi1, chi2)
        if direction != want:
            fails.append(f"sweep row {i}: direction {direction!r} but chi1={chi1!r}, "
                         f"chi2={chi2!r}")
    missing = {"", "Supercritical", "Subcritical"} - branches
    if missing:
        fails.append(f"sweep misses the branches {sorted(missing)}")
    if inputs["pinned"]:
        for i, (row, ref) in enumerate(zip(rows, reference("analyze-sweep")["sweep"])):
            fails.close(f"sweep row {i} value", float(row["value"]), float(ref["value"]), 1e-15)
            fails.same(f"sweep row {i} direction", row["direction"], ref["direction"])
            for key in ("s0", "chi1", "chi2"):
                fails.close(f"sweep row {i} {key}", _num(row[key]), _num(ref[key]),
                            REL_ANALYSIS)


def _check_ladder(inputs: dict, out: dict, fails: _Failures) -> None:
    pair = out["pair"]
    for key in ("node_gap", "offgrid_gap"):
        if not pair[key] <= PAIR_GAP:
            fails.append(f"lumped vs distributed {key} {pair[key]!r} (tol {PAIR_GAP:g})")
    nominal = inputs["ladder"]["nominal_deltas"]
    rungs = out["ladder"]["rungs"]
    fails.same("ladder rungs", len(rungs), len(nominal))
    for d, rung in zip(nominal, rungs):
        want = SUSTAINED if d <= LAST_SUSTAINED_DELTA else DIVERGES
        fails.same(f"ladder delta {d:g} verdict", rung["classification"], want)
        if want == DIVERGES and rung["diverged_at"] is None:
            fails.append(f"ladder delta {d:g}: diverged without a divergence time")
    if inputs["pinned"]:
        ref = reference("memory-ladder")
        fails.close("s_star", out["ladder"]["s_star"], ref["ladder"]["s_star"], REL_ANALYSIS)
        for d, rung, want in zip(nominal, rungs, ref["ladder"]["rungs"]):
            fails.same(f"ladder delta {d:g} verdict", rung["classification"],
                       want["classification"])
            fails.close(f"ladder delta {d:g} period", rung["period"], want["period"],
                        REL_CYCLE)
            for i, (got, amp) in enumerate(zip(rung["amplitude"] or [],
                                               want["amplitude"] or [])):
                fails.close(f"ladder delta {d:g} amplitude[{i}]", got, amp, REL_CYCLE)
            fails.close(f"ladder delta {d:g} divergence time", rung["diverged_at"],
                        want["diverged_at"], REL_DIVERGED_AT)


def check(inputs: dict, out: dict) -> list[str]:
    """Failures of one run at the stated accuracy; empty when it passes."""
    fails = _Failures()
    name = inputs["workload"]
    if name == "simulate-cycle":
        _check_simulate(inputs, out, fails)
    elif name == "analyze-sweep":
        # Analyze inputs do not depend on the seed, so it always meets the reference
        _check_analyze(out["analyze"], reference(name)["analyze"], fails)
        _check_sweep(inputs, out, fails)
    else:
        _check_ladder(inputs, out, fails)
    return list(fails)
