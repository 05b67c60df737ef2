"""Library driver for the memory-ladder workload (runs as a child).

Usage: python perfbench/ladder.py '<inputs as JSON>'

Runs the criterion-7 pair (simulate against simulate_distributed,
compared at the nodes and at off-grid times through dense output) and
the criterion-6 ladder (simulate + cycle_metrics + fft_period at
several offsets past the switch, where the largest ones diverge), then
prints one JSON object with the results. It writes no files.

Calls go through the package's submodules, looked up at call time, so
a traced run can wrap them from outside.
"""
from __future__ import annotations

import json
import sys

import numpy as np

from infodelay import integrator, model, normal_form


def _params(ref: dict, s: float) -> model.ModelParams:
    return model.ModelParams(**ref, s=s)


def pair(ref: dict, inp: dict) -> dict:
    p = _params(ref, inp["s"])
    hist = integrator.HistorySpec.constant(inp["u0"], inp["v0"])
    lumped = integrator.simulate(p, hist, inp["t_end"], inp["steps_per_delay"])
    dist = integrator.simulate_distributed(p, hist, inp["t_end"], inp["steps_per_delay"])
    node_gap = float(np.abs(lumped.states[:, :2] - dist.states[:, :2]).max())
    span = min(lumped.t_end, dist.t_end)
    n = inp["offgrid_points"]
    # a fractional offset that never lands on a node of either grid
    ts = (np.arange(n) + 0.37) * (span / n)
    offgrid_gap = float(np.abs(lumped(ts)[:, :2] - dist(ts)[:, :2]).max())
    return {"nodes": len(lumped.states), "node_gap": node_gap,
            "offgrid_points": n, "offgrid_gap": offgrid_gap}


def ladder(ref: dict, inp: dict) -> dict:
    base = _params(ref, inp["s_base"])
    s_star = normal_form.compute_normal_form(base).s_star
    estar = model.coexistence(base).point
    hist = integrator.HistorySpec.constant(inp["u0"], inp["v0"])
    rungs = []
    for delta in inp["deltas"]:
        rung = {"delta": delta, "classification": None, "period": None,
                "amplitude": None, "fft_period": None, "diverged_at": None}
        try:
            traj = integrator.simulate(_params(ref, s_star + delta), hist,
                                       inp["t_end"], inp["steps_per_delay"])
        except integrator.SimulationDiverged as exc:
            rung["classification"] = "Diverges"
            rung["diverged_at"] = exc.time
        else:
            m = integrator.cycle_metrics(traj, estar)
            rung["classification"] = m.classification.value
            rung["period"] = m.period
            rung["amplitude"] = None if m.amplitude is None else [float(a) for a in m.amplitude]
            tail = traj.states[len(traj.states) // 2:, 0]
            rung["fft_period"] = integrator.fft_period(tail, traj.step)
        rungs.append(rung)
    return {"s_star": s_star, "rungs": rungs}


def main(argv: list[str]) -> int:
    inputs = json.loads(argv[0])
    out = {"pair": pair(inputs["reference"], inputs["pair"]),
           "ladder": ladder(inputs["reference"], inputs["ladder"])}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
