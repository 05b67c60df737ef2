"""The three workloads: seeded inputs and the child processes of one run.

Every workload draws its inputs from the seed alone. The default seed
gives the unperturbed reference inputs, whose outputs are pinned under
reference/; any other seed perturbs them within ranges that keep every
verdict on the same side of the switch and of the lost-cycle region:

- u0 by +-0.5% and v0 by -0.5% .. +0.15%. v0 is capped above because
  at +0.5% the s = 2.02 orbit starts so close to the equilibrium that
  the retained window still sees the growing envelope and the verdict
  turns Inconclusive (+0.25% is still sustained).
- the sweep endpoints by up to one grid step each;
- the ladder offsets by +-5% (the cycle is sustained up to at least
  delta = 0.0105 and lost from at most delta = 0.019).
"""
from __future__ import annotations

import json
import random
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
DEFAULT_SEED = 0

WORKLOADS = {
    "simulate-cycle": "the user's cycle check: one Simulate --plot CLI call, "
                      "dominated by the RK4 loop and the trajectory CSV writer",
    "analyze-sweep": "Analyze then a 4000-point Sweep as two CLI calls: import cost "
                     "and the analysis chain on every sweep branch, no integration",
    "memory-ladder": "library driver: lumped vs distributed-memory pair with dense "
                     "output, then a five-offset ladder; no CSV, plots or CLI",
}

# the README reference parameter set; the coexistence point is (1, 1, 1/6)
REFERENCE = {"r1": 0.5, "r2": 0.5, "a1": 0.05, "a2": 1.045, "b1": 0.95,
             "b2": 0.27, "mu": 2.0, "r": 4.0}
U0, V0 = 1.01, 0.99
U0_JITTER = (-0.005, 0.005)
V0_JITTER = (-0.005, 0.0015)
SWEEP_MIN, SWEEP_MAX, SWEEP_COUNT = 0.9, 1.5, 4000
LADDER_DELTAS = (0.002, 0.005, 0.01, 0.02, 0.05)
LADDER_JITTER = 0.05


def make_inputs(name: str, seed: int) -> dict:
    """Inputs of one workload; equal seeds give equal inputs."""
    rng = random.Random(f"{name}:{seed}")
    pinned = seed == DEFAULT_SEED

    def jitter(lo: float, hi: float) -> float:
        return 0.0 if pinned else rng.uniform(lo, hi)

    def history() -> dict:
        return {"u0": U0 * (1.0 + jitter(*U0_JITTER)),
                "v0": V0 * (1.0 + jitter(*V0_JITTER))}

    inputs = {"workload": name, "seed": seed, "pinned": pinned}
    if name == "simulate-cycle":
        inputs["simulate"] = {**REFERENCE, "s": 2.02, "t_end": 5000.0, **history()}
    elif name == "analyze-sweep":
        step = (SWEEP_MAX - SWEEP_MIN) / (SWEEP_COUNT - 1)
        inputs["analyze"] = {**REFERENCE, "s": 2.02}
        inputs["sweep"] = {**REFERENCE, "s": 2.02, "sweep_param": "a2",
                           "sweep_min": SWEEP_MIN + jitter(-step, step),
                           "sweep_max": SWEEP_MAX + jitter(-step, step),
                           "sweep_count": SWEEP_COUNT}
        del inputs["sweep"]["a2"]
    elif name == "memory-ladder":
        inputs["reference"] = dict(REFERENCE)
        inputs["pair"] = {"s": 2.0, "t_end": 500.0, "steps_per_delay": 400,
                          "offgrid_points": 10_000, **history()}
        inputs["ladder"] = {
            "s_base": 2.0, "t_end": 5000.0, "steps_per_delay": 50, **history(),
            "nominal_deltas": list(LADDER_DELTAS),
            "deltas": [d * (1.0 + jitter(-LADDER_JITTER, LADDER_JITTER))
                       for d in LADDER_DELTAS]}
    else:
        raise KeyError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    return inputs


def _config(command: str, values: dict) -> str:
    lines = [f"command = {command}"]
    lines += [f"{k} = {v}" if isinstance(v, str) else f"{k} = {v!r}"
              for k, v in values.items()]
    return "\n".join(lines) + "\n"


def commands(inputs: dict, in_dir: Path, out_dir: Path, traced: bool) -> list[list[str]]:
    """Write the configs for one run into in_dir and return the child
    command lines, in order. Program outputs go under out_dir; a traced
    child writes its spans to in_dir/spans-<i>.json."""
    py = sys.executable
    name = inputs["workload"]
    if name == "simulate-cycle":
        cfg = in_dir / "simulate.cfg"
        cfg.write_text(_config("Simulate", inputs["simulate"]), encoding="utf-8")
        calls = [("cli", [str(cfg), "--output-dir", str(out_dir), "--plot"])]
    elif name == "analyze-sweep":
        calls = []
        for command, key in (("Analyze", "analyze"), ("Sweep", "sweep")):
            cfg = in_dir / f"{key}.cfg"
            cfg.write_text(_config(command, inputs[key]), encoding="utf-8")
            calls.append(("cli", [str(cfg), "--output-dir", str(out_dir / key)]))
    else:
        payload = {k: inputs[k] for k in ("reference", "pair", "ladder")}
        calls = [("ladder", [json.dumps(payload)])]

    argvs = []
    for i, (kind, args) in enumerate(calls):
        if traced:
            argvs.append([py, str(BENCH / "trace_child.py"),
                          str(in_dir / f"spans-{i}.json"), kind, *args])
        elif kind == "cli":
            argvs.append([py, "-m", "infodelay", *args])
        else:
            argvs.append([py, str(BENCH / "ladder.py"), *args])
    return argvs
