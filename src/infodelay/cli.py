"""Config-driven command line front end.

A run is described by a flat key = value file (# starts a comment).
The command key selects what happens:

    Critical   equilibria, crossing candidates and the first switch s0
    Direction  the above plus the amplitude-equation classification and
               the cycle it predicts at the configured s
    Analyze    both of the above in one report
    Simulate   time integration from a constant history, with metrics
    Sweep      s0 / chi1 / chi2 / direction along one parameter axis

Every run writes report.json and report.csv (the same content, nested
vs. flattened); Simulate adds trajectory.csv and, with --plot, five SVG
figures; Sweep adds sweep.csv. Outputs are byte-stable for identical
inputs. Exit codes: 0 on success (including analytically degenerate
cases, which are reported in-band), 1 for an invalid config, 2 for
filesystem trouble.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from dataclasses import dataclass, fields
from enum import Enum
from pathlib import Path

import numpy as np

from .integrator import (
    HistorySpec,
    SimulationDiverged,
    cycle_metrics,
    simulate,
)
from .model import Equilibrium, ModelParams, ParamGrid, State, equilibria
from .normal_form import (Direction, NormalForm, NormalForms, ResonanceError, classify,
                          compute_normal_form, eigen_residuals, linearize, normal_forms,
                          predicted_amplitude, predicted_component_amplitudes, predicted_period)
from .plots import trajectory_plots
from .stability import (CharCoeffs, GCubic, HopfCandidate, char_coeffs, crossing_drift, g_cubic,
                        h1_holds, hopf_candidates, near_double_root)

__all__ = [
    "Command",
    "ConfigError",
    "SweepOpts",
    "RunConfig",
    "AnalysisReport",
    "parse_config",
    "run",
    "main",
]

_MODEL_KEYS = ("r1", "r2", "a1", "a2", "b1", "b2", "mu", "r", "s")
_FLOAT_KEYS = _MODEL_KEYS + ("t_end", "transient_fraction", "u0", "v0", "w0",
                             "sweep_min", "sweep_max")
_INT_KEYS = ("steps_per_delay", "sweep_count")
_STR_KEYS = ("command", "sweep_param")
_ALL_KEYS = _FLOAT_KEYS + _INT_KEYS + _STR_KEYS

_DEFAULT_STEPS_PER_DELAY = 200
_DEFAULT_TRANSIENT_FRACTION = 0.5
# points per normal_forms call in a Sweep: large enough to amortize the
# per-call overhead, small enough that a block's stacked arrays stay a
# few MB at any sweep_count
_SWEEP_BLOCK = 512
# CycleMetrics fields in the order the Simulate report writes them
_CYCLE_KEYS = ("classification", "amplitude", "period", "n_periods_measured",
               "spacing_cv", "envelope_ratio", "max_deviation")


class Command(str, Enum):
    ANALYZE = "Analyze"
    CRITICAL = "Critical"
    DIRECTION = "Direction"
    SIMULATE = "Simulate"
    SWEEP = "Sweep"


class ConfigError(Exception):
    """The config file cannot be turned into a valid run."""


@dataclass(frozen=True)
class SweepOpts:
    param: str
    lo: float
    hi: float
    count: int


@dataclass(frozen=True)
class RunConfig:
    """Validated run description.

    param_values holds the model keys present in the config; only a
    Sweep may omit one, and then only the swept key itself.
    """

    command: Command
    param_values: dict[str, float]
    t_end: float | None = None
    steps_per_delay: int = _DEFAULT_STEPS_PER_DELAY
    transient_fraction: float = _DEFAULT_TRANSIENT_FRACTION
    u0: float | None = None
    v0: float | None = None
    w0: float | None = None
    sweep: SweepOpts | None = None

    def model_params(self, **overrides: float) -> ModelParams:
        return ModelParams(**{**self.param_values, **overrides})


def parse_config(text: str) -> RunConfig:
    """Parse and validate a flat key = value config.

    Unknown keys, duplicates, malformed lines, bad values and missing
    required keys all raise ConfigError with the offending line quoted;
    missing keys are reported all at once.
    """
    values: dict[str, object] = {}
    lines: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, sep, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if not sep or not key or not val:
            raise ConfigError(f"line {lineno}: {raw.strip()!r} is not 'key = value'")
        if key not in _ALL_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r} (first set on line {lines[key]})")
        if key in _STR_KEYS:
            values[key] = val
        else:
            try:
                num = float(val)
            except ValueError:
                raise ConfigError(
                    f"line {lineno}: {key} must be a number, got {val!r}") from None
            if not math.isfinite(num):
                raise ConfigError(f"line {lineno}: {key} must be finite, got {val!r}")
            if key in _INT_KEYS:
                if num != int(num):
                    raise ConfigError(
                        f"line {lineno}: {key} must be an integer, got {val!r}")
                values[key] = int(num)
            else:
                values[key] = num
        lines[key] = lineno

    if "command" not in values:
        raise ConfigError("missing required keys: command")
    try:
        command = Command(values["command"])
    except ValueError:
        names = ", ".join(c.value for c in Command)
        raise ConfigError(
            f"line {lines['command']}: command must be one of {names}, "
            f"got {values['command']!r}") from None

    required = list(_MODEL_KEYS)
    if command is Command.SIMULATE:
        required += ["t_end", "u0", "v0"]
    if command is Command.SWEEP:
        required += ["sweep_param", "sweep_min", "sweep_max", "sweep_count"]

    sweep = None
    if command is Command.SWEEP:
        missing_sweep = [k for k in ("sweep_param", "sweep_min", "sweep_max", "sweep_count")
                         if k not in values]
        if missing_sweep:
            raise ConfigError("missing required keys: " + ", ".join(missing_sweep))
        param = values["sweep_param"]
        if param not in _MODEL_KEYS:
            raise ConfigError(
                f"line {lines['sweep_param']}: sweep_param must be one of "
                f"{', '.join(_MODEL_KEYS)}, got {param!r}")
        lo, hi, count = values["sweep_min"], values["sweep_max"], values["sweep_count"]
        if not lo <= hi:
            raise ConfigError(f"line {lines['sweep_min']}: sweep_min {lo!r} exceeds sweep_max {hi!r}")
        if count < 1:
            raise ConfigError(f"line {lines['sweep_count']}: sweep_count must be >= 1, got {count!r}")
        sweep = SweepOpts(param=param, lo=lo, hi=hi, count=count)
        # the swept model key may be omitted; the grid supplies it
        required = [k for k in required if k != param]

    missing = [k for k in required if k not in values]
    if missing:
        raise ConfigError("missing required keys: " + ", ".join(missing))

    param_values = {k: values[k] for k in _MODEL_KEYS if k in values}
    probe = dict(param_values)
    if sweep is not None:
        probe[sweep.param] = sweep.lo
    try:
        ModelParams(**probe)
    except ValueError as exc:
        bad = str(exc).split(" ", 1)[0]
        at = f"line {lines[bad]}: " if bad in lines else ""
        raise ConfigError(f"{at}{exc}") from None

    spd = values.get("steps_per_delay", _DEFAULT_STEPS_PER_DELAY)
    if spd < 20:
        raise ConfigError(
            f"line {lines['steps_per_delay']}: steps_per_delay must be >= 20, got {spd!r}")
    tf = values.get("transient_fraction", _DEFAULT_TRANSIENT_FRACTION)
    if not 0.0 <= tf < 1.0:
        raise ConfigError(
            f"line {lines['transient_fraction']}: transient_fraction must be in [0, 1), got {tf!r}")
    t_end = values.get("t_end")
    if t_end is not None and not (math.isfinite(t_end) and t_end > 0):
        raise ConfigError(f"line {lines['t_end']}: t_end must be positive, got {t_end!r}")

    return RunConfig(
        command=command,
        param_values=param_values,
        t_end=t_end,
        steps_per_delay=spd,
        transient_fraction=tf,
        u0=values.get("u0"),
        v0=values.get("v0"),
        w0=values.get("w0"),
        sweep=sweep,
    )


@dataclass(eq=False)
class AnalysisReport:
    """Everything one run computed, in report.json order."""

    command: Command
    params: dict[str, float]
    equilibria: list[Equilibrium] | None = None
    h1_holds: bool | None = None
    char_coeffs: CharCoeffs | None = None
    g_coeffs: GCubic | None = None
    candidates: list[HopfCandidate] | None = None
    s0: float | None = None
    normal_form: NormalForm | None = None
    # the cycle the normal form predicts at the configured s, written as
    # normal_form.prediction
    normal_form_prediction: dict | None = None
    # residuals of the normal form's eigenvector equations and of Gamma1
    # against the crossing root's drift, written as normal_form.self_checks
    normal_form_checks: dict | None = None
    simulation: dict | None = None
    sweep: dict | None = None
    notes: list[str] | None = None

    def to_dict(self) -> dict:
        nf = None
        if self.normal_form is not None:
            f = self.normal_form
            nf = {
                "omega_star": f.omega_star,
                "s_star": f.s_star,
                "linear_period": 2.0 * math.pi / f.omega_star,
                "c_vec": f.c_vec,
                "d_vec": f.d_vec,
                "e_vec": f.e_vec,
                "f_vec": f.f_vec,
                "Gamma1": f.Gamma1,
                "Gamma2": f.Gamma2,
                "chi1": f.chi1,
                "chi2": f.chi2,
                "direction": f.direction,
                "prediction": self.normal_form_prediction,
            }
            if self.normal_form_checks is not None:
                nf["self_checks"] = self.normal_form_checks
        eqs = None
        if self.equilibria is not None:
            eqs = [{
                "label": e.label,
                "point": {"u": e.point.u, "v": e.point.v, "w": e.point.w},
                "exists": e.exists,
                "local_stability": e.local_stability,
            } for e in self.equilibria]
        cands = None
        if self.candidates is not None:
            cands = [{
                "z": c.z,
                "omega": c.omega,
                "delays": list(c.delays),
                "transversality_sign": c.transversality_sign,
            } for c in self.candidates]
        raw = {
            "command": self.command,
            "params": dict(self.params),
            "equilibria": eqs,
            "h1_holds": self.h1_holds,
            "char_coeffs": self.char_coeffs,
            "g_coeffs": self.g_coeffs,
            "candidates": cands,
            "s0": self.s0,
            "normal_form": nf,
            "simulation": self.simulation,
            "sweep": self.sweep,
            "notes": list(self.notes or []),
        }
        return _jsonify(raw)


def _jsonify(obj):
    """JSON-ready copy: complex split into re/im, non-finite floats to
    null, enums to their values, arrays to lists, fixed key order."""
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, Enum):
        return obj.value
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": _jsonify(obj.real), "im": _jsonify(obj.imag)}
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, State):
        return {"u": _jsonify(obj.u), "v": _jsonify(obj.v), "w": _jsonify(obj.w)}
    if isinstance(obj, (CharCoeffs, GCubic)):
        return {f.name: _jsonify(getattr(obj, f.name)) for f in fields(obj)}
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonify(v) for v in obj]
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _flatten(obj, prefix: str = "") -> list[tuple[str, object]]:
    if isinstance(obj, dict):
        out = []
        for k, v in obj.items():
            out.extend(_flatten(v, f"{prefix}.{k}" if prefix else str(k)))
        return out
    if isinstance(obj, list):
        out = []
        for i, v in enumerate(obj):
            out.extend(_flatten(v, f"{prefix}.{i}"))
        return out
    return [(prefix, obj)]


def _csv_cell(value) -> str:
    # 17 significant digits round-trip doubles exactly; everything else
    # goes through JSON so the reader can reverse it unambiguously
    if isinstance(value, float):
        return format(value, ".17g")
    return json.dumps(value)


def _write_report(report: AnalysisReport, out_dir: Path) -> None:
    doc = report.to_dict()
    (out_dir / "report.json").write_text(
        json.dumps(doc, indent=2) + "\n", encoding="utf-8")
    with open(out_dir / "report.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["key", "value"])
        for key, value in _flatten(doc):
            writer.writerow([key, _csv_cell(value)])


def _analysis_sections(report: AnalysisReport, params: ModelParams,
                       want_critical: bool, want_direction: bool) -> None:
    notes = report.notes
    report.equilibria = equilibria(params)
    estar = report.equilibria[3]
    if not estar.exists:
        notes.append("coexistence equilibrium does not exist; "
                     "delay analysis is not applicable")
        return
    coeffs = char_coeffs(params, estar)
    if want_critical:
        report.h1_holds = h1_holds(coeffs)
        report.char_coeffs = coeffs
        report.g_coeffs = g_cubic(coeffs)
        report.candidates = hopf_candidates(coeffs)
        pair_at = near_double_root(report.g_coeffs)
        if pair_at is not None:
            notes.append(f"G has two roots near z = {pair_at:.9g} closer than double precision "
                         "resolves; two crossings may have been added or dropped there")
        if report.candidates:
            report.s0 = report.candidates[0].delays[0]
        else:
            notes.append("no imaginary-axis crossings: no delay-induced "
                         "stability switch")
    if want_direction:
        try:
            nf = report.normal_form = compute_normal_form(params)
        except (ValueError, ResonanceError) as exc:
            notes.append(f"bifurcation direction not computed: {exc}")
        else:
            report.s0 = nf.s_star
            report.normal_form_prediction = _prediction(nf, params.s - nf.s_star)
            rc, rd = eigen_residuals(linearize(params, estar), nf.omega_star, nf.s_star,
                                     nf.c_vec, nf.d_vec)
            drift = 1j * nf.omega_star + nf.s_star * crossing_drift(
                nf.omega_star, nf.s_star, coeffs)
            report.normal_form_checks = {
                "right_eigenvector_residual": rc,
                "left_eigenvector_residual": rd,
                "gamma1_drift_residual": float(abs(nf.Gamma1 - drift) / abs(nf.Gamma1)),
            }


def _prediction(nf: NormalForm, delta: float) -> dict | None:
    """The cycle the amplitude equation predicts at s = s* + delta; the
    period is None where no cycle exists on that side of the switch."""
    if nf.direction is Direction.DEGENERATE:
        return None
    amplitude = predicted_amplitude(nf, delta)
    return {"delta": delta,
            "amplitude": amplitude,
            "component_amplitudes": predicted_component_amplitudes(nf, delta),
            "period": predicted_period(nf, delta) if amplitude > 0 else None}


def _run_simulate(report: AnalysisReport, config: RunConfig, params: ModelParams,
                  out_dir: Path, plot: bool) -> None:
    report.equilibria = equilibria(params)
    estar = report.equilibria[3]
    history = HistorySpec.constant(config.u0, config.v0, config.w0)
    # every outcome writes these keys in this order; null where a
    # diverged run or a missing equilibrium leaves nothing to report
    sim = {
        "t_end_requested": config.t_end,
        "steps_per_delay": config.steps_per_delay,
        "transient_fraction": config.transient_fraction,
        "history": {"u0": config.u0, "v0": config.v0, "w0": history.initial_w(params),
                    "w0_policy": "Consistent" if history.w0 is None else "Explicit"},
        "diverged": False,
        "diverged_at": None,
        "left_positive_orthant_at": None,
        "t_end": None,
        "step": None,
        "final_state": None,
        **dict.fromkeys(_CYCLE_KEYS),
    }
    report.simulation = sim
    try:
        traj = simulate(params, history, config.t_end, config.steps_per_delay)
    except SimulationDiverged as exc:
        sim["diverged"] = True
        sim["diverged_at"] = exc.time
        sim["left_positive_orthant_at"] = exc.left_positive_orthant_at
        sim["classification"] = "Diverges"
        report.notes.append(f"simulation diverged at t = {exc.time:g}; "
                            "no trajectory written")
        return
    sim["left_positive_orthant_at"] = traj.left_positive_orthant_at
    sim["t_end"] = traj.t_end
    sim["step"] = traj.step
    sim["final_state"] = list(traj.states[-1])
    traj.to_csv(out_dir / "trajectory.csv")
    if estar.exists:
        metrics = cycle_metrics(traj, estar.point, config.transient_fraction)
        sim.update({key: getattr(metrics, key) for key in _CYCLE_KEYS})
    else:
        report.notes.append("coexistence equilibrium does not exist; "
                            "cycle metrics skipped")
    if plot:
        trajectory_plots(traj, out_dir)


def _sweep_rows(values: np.ndarray, nfs: NormalForms) -> list[dict]:
    """Sweep rows of one block: s0 where the point has a switch, chi1,
    chi2 and direction where its normal form was computed."""
    rows = []
    for i, value in enumerate(values.tolist()):
        row = {"value": value, "s0": None, "chi1": None, "chi2": None, "direction": None}
        if not math.isnan(nfs.s0[i]):
            row["s0"] = float(nfs.s0[i])
        if nfs.ok[i]:
            chi1, chi2 = float(nfs.Gamma1[i].real), float(nfs.Gamma2[i].real)
            row.update(chi1=chi1, chi2=chi2, direction=classify(chi1, chi2).value)
        rows.append(row)
    return rows


def _run_sweep(report: AnalysisReport, config: RunConfig, out_dir: Path) -> None:
    opts = config.sweep
    grid = np.linspace(opts.lo, opts.hi, opts.count)
    rows = []
    for start in range(0, opts.count, _SWEEP_BLOCK):
        values = grid[start:start + _SWEEP_BLOCK]
        rows += _sweep_rows(values, normal_forms(ParamGrid.of(
            {**config.param_values, opts.param: values})))
    report.sweep = {"param": opts.param, "min": opts.lo, "max": opts.hi,
                    "count": opts.count, "rows": rows}
    with open(out_dir / "sweep.csv", "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["param", "value", "s0", "chi1", "chi2", "direction"])
        for row in rows:
            writer.writerow([
                opts.param,
                format(row["value"], ".17g"),
                "" if row["s0"] is None else format(row["s0"], ".17g"),
                "" if row["chi1"] is None else format(row["chi1"], ".17g"),
                "" if row["chi2"] is None else format(row["chi2"], ".17g"),
                "" if row["direction"] is None else row["direction"],
            ])


def run(config: RunConfig, output_dir=".", plot: bool = False) -> AnalysisReport:
    """Execute one validated run and write its outputs.

    Returns the in-memory report. Filesystem errors propagate as OSError
    for the entry point to translate; analytic dead ends (no coexistence
    point, no crossings, a diverging run) are recorded in the report and
    its notes instead of raised.
    """
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = AnalysisReport(command=config.command,
                            params=dict(config.param_values), notes=[])
    if config.command is Command.SWEEP:
        _run_sweep(report, config, out_dir)
    else:
        params = config.model_params()
        if config.command is Command.SIMULATE:
            _run_simulate(report, config, params, out_dir, plot)
        else:
            _analysis_sections(
                report, params,
                want_critical=config.command in (Command.ANALYZE, Command.CRITICAL),
                want_direction=config.command in (Command.ANALYZE, Command.DIRECTION),
            )
    _write_report(report, out_dir)
    return report


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="infodelay",
        description="Delay-induced oscillation analysis of the two-population "
                    "interaction model: equilibria, critical delays, bifurcation "
                    "direction, and time-domain simulation.")
    parser.add_argument("config", help="path to a key = value run config")
    parser.add_argument("--output-dir", default=".", metavar="DIR",
                        help="directory for report/trajectory/sweep outputs "
                             "(default: current directory)")
    parser.add_argument("--plot", action="store_true",
                        help="with command = Simulate, also write SVG figures")
    args = parser.parse_args(argv)

    try:
        text = Path(args.config).read_text(encoding="utf-8")
    except OSError as exc:
        print(f"error: cannot read config: {exc}", file=sys.stderr)
        return 2
    try:
        config = parse_config(text)
    except ConfigError as exc:
        print(f"error: invalid config: {exc}", file=sys.stderr)
        return 1
    try:
        report = run(config, output_dir=args.output_dir, plot=args.plot)
    except OSError as exc:
        print(f"error: cannot write outputs: {exc}", file=sys.stderr)
        return 2
    for note in report.notes:
        print(f"note: {note}")
    print(f"{config.command.value} finished; outputs in {args.output_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
