"""Config-driven command line front end.

A run is described by a flat key = value file (# starts a comment).
A key the file leaves out takes its RunConfig field default; the range
rules of the run keys are the _RUN_RULES table, those of the model keys
ModelParams' own. The command key selects what happens:

    Critical   equilibria, crossing candidates and the first switch s0
    Direction  equilibria, s0, the amplitude-equation classification and
               the cycle it predicts at the configured s
    Analyze    both of the above in one report
    Simulate   time integration from a constant history, with metrics
    Sweep      s0 / chi1 / chi2 / direction along one parameter axis

Every command but Simulate reads one normal_forms pass: Analyze,
Critical and Direction make it once on their point and fill their
sections from its row, and a Sweep makes it per block of rows.

A Simulate config without steps_per_delay is run by
integrator.simulate_to_tolerance, whose docstring describes the step
ladder. The simulation section reports the steps per delay used and the
estimate, null when the config sets steps_per_delay.

Every run writes report.json and report.csv (the same content, nested
vs. flattened); Simulate adds trajectory.csv and, with --plot, five SVG
figures; Sweep adds sweep.csv. run() returns the document report.json
holds: an ordered dict of the _REPORT_KEYS, each section filled in by
the command that computes it. report.json is exactly
json.dumps(doc, indent=2) + "\n" of that document, and report.csv
exactly what csv.writer makes of its dotted-key leaves (floats at
%.17g, everything else JSON-encoded). A Sweep's rows are the one part
not encoded that way: _SweepTable formats each cell once per
representation, a block of rows at a time, and writes the same bytes
into both reports and sweep.csv. Outputs are byte-stable for identical
inputs. Exit codes: 0 on success (including analytically degenerate
cases, which are reported in-band), 1 for an invalid config, 2 for
filesystem trouble.

Only Simulate loads the time-domain stack, integrator and plots: it
imports them when it runs, so the other commands never load them.
"""
from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import math
import sys
from dataclasses import dataclass, fields, is_dataclass
from enum import Enum
from pathlib import Path

import numpy as np

from .model import ModelParams, ParamGrid, State, equilibria
from .normal_form import (Direction, NormalForm, NormalForms, ResonanceError, _normal_form,
                          classify, cycle_prediction, normal_forms, self_checks)
from .stability import CharCoeffs, _candidates, g_cubic, h1_holds, near_double_root

__all__ = [
    "Command",
    "ConfigError",
    "SweepOpts",
    "RunConfig",
    "parse_config",
    "run",
    "main",
]

_MODEL_KEYS = tuple(f.name for f in fields(ModelParams))
_FLOAT_KEYS = _MODEL_KEYS + ("t_end", "transient_fraction", "u0", "v0", "w0",
                             "sweep_min", "sweep_max")
_INT_KEYS = ("steps_per_delay", "sweep_count")
_STR_KEYS = ("command", "sweep_param")
_ALL_KEYS = _FLOAT_KEYS + _INT_KEYS + _STR_KEYS

# points per normal_forms call in a Sweep: large enough to amortize the
# per-call overhead, small enough that a block's stacked arrays stay a
# few MB at any sweep_count
_SWEEP_BLOCK = 512
# report.json's top-level keys, in order
_REPORT_KEYS = ("command", "params", "equilibria", "h1_holds", "char_coeffs", "g_coeffs",
                "candidates", "s0", "normal_form", "simulation", "sweep", "notes")
# the columns of a Sweep row, in sweep.csv's order after the param name
_SWEEP_COLUMNS = ("value", "s0", "chi1", "chi2", "direction")
# stands in for a Sweep's rows while the rest of its report is encoded
_ROWS_MARK = "\0rows"


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
    """count points from lo to hi along the model key param; a bad field
    raises ValueError with parse_config's message."""

    param: str
    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if self.param not in _MODEL_KEYS:
            raise ValueError(f"sweep_param must be one of {', '.join(_MODEL_KEYS)}, "
                             f"got {self.param!r}")
        if not self.lo <= self.hi:
            raise ValueError(f"sweep_min {self.lo!r} exceeds sweep_max {self.hi!r}")
        if self.count < 1:
            raise ValueError(f"sweep_count must be >= 1, got {self.count!r}")


@dataclass(frozen=True)
class RunConfig:
    """Validated run description.

    param_values holds the model keys present in the config; only a
    Sweep may omit one, and then only the swept key itself. A key the
    command requires but the config lacks, a fixed model key outside
    its ModelParams rule, or a run key outside its _RUN_RULES range,
    raises ValueError with parse_config's message, in that order. A
    Sweep's swept key is not checked here: a grid may start where the
    model is invalid, and reports those points empty. With
    steps_per_delay None a Simulate run climbs the step ladder.
    """

    command: Command
    param_values: dict[str, float]
    t_end: float | None = None
    steps_per_delay: int | None = None
    transient_fraction: float = 0.5
    u0: float | None = None
    v0: float | None = None
    w0: float | None = None
    sweep: SweepOpts | None = None

    def __post_init__(self):
        given = {*self.param_values,
                 *(f.name for f in fields(self) if getattr(self, f.name) is not None)}
        if self.sweep is not None:
            given.update(_SWEEP_KEYS)
        missing = _missing_keys(self.command, given, self.sweep and self.sweep.param)
        if missing:
            raise ValueError("missing required keys: " + ", ".join(missing))
        probe = dict(self.param_values)
        if self.sweep is not None:
            probe[self.sweep.param] = 1.0   # a value every ModelParams rule accepts
        ModelParams(**probe)
        for key, holds, what in _RUN_RULES:
            value = getattr(self, key)
            if value is not None and not holds(value):
                raise ValueError(f"{key} {what}, got {value!r}")

    def model_params(self) -> ModelParams:
        return ModelParams(**self.param_values)


# range rules for the run keys, checked in this order on the keys a
# RunConfig sets: the key, its test, and the end of its error message
_RUN_RULES = (
    ("steps_per_delay", lambda n: n >= 20, "must be >= 20"),
    ("transient_fraction", lambda x: 0.0 <= x < 1.0, "must be in [0, 1)"),
    ("t_end", lambda x: x > 0, "must be positive"),
)
# the config keys that make a Sweep's SweepOpts, in its field order
_SWEEP_KEYS = ("sweep_param", "sweep_min", "sweep_max", "sweep_count")


def _missing_keys(command: Command, given, swept: str | None) -> list[str]:
    """The keys command requires that given lacks, in the order they are
    reported; a Sweep may omit its swept model key."""
    required = list(_MODEL_KEYS)
    if command is Command.SIMULATE:
        required += ["t_end", "u0", "v0"]
    if command is Command.SWEEP:
        required += _SWEEP_KEYS
    return [k for k in required if k not in given and k != swept]


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
        values["command"] = command = Command(values["command"])
    except ValueError:
        names = ", ".join(c.value for c in Command)
        raise ConfigError(
            f"line {lines['command']}: command must be one of {names}, "
            f"got {values['command']!r}") from None

    # the swept model key may be omitted; the grid supplies it
    swept = values.get("sweep_param") if command is Command.SWEEP else None
    missing = _missing_keys(command, values, swept)
    if missing:
        raise ConfigError("missing required keys: " + ", ".join(missing))

    param_values = {k: values[k] for k in _MODEL_KEYS if k in values}
    # a run key the config leaves out keeps its RunConfig default
    run_keys = {f.name for f in fields(RunConfig)}
    try:
        sweep = None
        if command is Command.SWEEP:
            sweep = SweepOpts(*(values[k] for k in _SWEEP_KEYS))
            # a config's grid must start where the model is valid
            ModelParams(**{**param_values, sweep.param: sweep.lo})
        return RunConfig(param_values=param_values, sweep=sweep,
                         **{k: v for k, v in values.items() if k in run_keys})
    except ValueError as exc:
        bad = str(exc).split(" ", 1)[0]
        at = f"line {lines[bad]}: " if bad in lines else ""
        raise ConfigError(f"{at}{exc}") from None


def _jsonify(obj):
    """JSON-ready copy: complex split into re/im, non-finite floats to
    null, enums to their values, arrays to lists, a dataclass to its
    fields and a State to u, v, w, all in declaration order."""
    if isinstance(obj, Enum):
        return obj.value
    if obj is None or isinstance(obj, (bool, int, str)):
        return obj
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {str(k): _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, State):
        return _jsonify(obj._asdict())
    if isinstance(obj, (list, tuple, np.ndarray)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, (complex, np.complexfloating)):
        return {"re": _jsonify(obj.real), "im": _jsonify(obj.imag)}
    if isinstance(obj, np.integer):
        return int(obj)
    if is_dataclass(obj):
        return {f.name: _jsonify(getattr(obj, f.name)) for f in fields(obj)}
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _flatten(obj, prefix: str = ""):
    """Each (dotted key, value) leaf of a JSON document, in order."""
    if isinstance(obj, list):
        obj = dict(enumerate(obj))
    if isinstance(obj, dict):
        for k, v in obj.items():
            yield from _flatten(v, f"{prefix}.{k}" if prefix else str(k))
    else:
        yield prefix, obj


def _csv_cell(value) -> str:
    # 17 significant digits round-trip doubles exactly; everything else
    # goes through JSON so the reader can reverse it unambiguously
    if isinstance(value, float):
        return format(value, ".17g")
    return json.dumps(value)


def _write_report(doc: dict, out_dir: Path, table: _SweepTable | None = None) -> None:
    """Write report.json, json.dumps(doc, indent=2) + "\n", and report.csv,
    csv.writer's rows of doc's dotted leaves. A Sweep's doc holds
    _ROWS_MARK in place of its rows: the table writes their text where
    the mark lands in each file, and sweep.csv beside them."""
    head, _, tail = (json.dumps(doc, indent=2) + "\n").partition(json.dumps(_ROWS_MARK))
    with open(out_dir / "report.json", "w", encoding="utf-8") as fj, \
            open(out_dir / "report.csv", "w", newline="", encoding="utf-8") as fc:
        fj.write(head)
        writer = csv.writer(fc, lineterminator="\n")
        writer.writerow(["key", "value"])
        for key, value in _flatten(doc):
            if value == _ROWS_MARK:
                line = head[head.rfind("\n") + 1:]
                table.write(fj, fc, key, len(line) - len(line.lstrip(" ")))
            else:
                writer.writerow([key, _csv_cell(value)])
        fj.write(tail)


def _missing_estar_note(estar, consequence: str) -> str:
    """Why a coexistence point is missing, then what is skipped for it."""
    if estar.point.u > 0 and estar.point.v > 0:
        return ("coexistence point is positive but D = a1*a2*(mu+r) + b1*b2 < 0: "
                f"unstable at every delay; {consequence}")
    return f"coexistence equilibrium does not exist; {consequence}"


def _analysis_sections(report: dict, params: ModelParams, command: Command) -> None:
    """The sections of an Analyze, Critical or Direction report, all read
    from one normal_forms pass over the point: Critical's coefficients
    and candidates, Direction's normal form, and Analyze's both."""
    notes = report["notes"]
    eqs = report["equilibria"] = equilibria(params)
    estar = eqs[3]
    if not estar.exists:
        notes.append(_missing_estar_note(estar, "delay analysis is not applicable"))
        return
    nfs = normal_forms(ParamGrid.of(params))
    if command is not Command.DIRECTION:
        coeffs = CharCoeffs(*(float(getattr(nfs.coeffs, f.name)[0]) for f in fields(CharCoeffs)))
        g = g_cubic(coeffs)
        report.update(h1_holds=h1_holds(coeffs), char_coeffs=coeffs, g_coeffs=g)
        pair_at = near_double_root(g)
        if pair_at is not None:
            notes.append(f"G has two roots near z = {pair_at:.9g} closer than double precision "
                         "resolves; two crossings may have been added or dropped there")
        try:
            candidates = report["candidates"] = _candidates(nfs.crossings, 0)
        except ValueError as exc:
            notes.append(f"crossing candidates not computed: {exc}")
        else:
            if candidates:
                report["s0"] = candidates[0].delays[0]
            else:
                notes.append("no imaginary-axis crossings: no delay-induced "
                             "stability switch")
    if command is Command.CRITICAL:
        return
    try:
        nf = _normal_form(nfs, 0)
    except (ValueError, ResonanceError) as exc:
        notes.append(f"bifurcation direction not computed: {exc}")
        return
    report["s0"] = nf.s_star
    prediction, note = cycle_prediction(nf, params.s - nf.s_star, estar.point)
    if note is not None:
        notes.append(note)
    # the normal form is local to s*: name the next switch where s lies
    # past it, the second delay of s*'s ladder or another ladder's first
    at, sign = min(((d, c.transversality_sign.value) for c in _candidates(nfs.crossings, 0)
                    for d in c.delays if d > nf.s_star), default=(math.inf, None))
    if params.s > at:
        notes.append(f"s = {params.s:.6g} lies past the next stability switch, at {at:.6g} "
                     f"({sign}): the normal form at s* = {nf.s_star:.6g} does not "
                     "describe the point there")
    # the NormalForm fields in their order, the linear period after s_star
    section = [(f.name, getattr(nf, f.name)) for f in fields(NormalForm)]
    section.insert(2, ("linear_period", 2.0 * math.pi / nf.omega_star))
    report["normal_form"] = dict(section, prediction=prediction,
                                 self_checks=self_checks(nf, params, estar.point))


def _run_simulate(report: dict, config: RunConfig, params: ModelParams,
                  history: HistorySpec, out_dir: Path, plot: bool) -> None:
    # the time-domain stack is imported by the one command that runs it
    from .integrator import (_STEP_RTOL, CycleMetrics, SimulationDiverged, cycle_metrics,
                             simulate, simulate_to_tolerance)
    from .plots import trajectory_plots

    # the Simulate report writes the CycleMetrics fields in their order
    cycle_keys = tuple(f.name for f in fields(CycleMetrics))
    eqs = report["equilibria"] = equilibria(params)
    estar = eqs[3]
    # every outcome writes these keys in this order; null where a
    # diverged run or a missing equilibrium leaves nothing to report
    sim = report["simulation"] = {
        "t_end_requested": config.t_end,
        "steps_per_delay": config.steps_per_delay,
        "step_error_estimate": None,
        "transient_fraction": config.transient_fraction,
        "history": {"u0": config.u0, "v0": config.v0, "w0": history.initial_w(params),
                    "w0_policy": "Consistent" if history.w0 is None else "Explicit"},
        "diverged": False,
        "diverged_at": None,
        "left_positive_orthant_at": None,
        "t_end": None,
        "step": None,
        "final_state": None,
        **dict.fromkeys(cycle_keys),
    }
    try:
        if config.steps_per_delay is None:
            traj = simulate_to_tolerance(params, history, config.t_end)
        else:
            traj = simulate(params, history, config.t_end, config.steps_per_delay)
    except SimulationDiverged as exc:
        sim.update(steps_per_delay=exc.steps_per_delay, diverged=True, diverged_at=exc.time,
                   classification="Diverges", left_positive_orthant_at=exc.left_positive_orthant_at)
        report["notes"].append(f"simulation diverged at t = {exc.time:g}; "
                               "no trajectory written")
        return
    spd, estimate, rtol = traj.steps_per_delay, traj.step_error_estimate, _STEP_RTOL
    if config.steps_per_delay is None and (estimate is None or estimate > rtol):
        report["notes"].append(
            f"steps_per_delay = {spd}: no step-doubling error estimate, no coarser run "
            "reached t_end" if estimate is None else
            f"steps_per_delay = {spd}: step-doubling error estimate {estimate:.3g} "
            f"exceeds the tolerance {rtol:g}")
    traj.to_csv(out_dir / "trajectory.csv")
    sim.update(steps_per_delay=spd, step_error_estimate=estimate,
               left_positive_orthant_at=traj.left_positive_orthant_at, t_end=traj.t_end,
               step=traj.step, final_state=list(traj.states[-1]))
    if estar.exists:
        metrics = cycle_metrics(traj, estar.point, config.transient_fraction)
        sim.update({key: getattr(metrics, key) for key in cycle_keys})
    else:
        report["notes"].append(_missing_estar_note(estar, "cycle metrics skipped"))
    if plot:
        trajectory_plots(traj, out_dir)


def _csv_field(text: str) -> str:
    """text as csv.writer writes it among other fields of a row."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text, ""])
    return buf.getvalue()[:-2]


# a direction cell's document value, JSON text, report.csv text and
# sweep.csv text
_WORD_CELLS = {None: (None, "null", "null", ""),
               **{d.value: (d.value, json.dumps(d.value), _csv_field(json.dumps(d.value)),
                            _csv_field(d.value)) for d in Direction}}


def _float_cells(x: np.ndarray, present: np.ndarray) -> tuple:
    """A float column's document values, JSON texts, report.csv texts and
    sweep.csv texts. An absent cell is None, null, null and empty; a
    present one that is not finite is None, null, null and its %.17g."""
    values = x.tolist()
    shown = (present & np.isfinite(x)).tolist()
    digits = list(map("%.17g".__mod__, values))
    return ([v if s else None for v, s in zip(values, shown)],
            [repr(v) if s else "null" for v, s in zip(values, shown)],
            [d if s else "null" for d, s in zip(digits, shown)],
            [d if p else "" for d, p in zip(digits, present.tolist())])


class _SweepTable:
    """A Sweep's rows, kept as columns until they are written. Each cell
    is formatted once per representation, a block of rows at a time,
    and report.json, report.csv and sweep.csv are written from those
    texts; rows then holds the row dicts of the report document."""

    def __init__(self, param: str, path: Path):
        self.param, self.path = param, path
        self.blocks = []
        self.rows = []

    def add(self, values: np.ndarray, nfs: NormalForms) -> None:
        """One block of rows: s0 where the point has a switch, chi1, chi2
        and direction where its normal form was computed."""
        chi1, chi2 = nfs.Gamma1.real, nfs.Gamma2.real
        c1, c2 = chi1.tolist(), chi2.tolist()
        words = [None] * len(values)
        for i in np.flatnonzero(nfs.ok).tolist():
            words[i] = classify(c1[i], c2[i]).value
        self.blocks.append(((values, np.ones(len(values), bool)), (nfs.s0, ~np.isnan(nfs.s0)),
                            (chi1, nfs.ok), (chi2, nfs.ok), words))

    def write(self, fj, fc, key: str, pad: int) -> None:
        """Write the rows into report.json as the list at indent pad and
        into report.csv under key, and sweep.csv; the key, the column
        names and the param are identifiers, which csv.writer never
        quotes."""
        ind = " " * pad
        members = ",\n".join(f"{ind}    {json.dumps(c)}: %s" for c in _SWEEP_COLUMNS)
        json_row = f"{ind}  {{\n{members}\n{ind}  }}"
        csv_row = "".join(f"{key}.{{0}}.{c},{{{j}}}\n" for j, c in enumerate(_SWEEP_COLUMNS, 1))
        sweep_row = ",".join([self.param] + ["%s"] * len(_SWEEP_COLUMNS)) + "\n"
        sep, start = "[\n", 0
        with open(self.path, "w", newline="", encoding="utf-8") as fs:
            csv.writer(fs, lineterminator="\n").writerow(["param", *_SWEEP_COLUMNS])
            for *floats, words in self.blocks:
                cells = [_float_cells(x, present) for x, present in floats]
                cells.append(zip(*map(_WORD_CELLS.__getitem__, words)))
                values, json_text, csv_text, sweep_text = zip(*cells)
                self.rows += [dict(zip(_SWEEP_COLUMNS, row)) for row in zip(*values)]
                fj.write(sep + ",\n".join(map(json_row.__mod__, zip(*json_text))))
                index = range(start, start + len(words))
                fc.write("".join(itertools.starmap(csv_row.format, zip(index, *csv_text))))
                fs.write("".join(map(sweep_row.__mod__, zip(*sweep_text))))
                sep, start = ",\n", start + len(words)
        fj.write(f"\n{ind}]" if self.blocks else "[]")


def _run_sweep(report: dict, config: RunConfig, out_dir: Path) -> _SweepTable:
    opts = config.sweep
    grid = np.linspace(opts.lo, opts.hi, opts.count)
    table = _SweepTable(opts.param, out_dir / "sweep.csv")
    for start in range(0, opts.count, _SWEEP_BLOCK):
        values = grid[start:start + _SWEEP_BLOCK]
        table.add(values, normal_forms(ParamGrid.of({**config.param_values, opts.param: values})))
    report["sweep"] = {"param": opts.param, "min": opts.lo, "max": opts.hi,
                       "count": opts.count, "rows": _ROWS_MARK}
    if opts.param == "s":
        report["notes"].append("s0, chi1, chi2 and the direction do not depend on s: "
                               "every row of a sweep over s is the same")
    return table


def run(config: RunConfig, output_dir=".", plot: bool = False) -> dict:
    """Execute one validated run and write its outputs.

    Returns the report document, equal to what report.json holds: the
    _REPORT_KEYS in order, null where the command computed nothing.
    Filesystem errors propagate as OSError for the entry point to
    translate; analytic dead ends (no coexistence point, no crossings, a
    diverging run) are recorded in the report and its notes instead of
    raised.
    """
    # the model and the history are checked before anything is written
    command = config.command
    params = None if command is Command.SWEEP else config.model_params()
    history = None
    if command is Command.SIMULATE:
        from .integrator import HistorySpec
        history = HistorySpec.constant(config.u0, config.v0, config.w0)
    out_dir = Path(output_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    report = dict.fromkeys(_REPORT_KEYS)
    report.update(command=command, params=config.param_values, notes=[])
    table = None
    if command is Command.SWEEP:
        table = _run_sweep(report, config, out_dir)
    elif command is Command.SIMULATE:
        _run_simulate(report, config, params, history, out_dir, plot)
    else:
        _analysis_sections(report, params, command)
    doc = _jsonify(report)
    _write_report(doc, out_dir, table)
    if table is not None:
        doc["sweep"]["rows"] = table.rows
    return doc


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
    for note in report["notes"]:
        print(f"note: {note}")
    print(f"{config.command.value} finished; outputs in {args.output_dir}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
