#!/usr/bin/env python3
"""Benchmark of the infodelay chain: analysis, simulation, reports.

    python3 perfbench/run.py [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Without --workload every workload runs in turn and a table of all
metrics is printed. With one, the last line of stdout is a JSON object
with the keys correct, attempted, failed and metrics: the end-to-end
metrics with --trace 0, the per-layer metrics with --trace 1.

A run repeats its workload while the next repetition is expected to
end within --seconds. Each repetition
starts fresh child interpreters one at a time (single-threaded
BLAS/OpenMP, PYTHONPATH=src, outputs in a temporary directory that is
deleted afterwards), takes CPU time and peak RSS from each child's own
rusage, and checks every output (check.py). Metrics are medians over
the repetitions. Every sample, the inputs and the environment are
recorded in .perfbench/results/ at the root of the checkout.
"""
from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(BENCH))

import check  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402

# end-to-end metrics on the last line; output_mb and failed_frac are
# printed and recorded, but output_mb is 0 on memory-ladder and
# failed_frac 0 on a correct run, so they are not bounded metrics
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
RECORDED = {"output_mb": "MB", "failed_frac": "ratio"}
SETUP_ROUNDS = 3
IMPORT_SPLIT_ROUNDS = 3
CHILD_TIMEOUT_S = 150.0
CHILD_ENV = {
    **os.environ,
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "PYTHONDONTWRITEBYTECODE": "1",
    "PYTHONPATH": str(ROOT / "src"),
}
# fresh interpreters timed in sequence: each adds one import to the last
IMPORT_CHAIN = {
    "interpreter": "pass",
    "numpy": "import numpy",
    "scipy_signal": "import numpy, scipy.signal",
    "infodelay": "import infodelay, sys; "
                 "print(*(m in sys.modules for m in ('numpy', 'scipy.signal')))",
}


@dataclass
class Child:
    returncode: int
    wall: float
    cpu: float
    rss_mb: float
    stdout: str
    stderr: str


def run_child(argv: list[str], cwd: Path) -> Child:
    """Run one child to completion; CPU and RSS come from its own rusage."""
    with tempfile.TemporaryFile("w+") as out, tempfile.TemporaryFile("w+") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=CHILD_ENV, stdin=subprocess.DEVNULL,
                                stdout=out, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return Child(returncode=proc.returncode, wall=wall,
                     cpu=usage.ru_utime + usage.ru_stime,
                     rss_mb=usage.ru_maxrss * 1024 / 1e6,  # ru_maxrss is in KiB
                     stdout=out.read(), stderr=err.read())


@dataclass
class Iteration:
    traced: bool
    wall: float = 0.0
    cpu: float = 0.0
    rss_mb: float = 0.0
    output_mb: float = 0.0
    failures: list[str] = field(default_factory=list)
    spans: list[dict] = field(default_factory=list)


def _scratch_dir() -> Path:
    (WORK / "tmp").mkdir(parents=True, exist_ok=True)
    return Path(tempfile.mkdtemp(dir=WORK / "tmp"))


def run_iteration(inputs: dict, traced: bool, keep=None) -> Iteration:
    """One repetition of a workload: its children in order, then the
    output check. keep(out_dir, children) may copy outputs before the
    temporary directory is deleted."""
    tmp = _scratch_dir()
    try:
        in_dir, out_dir = tmp / "in", tmp / "out"
        in_dir.mkdir()
        out_dir.mkdir()
        argvs = workloads.commands(inputs, in_dir, out_dir, traced)
        start = time.perf_counter()
        children = [run_child(argv, tmp) for argv in argvs]
        it = Iteration(traced=traced, wall=time.perf_counter() - start,
                       cpu=sum(c.cpu for c in children),
                       rss_mb=max(c.rss_mb for c in children),
                       output_mb=sum(p.stat().st_size for p in out_dir.rglob("*")
                                     if p.is_file()) / 1e6)
        for i, c in enumerate(children):
            if c.returncode != 0:
                it.failures.append(f"child {i} exited with {c.returncode}: "
                                   f"{c.stderr.strip()[-400:]}")
        if not it.failures:
            try:
                outputs = check.read_outputs(inputs["workload"], out_dir,
                                             [c.stdout for c in children])
                it.failures = check.check(inputs, outputs)
            except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
                it.failures = [f"outputs unreadable: {exc!r}"]
        if traced:
            it.spans = [json.loads(p.read_text(encoding="utf-8"))
                        for p in sorted(in_dir.glob("spans-*.json"))]
        if keep is not None:
            keep(out_dir, children)
        return it
    finally:
        shutil.rmtree(tmp, ignore_errors=True)


def time_imports(codes: list[str], rounds: int) -> tuple[dict[str, list[float]], list[str], str]:
    """Wall times of fresh interpreters running each code, interleaved
    over the rounds; also failures and the last stdout."""
    times: dict[str, list[float]] = {code: [] for code in codes}
    failures, stdout = [], ""
    tmp = _scratch_dir()
    try:
        for _ in range(rounds):
            for code in codes:
                c = run_child([sys.executable, "-c", code], tmp)
                times[code].append(c.wall)
                stdout = c.stdout
                if c.returncode != 0:
                    failures.append(f"{code!r} exited with {c.returncode}: "
                                    f"{c.stderr.strip()[-400:]}")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return times, failures, stdout


def import_split() -> tuple[dict[str, float], list[str]]:
    """import.* layer metrics: each step of IMPORT_CHAIN minus the one
    before it, counting only the modules infodelay really imports."""
    times, failures, stdout = time_imports(list(IMPORT_CHAIN.values()), IMPORT_SPLIT_ROUNDS)
    med = {key: statistics.median(times[code]) for key, code in IMPORT_CHAIN.items()}
    uses_numpy, uses_scipy = (flag == "True" for flag in (stdout.split() + ["", ""])[:2])
    base = med["scipy_signal"] if uses_scipy else med["numpy"] if uses_numpy else med["interpreter"]
    return {
        "import.interpreter_s": med["interpreter"],
        "import.numpy_s": med["numpy"] - med["interpreter"] if uses_numpy else 0.0,
        "import.scipy_signal_s": med["scipy_signal"] - med["numpy"] if uses_scipy else 0.0,
        "import.infodelay_self_s": med["infodelay"] - base,
    }, failures


def stats(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (values[0],) * 3
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "n": len(values)}


def environment() -> dict:
    def version(pkg):
        try:
            return importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            return None

    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():  # a plain source tree has no commit to report
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"python": platform.python_version(), "numpy": version("numpy"),
            "scipy": version("scipy"), "nproc": os.cpu_count(), "cpu_model": cpu,
            "git_commit": commit}


def bench(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One run of one workload; returns its full record."""
    inputs = workloads.make_inputs(name, seed)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": trace,
              "environment": environment(), "load_avg_start": os.getloadavg(),
              "inputs": inputs, "notes": []}
    setup_failures: list[str] = []
    if trace:
        layer_values, setup_failures = import_split()
    else:
        times, setup_failures, _ = time_imports(["import infodelay"], SETUP_ROUNDS)
        setup_times = times["import infodelay"]

    iterations: list[Iteration] = []
    spent: list[float] = []
    start = time.perf_counter()
    # start another repetition only if it should end within the budget,
    # so a run lasts about as long on a slow host as on a fast one; a
    # traced run alternates untraced and traced repetitions
    while (len(iterations) < (2 if trace else 1)
           or time.perf_counter() - start + statistics.median(spent) <= seconds):
        began = time.perf_counter()
        iterations.append(run_iteration(inputs, traced=trace and len(iterations) % 2 == 1))
        spent.append(time.perf_counter() - began)

    plain = [it for it in iterations if not it.traced]
    failed = sum(1 for it in iterations if it.failures) + bool(setup_failures)
    attempted = len(iterations) + bool(setup_failures)
    if trace:
        traced_its = [it for it in iterations if it.traced]
        per_run = []
        for it in traced_its:
            values, notes = layers.span_metrics(it.spans)
            per_run.append(values)
            record["notes"] = notes
        for metric in layers.SPAN_METRICS:
            got = [v[metric] for v in per_run if v[metric] is not None]
            # the lower median keeps counts whole over an even number of runs
            layer_values[metric] = statistics.median_low(got) if got else None
        layer_values[layers.OVERHEAD_METRIC] = (
            statistics.median(it.wall for it in traced_its)
            - statistics.median(it.wall for it in plain))
        record["metrics"] = {m: {"value": layer_values[m], "unit": layers.unit(m)}
                             for m in layers.METRICS}
        record["traced_samples"] = per_run
    else:
        samples = {"wall_s": [it.wall for it in plain], "cpu_s": [it.cpu for it in plain],
                   "setup_s": setup_times, "peak_rss_mb": [it.rss_mb for it in plain],
                   "output_mb": [it.output_mb for it in plain]}
        record["samples"] = samples
        record["stats"] = {k: stats(v) for k, v in samples.items()}
        record["stats"]["failed_frac"] = {"median": failed / attempted, "n": attempted}
        record["metrics"] = {m: {"value": record["stats"][m]["median"], "unit": unit}
                             for m, unit in END_TO_END.items()}
    record["iterations"] = [{"traced": it.traced, "wall_s": it.wall, "cpu_s": it.cpu,
                             "peak_rss_mb": it.rss_mb, "output_mb": it.output_mb,
                             "failures": it.failures[:20]} for it in iterations]
    record["setup_failures"] = setup_failures
    record.update(correct=failed == 0, attempted=attempted, failed=failed,
                  load_avg_end=os.getloadavg())
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = results / f"{name}-seed{seed}-trace{int(trace)}-{stamp}-{os.getpid()}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    record["path"] = str(path.relative_to(ROOT))
    return record


def _fmt(value) -> str:
    return "null" if value is None else f"{value:.6g}"


def print_record(record: dict) -> None:
    name = record["workload"]
    for failure in record["setup_failures"] + [
            f for it in record["iterations"] for f in it["failures"][:3]][:10]:
        print(f"FAIL {name}: {failure}", file=sys.stderr)
    for note in record["notes"]:
        print(f"note {name}: {note}", file=sys.stderr)
    if record["trace"]:
        for metric, m in record["metrics"].items():
            print(f"{name:15s} {metric:45s} {_fmt(m['value']):>12s} {m['unit']}")
        return
    for metric, unit in {**END_TO_END, **RECORDED}.items():
        s = record["stats"][metric]
        spread = f"[q1 {_fmt(s['q1'])}, q3 {_fmt(s['q3'])}]" if "q1" in s else ""
        print(f"{name:15s} {metric:12s} {_fmt(s['median']):>10s} {unit:6s} "
              f"{spread:32s} n={s['n']}")
    print(f"{name:15s} record in {record['path']}")


def result_line(record: dict) -> str:
    # a metric the package can no longer measure is null in the record and
    # 0 here, since the last line carries numbers only
    metrics = {m: {"value": 0.0 if v["value"] is None else v["value"], "unit": v["unit"]}
               for m, v in record["metrics"].items()}
    return json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                       "failed": record["failed"], "metrics": metrics})


def main(argv: list[str] | None = None) -> int:
    default_seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=default_seconds)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # turn a termination request into an exception, so the running child
    # is killed and reaped before the benchmark exits
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "infodelay" / "__init__.py").is_file():
        print(f"error: no infodelay sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = [args.workload] if args.workload else list(workloads.WORKLOADS)
    records = []
    try:
        for name in names:
            record = bench(name, args.seed, args.seconds, bool(args.trace))
            print_record(record)
            records.append(record)
    finally:
        shutil.rmtree(WORK / "tmp", ignore_errors=True)
    if args.workload:
        print(result_line(records[0]))
    else:
        print(json.dumps({r["workload"]: json.loads(result_line(r)) for r in records}))
    return 0 if all(r["correct"] for r in records) else 1


if __name__ == "__main__":
    sys.exit(main())
