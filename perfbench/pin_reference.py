#!/usr/bin/env python3
"""Pin the reference outputs of the default seed under reference/.

    python3 perfbench/pin_reference.py

Run it only on the commit whose outputs are the reference; every later
benchmark run at the default seed is checked against these files at
the accuracy stated in check.py.
"""
from __future__ import annotations

import shutil
import sys

import check
import run
import workloads

# files kept per workload, relative to the run's output directory
KEEP = {
    "simulate-cycle": ["report.json"],
    "analyze-sweep": ["analyze/report.json", "sweep/sweep.csv"],
}


def pin(name: str) -> None:
    target = check.REFERENCE_DIR / name
    shutil.rmtree(target, ignore_errors=True)
    target.mkdir(parents=True)

    def keep(out_dir, children):
        if name == "memory-ladder":
            (target / "ladder.json").write_text(children[-1].stdout, encoding="utf-8")
        for rel in KEEP.get(name, []):
            (target / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copyfile(out_dir / rel, target / rel)

    run.run_iteration(workloads.make_inputs(name, workloads.DEFAULT_SEED), False, keep)


def main() -> int:
    for name in workloads.WORKLOADS:
        pin(name)
    check.reference.cache_clear()
    ok = True
    for name in workloads.WORKLOADS:
        it = run.run_iteration(workloads.make_inputs(name, workloads.DEFAULT_SEED), False)
        print(f"{name}: {'ok' if not it.failures else it.failures[:5]}")
        ok = ok and not it.failures
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
