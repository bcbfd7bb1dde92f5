#!/usr/bin/env python3
"""Fast self-check of the benchmark (about a minute).

    python3 bench/selfcheck.py

Runs every workload at the tiny scale, untraced and traced, and checks
that no operation fails and that the pinned digest matches on the default
seed; that another seed gives other inputs; that the metric names agree
with BENCHMARK.json; and that the benchmark exits nonzero without a result
when the package is not beside it.
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402


def bench(*args: str, cwd: Path = ROOT, runner: Path = HERE / "run.py"):
    proc = subprocess.run([sys.executable, str(runner), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    return proc, (json.loads(lines[-1]) if lines else None)


def digest_of(proc) -> str:
    return re.search(r"digest ([0-9a-f]+)", proc.stderr).group(1)


def main() -> int:
    problems = []

    def need(cond: bool, what: str) -> None:
        if not cond:
            problems.append(what)
            print(f"FAIL {what}", file=sys.stderr)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"] for m in spec["end_to_end"]}
    run.bootstrap()
    want_layer = {name for name, _, _ in run.per_layer_spec(run.all_ops(1, "full"))}
    need(want_layer == {m["name"] for m in spec["per_layer"]},
         "BENCHMARK.json per_layer differs from the names the traced run reports")
    tiny_layer = {name for name, _, _ in run.per_layer_spec(run.all_ops(1, "tiny"))}

    for workload in run.WORKLOADS:
        for trace in ("0", "1"):
            proc, result = bench("--workload", workload, "--seed", str(run.DEFAULT_SEED),
                                 "--seconds", "0.2", "--trace", trace, "--scale", "tiny")
            tag = f"{workload} trace {trace}"
            need(proc.returncode == 0 and result is not None, f"{tag}: exit {proc.returncode}")
            if result is None:
                continue
            need(result["correct"] and result["failed"] == 0 and result["attempted"] >= 200,
                 f"{tag}: correct={result['correct']} failed={result['failed']}")
            names = set(result["metrics"])
            need(names == (tiny_layer if trace == "1" else end_to_end), f"{tag}: metric names")
        other, _ = bench("--workload", workload, "--seed", "2", "--seconds", "0.2",
                         "--scale", "tiny")
        need(digest_of(other) != digest_of(proc), f"{workload}: seed 2 gives the same outputs")

    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / HERE.name, ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc, result = bench("--workload", run.WORKLOADS[0], "--seed", "1", "--seconds", "1",
                         cwd=bare, runner=bare / HERE.name / "run.py")
    need(proc.returncode != 0 and result is None, "a bare copy must exit nonzero without a result")
    shutil.rmtree(bare)

    print("selfcheck: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
