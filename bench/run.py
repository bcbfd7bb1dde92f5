#!/usr/bin/env python3
"""Closed-loop benchmark of padicmetrics: one client, one call at a time.

    python3 bench/run.py --workload sampled-checks --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seconds 5      # every workload, both modes

Each run builds its inputs from ``--seed``: pass ``i`` of a workload is
generated from (workload, seed, i), so passes repeat the same mix of calls
on fresh inputs. Pass 0 is an untimed warm-up; timed passes follow until
``--seconds`` have gone by and at least MIN_OPS operations have run.
Every output is checked (see ``workloads``); on the default seed the
canonical output of each operation of the first DIGEST_PASSES passes must
also hash to the value pinned in ``pins.json`` (``--pin`` records them).

The last line of stdout is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
from a run in which every other pass is traced (see ``spans``).
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DEFAULT_SEED = 1
SETUP_REPEATS = 7
SETUP_TIMEOUT_S = 60
SWEEP_REPEATS = 3
MIN_OPS = 200  # so that at least ten timed operations lie beyond the p95
DIGEST_PASSES = 3
WORKLOADS = ("sampled-checks", "padic-windows", "ultrametric-families", "witness-hunt")
LAYERS = ("padic", "functions", "preserving", "padic_preserving",
          "spaces", "families", "fixtures", "cli")
UNIT_SCALE = {"ms": 1e3, "us": 1e6}
# Nominal time of one calibration_kernel() call on a quiet machine; every
# reported time is scaled by CAL_REF_S / (kernel median over its pass).
CAL_REF_S = 1e-3


def bootstrap() -> None:
    """Put the package and the shared test generators on the path, or exit."""
    src, support = ROOT / "src" / "padicmetrics", ROOT / "tests" / "support.py"
    if not src.is_dir() or not support.is_file():
        print(f"error: {src} and {support} are needed; run from a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests"), str(HERE)]


def warm_up() -> None:
    """First use of the PrimeShift sieve, which is cached for the process."""
    from padicmetrics import PrimeShift

    PrimeShift()(2)


def calibration_kernel() -> int:
    """Fixed pure-Python Fraction work that touches no part of the package.

    The machine this runs on changes speed by tens of percent over tens of
    seconds; timing this kernel next to the operations measures that speed,
    and dividing by it makes runs made at different moments comparable.
    """
    a, hits = Fraction(3, 7), 0
    for i in range(1, 300):
        b = Fraction(i, 97)
        hits += a * b <= a + b
    return hits


def time_kernel() -> float:
    gc.disable()  # garbage left by the operations must not land in the kernel
    try:
        t0 = time.perf_counter()
        calibration_kernel()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def setup_seconds(args) -> float:
    """Median wall time of fresh interpreters that import, build and warm up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed), "--scale", args.scale]
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        # pipes, not DEVNULL: a wait with a timeout and no pipe polls in steps
        # of up to 50 ms, which would quantize the measurement
        subprocess.run(cmd, check=True, timeout=SETUP_TIMEOUT_S, capture_output=True)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


class Runner:
    """Runs passes of operations, checks every output and keeps the timings.

    Times are calibrated per pass: each is multiplied by CAL_REF_S over the
    median kernel time measured between the pass's operations.
    """

    def __init__(self, workload, recorder=None, pins: list[str] | None = None) -> None:
        import oracle

        self.oracle = oracle
        self.workload = workload
        self.recorder = recorder
        self.pins = pins
        self.bad: list[str] = []
        self.canon: list[str] = []
        self.attempted = 0
        self.failed = 0
        self.latencies: list[float] = []
        self.factors: list[float] = []
        # calibrated operations per second of each timed pass, by traced / untraced
        self.pass_rates: dict[bool, list[float]] = {False: [], True: []}
        self.op_counter = 0

    def verify(self, op, out, keep: bool) -> bool:
        try:
            problem = op.check(out)
        except Exception as err:  # a check that cannot read the output fails it
            problem = f"check raised {type(err).__name__}: {err}"
        if keep:
            text = self.oracle.canon_json(out)
            if self.pins is not None and not problem:
                i = len(self.canon)
                pin = self.pins[i] if i < len(self.pins) else None
                if self.oracle.short_hash(text) != pin:
                    problem = f"output {i} differs from its pinned hash {pin}"
            self.canon.append(text)
        if problem:
            self.bad.append(f"{op.name}: {problem}")
        return not problem

    def run_op(self, op, traced: bool):
        from workloads import call

        self.op_counter += 1
        if traced:
            rec = self.recorder
            t0 = time.perf_counter()
            root = rec.open("op", "bench", None, self.op_counter)
            span = rec.open(op.name, op.layer, root.sid, self.op_counter)
            out = call(op.fn)
            rec.close(span)
            span.calls = op.calls
            span.witness = self.oracle.has_witness(out)
            rec.close(root)
            t1 = time.perf_counter()
        else:
            t0 = time.perf_counter()
            out = call(op.fn)
            t1 = time.perf_counter()
        return out, t1 - t0

    def run_pass(self, ops, traced: bool, keep: bool):
        """Run ops in order, the kernel before each; returns the calibrated
        latencies and whether each output passed its checks."""
        first_span = len(self.recorder.spans) if self.recorder else 0
        kernel, raw, ok = [], [], []
        for op in ops:
            kernel.append(time_kernel())
            out, dt = self.run_op(op, traced)
            raw.append(dt)
            ok.append(self.verify(op, out, keep))
        f = CAL_REF_S / statistics.median(kernel)
        self.factors.append(f)
        for span in self.recorder.spans[first_span:] if self.recorder else ():
            span.scale = f
        return [dt * f for dt in raw], ok

    def loop(self, seconds: float, trace: bool) -> float:
        """Warm-up pass 0, then timed passes 1, 2, ...; returns the traced
        wall time. Outputs of the first DIGEST_PASSES passes are hashed."""
        self.run_pass(self.workload.make_pass(0), False, keep=True)
        traced_wall = 0.0
        start = time.perf_counter()
        p = 1
        while (p < DIGEST_PASSES or self.attempted < MIN_OPS
               or time.perf_counter() - start < seconds):
            ops = self.workload.make_pass(p)
            traced = trace and p % 2 == 0
            gc.collect()
            t_pass = time.perf_counter()
            lat, ok = self.run_pass(ops, traced, keep=p < DIGEST_PASSES)
            if traced:
                traced_wall += time.perf_counter() - t_pass
            self.attempted += len(ops)
            self.failed += ok.count(False)
            self.latencies += lat
            self.pass_rates[traced].append(len(ops) / sum(lat))
            p += 1
        return traced_wall

    def digest(self) -> str:
        return self.oracle.digest(self.canon)

    def hashes(self) -> list[str]:
        return [self.oracle.short_hash(t) for t in self.canon]


def pinned_hashes(scale: str, workload: str) -> list[str]:
    """Hashes of the canonical outputs of the first passes on the default seed."""
    pins = json.loads((HERE / "pins.json").read_text())
    return pins.get(scale, {}).get(workload, [])


def end_to_end(runner: Runner, setup_s: float) -> dict:
    """The end-to-end metrics; every time is calibrated."""
    q = statistics.quantiles(runner.latencies, n=100)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "ops_per_s": (statistics.median(runner.pass_rates[False]), "ops/s"),
        "op_p50_ms": (statistics.median(runner.latencies) * 1e3, "ms"),
        "op_p95_ms": (q[94] * 1e3, "ms"),
        "ok_ratio": ((runner.attempted - runner.failed) / runner.attempted, "1"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (rss_kb / 1024, "MB"),
    }


def per_call_metrics(spans, ops_by_name) -> dict:
    """Median calibrated time per call of every named call, and each
    group's growth."""
    times: dict[str, list[float]] = {}
    for s in spans:
        if s.name in ops_by_name:
            times.setdefault(s.name, []).append(s.duration * s.scale / s.calls)
    out = {}
    groups: dict[str, list[tuple[float, float]]] = {}
    for name, op in sorted(ops_by_name.items()):
        value = statistics.median(times[name]) * UNIT_SCALE[op.unit]
        out[f"{name}.{op.unit}"] = (value, op.unit)
        if op.size is not None:
            groups.setdefault(name.rsplit(".", 1)[0], []).append((op.size, value))
    for group, points in sorted(groups.items()):
        if len(points) > 1:
            (s0, t0), (s1, t1) = min(points), max(points)
            out[f"{group}.growth_exp"] = (math.log(t1 / t0) / math.log(s1 / s0), "1")
    return out


def per_layer_spec(ops_by_name) -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric a traced run reports."""
    spec = []
    sizes: dict[str, int] = {}
    for name, op in sorted(ops_by_name.items()):
        spec.append((f"{name}.{op.unit}", op.unit, "lower"))
        if op.size is not None:
            group = name.rsplit(".", 1)[0]
            sizes[group] = sizes.get(group, 0) + 1
    spec += [(f"{g}.growth_exp", "1", "lower") for g, k in sorted(sizes.items()) if k > 1]
    for layer in LAYERS:
        spec += [(f"{layer}.calls", "count", "higher"), (f"{layer}.self_s", "s", "lower"),
                 (f"{layer}.share", "1", "lower"), (f"{layer}.witness_ratio", "1", "higher")]
    spec.append(("trace.overhead_ratio", "1", "higher"))
    return spec


def layer_metrics(recorder, loop_spans, traced_wall: float) -> dict:
    self_t = recorder.self_times()
    out = {}
    for layer in LAYERS:
        mine = [s for s in loop_spans if s.layer == layer]
        calls = sum(s.calls for s in mine)
        busy = sum(self_t[s.sid] for s in mine)
        out[f"{layer}.calls"] = (calls, "count")
        out[f"{layer}.self_s"] = (sum(self_t[s.sid] * s.scale for s in mine), "s")
        out[f"{layer}.share"] = (busy / traced_wall, "1")
        out[f"{layer}.witness_ratio"] = (sum(s.witness for s in mine) / calls if calls else 0.0, "1")
    return out


def all_ops(seed: int, scale: str) -> dict:
    """Every named operation of the first pass of every workload."""
    import workloads

    ops = {}
    for name in WORKLOADS:
        for op in workloads.build(name, seed, scale).make_pass(0):
            ops.setdefault(op.name, op)
    return ops


def sweep(runner: Runner, ops_by_name: dict, seen: set) -> bool:
    """Time each named call the workload itself never made, a few times."""
    missing = [op for name, op in sorted(ops_by_name.items()) if name not in seen]
    _, ok = runner.run_pass(missing * SWEEP_REPEATS, True, keep=False)
    return all(ok)


def run(args) -> int:
    bootstrap()
    import spans
    import workloads

    setup_raw = setup_seconds(args) if not args.trace else 0.0
    wl = workloads.build(args.workload, args.seed, args.scale)
    warm_up()
    pinning = args.pin and args.seed == DEFAULT_SEED
    pins = pinned_hashes(args.scale, args.workload) if args.seed == DEFAULT_SEED else None
    pins = None if pinning else pins
    runner = Runner(wl, spans.Recorder() if args.trace else None, pins)
    traced_wall = runner.loop(args.seconds, bool(args.trace))
    if pins is not None and len(pins) != len(runner.canon):
        runner.bad.append(f"{len(runner.canon)} outputs hashed, {len(pins)} pinned")
    if pinning and not runner.bad:
        pinned = json.loads((HERE / "pins.json").read_text())
        pinned.setdefault(args.scale, {})[args.workload] = runner.hashes()
        (HERE / "pins.json").write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")

    ok = not runner.bad and runner.failed == 0
    digest = runner.digest()

    if args.trace:
        rec = runner.recorder
        loop_spans = [s for s in rec.spans if s.layer in LAYERS]
        seen = {s.name for s in loop_spans}
        ops_by_name = all_ops(args.seed, args.scale)
        ok = sweep(runner, ops_by_name, seen) and ok
        call_spans = [s for s in rec.spans if s.layer in LAYERS]
        metrics = per_call_metrics(call_spans, ops_by_name)
        metrics.update(layer_metrics(rec, loop_spans, traced_wall))
        rates = runner.pass_rates
        metrics["trace.overhead_ratio"] = (
            statistics.median(rates[True]) / statistics.median(rates[False]), "1")
        out_dir = ROOT / ".bench_out"
        rec.write(out_dir / f"spans-{args.workload}-seed{args.seed}.json")
    else:
        # set-up ran seconds before the loop, so the run's factor applies;
        # kernel samples taken between the short-lived children were noisier
        metrics = end_to_end(runner, setup_raw * statistics.median(runner.factors))

    for problem in runner.bad:
        print(f"FAILED {problem}", file=sys.stderr)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{runner.attempted} ops, {runner.failed} failed, digest {digest}", file=sys.stderr)
    factor = statistics.median(runner.factors)
    print(f"  calibration factor {factor:.4f} median over passes (kernel "
          f"{CAL_REF_S / factor * 1e6:.0f} us against {CAL_REF_S * 1e6:.0f} us)"
          + (f"; set-up {setup_raw:.4f} s uncalibrated" if not args.trace else ""),
          file=sys.stderr)
    for name, (value, unit) in metrics.items():
        print(f"  {name:52s} {value:14.6g} {unit}", file=sys.stderr)
    print(json.dumps({
        "correct": ok,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own interpreter."""
    status = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(trace), "--scale", args.scale]
            proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
            sys.stdout.write(proc.stderr)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            status |= proc.returncode != 0 or not result["correct"]
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full",
                    help="tiny shrinks every input for the self-check")
    ap.add_argument("--pin", action="store_true",
                    help="record the output hashes of this run as the pinned ones")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    if args.setup_probe:
        bootstrap()
        import workloads

        workloads.build(args.workload, args.seed, args.scale).make_pass(0)
        warm_up()
        return 0
    if args.workload == "all":
        return run_all(args)
    return run(args)


if __name__ == "__main__":
    sys.exit(main())
