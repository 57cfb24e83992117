"""Benchmark of varschouten: four workloads, timed end to end and per layer.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from its
`src/`.  One run of a workload repeats whole rounds of calls for `--seconds`
and prints its metrics, one per line, then a JSON object as the
last line: {"correct", "attempted", "failed", "metrics"}.  With `--trace 0`
the metrics are the end-to-end ones; with `--trace 1` the run alternates
untraced and traced rounds and reports the per-layer metrics instead.
`--workload all` (the default) runs every workload in its own interpreter,
one after the other.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import random
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
SETUP_PROBES = 20
REF_CHUNKS = 8  # reference chunks run after each timed call (see speed.py)

END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "call_p50_s": "s", "peak_rss_mb": "MB"}


def _import_package():
    if not (SRC / "varschouten" / "__init__.py").is_file():
        sys.exit(f"error: no package source at {SRC / 'varschouten'}; "
                 "run from the root of a varschouten checkout")
    sys.path.insert(0, str(SRC))
    import varschouten

    return varschouten


def _setup(name):
    """Import the package and make the workload; its set-up ends when its
    first round of calls has been built."""
    vs = _import_package()
    import workloads

    RUN_DIR.mkdir(exist_ok=True)
    return workloads.make(name, vs, ROOT, RUN_DIR)


def _probe_setup_s(name) -> float:
    """Time from starting a fresh interpreter to the end of set-up, in
    reference seconds.

    The child reports `perf_counter()` when set-up is done (on Linux that
    clock is CLOCK_MONOTONIC, shared by all processes), with the reference
    chunks it ran during set-up and the time they took.
    """
    start = perf_counter()
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--probe-setup", "--workload", name],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=120, check=True)
    done, spent, chunks = json.loads(proc.stdout.splitlines()[-1])
    return (done - start - spent) * speed.scale(chunks or speed.sample(REF_CHUNKS))


class Round:
    """The outcome of one round: for each call, by its key, the times of its
    repeats and the units of one repeat."""

    def __init__(self) -> None:
        self.times: dict = {}
        self.units: dict = {}
        self.seconds = 0.0  # the wall time of every call of the round
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []  # wrong outputs, also counted as failed
        self.crashes: list[str] = []  # calls on which the program raised


def run_round(ops, rng, tracer=None, between=None, paced=False) -> Round:
    """Time each call, in an order drawn from `rng`; check its output outside
    the timed region.  `between()` is called after each call.  With `paced`,
    each call's time is in reference seconds, read from the reference chunks
    run inside it, or right before and after it when it is too short for
    any; otherwise it is in seconds."""
    import checks

    order = list(ops)
    rng.shuffle(order)
    result = Round()
    before = speed.sample(REF_CHUNKS) if paced else None
    for op in order:
        if tracer is not None:
            tracer.begin_op()
            tracer.active = True
        gc.collect()  # every call starts with the collector's generations empty
        with speed.InCall() if paced else contextlib.nullcontext() as inside:
            start = perf_counter()
            try:
                output = op.call()
            except Exception as exc:  # the program failed on this call
                output = exc
                result.crashes.append(f"{type(exc).__name__}: {exc}")
            elapsed = perf_counter() - start
        if tracer is not None:
            tracer.active = False
        if op.ticks:  # a child process's chunks; it ticks whether paced or not
            spent, chunks = op.ticks()
        else:
            spent, chunks = (inside.spent, inside.chunks) if paced else (0.0, [])
        elapsed -= spent
        result.seconds += elapsed
        if paced:
            after = speed.sample(REF_CHUNKS)
            elapsed *= speed.scale(chunks or before + after)
            before = after
        result.times.setdefault(op.key, []).append(elapsed)
        result.units[op.key] = op.units
        result.attempted += op.units
        try:
            if not op.check(output):
                result.failed += op.units
        except checks.CheckFailed as exc:
            result.failed += op.units
            result.errors.append(str(exc))
        del output  # free it before the next call, whose peak memory is measured
        if between is not None:
            between()
    return result


def _src_lines() -> int:
    return sum(len(p.read_text(encoding="utf-8").splitlines()) for p in SRC.rglob("*.py"))


def end_to_end(rounds, peak_kb) -> dict:
    """Each call's time is the median of its repeats over the rounds.  The
    round's throughput (units attempted, failed or not) and its median call
    are taken from those times; pass and fail are left to `attempted` and
    `failed`."""
    call_s = [statistics.median(t for r in rounds for t in r.times[k])
              for k in rounds[0].times]
    return {
        "ops_per_s": sum(rounds[0].units.values()) / sum(call_s),
        "call_p50_s": statistics.median(call_s),
        "peak_rss_mb": peak_kb / 1024,
    }


def measure(workload, seed, seconds, trace):
    """Run whole rounds for `seconds`; return (rounds, metrics).

    The untraced run starts no round when less than half of the last
    round's time is left, so that its length stays near `seconds` also when
    a round is long."""
    rng = random.Random(seed)
    rounds = []
    if not trace:
        # Set-up is probed between calls, at most once per
        # seconds / SETUP_PROBES, and reported by the median probe, so that
        # it is taken over the same stretch of time as the calls.  The
        # probes' own time does not count against `seconds`.
        probes = []
        probe_s = 0.0
        start = last_probe = perf_counter()

        def probe():
            nonlocal last_probe, probe_s
            if perf_counter() - last_probe >= seconds / SETUP_PROBES:
                last_probe = perf_counter()
                probes.append(_probe_setup_s(workload.name))
                probe_s += perf_counter() - last_probe

        def used():
            return perf_counter() - start - probe_s

        last = 0.0
        while not rounds or used() + last / 2 < seconds:
            begun = used()
            rounds.append(run_round(workload.round_ops(), rng, between=probe, paced=True))
            last = used() - begun
        while len(probes) < SETUP_PROBES:
            probes.append(_probe_setup_s(workload.name))
        if hasattr(workload, "child_peak_kb"):
            peak_kb = workload.child_peak_kb
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        values = end_to_end(rounds, peak_kb)
        values["setup_s"] = statistics.median(probes)
        return rounds, values

    from tracer import Tracer

    tracer = Tracer()
    base_s, traced_s, startup_s = [], [], []
    start = perf_counter()
    while not traced_s or perf_counter() - start < seconds:
        plain = run_round(workload.round_ops(), rng)
        rounds.append(plain)
        if workload.inprocess_ops() is None:
            base_s.append(plain.seconds)
            ops = workload.round_ops()
        else:
            # child processes cannot be traced from here: trace the same calls
            # in-process, and time them untraced to split off interpreter start
            base = run_round(workload.inprocess_ops(), rng)
            rounds.append(base)
            base_s.append(base.seconds)
            startup_s.append((plain.seconds - base.seconds) / len(plain.times))
            ops = workload.inprocess_ops()
        tracer.install()
        try:
            traced = run_round(ops, rng, tracer)
        finally:
            tracer.uninstall()
        rounds.append(traced)
        traced_s.append(traced.seconds)
    extra = {
        "cli.startup_s": statistics.median(startup_s) if startup_s else 0.0,
        "tracing.overhead_s": statistics.median(traced_s) - statistics.median(base_s),
        "src.lines": _src_lines(),
    }
    values = tracer.layer_metrics(len(traced_s), extra)
    tracer.write(RUN_DIR / f"spans-{workload.name}.tsv")
    return rounds, values


def run_workload(name, seed, seconds, trace) -> dict:
    import checks

    workload = _setup(name)
    rounds, values = measure(workload, seed, seconds, trace)
    errors = [e for r in rounds for e in r.errors]
    try:
        workload.final_checks()
    except checks.CheckFailed as exc:
        errors.append(str(exc))
    for message in errors[:20]:
        print(f"check failed: {message}", file=sys.stderr)
    for message in [c for r in rounds for c in r.crashes][:5]:
        print(f"call failed: {message[:300]}", file=sys.stderr)
    if trace:
        metrics = values
    else:
        metrics = {k: {"value": values[k], "unit": unit} for k, unit in END_TO_END.items()}
    return {
        "correct": not errors,
        "attempted": sum(r.attempted for r in rounds),
        "failed": sum(r.failed for r in rounds),
        "metrics": metrics,
    }


def _print_result(name, result) -> None:
    for metric, row in result["metrics"].items():
        print(f"{name:>10}  {metric:<40} {row['value']:>14.6g} {row['unit']}")
    print(f"{name:>10}  attempted {result['attempted']}  failed {result['failed']}  "
          f"correct {str(result['correct']).lower()}")


def run_all(args) -> dict:
    """Every workload in its own interpreter, one at a time."""
    import workloads

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.NAMES:
        proc = subprocess.run(
            [sys.executable, str(BENCH / "run.py"), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        if proc.returncode != 0:
            sys.exit(f"error: workload {name} exited with {proc.returncode}")
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        _print_result(name, result)
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, row in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = row
    return combined


def main(argv=None) -> int:
    sys.path.insert(0, str(BENCH))
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if args.probe_setup:
        with speed.InCall() as inside:
            _setup(args.workload).round_ops()
            done = perf_counter()
        print(json.dumps([done, inside.spent, inside.chunks]))
        return 0
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
        _print_result(args.workload, result)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
