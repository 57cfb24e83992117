"""Reference figures: the ROADMAP baseline measurements, reproduced.

    python3 bench/reference.py

Times, once each and on fresh contexts: `run_fuzz(seed=2026, count=100)`
(acceptance criterion 5), `expand_trace` of the golden triple and of
criterion-5 trial #51, and then `SETS` sets of the golden-triple CLI calls
of the cli-cold workload, reporting the mean time per call of each set.
Takes one to two minutes; prints one JSON object.
"""

from __future__ import annotations

import json
import os
import random
import statistics
import sys
from time import perf_counter

import run
import workloads

SETS = 5


def _timed(fn):
    start = perf_counter()
    fn()
    return perf_counter() - start


def main() -> int:
    cli = run._setup("cli-cold")
    vs = cli.vs

    def ctx():
        return vs.parse_context(workloads.DEFAULT_CONTEXT)

    params = vs.FuzzParams()
    figures = {
        "fuzz_100_s": _timed(lambda: vs.run_fuzz(ctx(), vs.FuzzParams(seed=2026, count=100))),
        "trace_golden_s": _timed(lambda: vs.expand_trace(*workloads.golden_triple(vs, ctx()))),
        "trace_trial51_s": _timed(
            lambda: vs.expand_trace(*workloads.corpus_triple(vs, ctx(), params, 51))),
    }
    per_call = []
    for _ in range(SETS):
        ops = cli.round_ops()[:-1]  # without the deeply nested input
        result = run.run_round(ops, random.Random(0))
        per_call.append(result.seconds / len(ops))
    figures["cli_cold_per_call_s"] = per_call
    figures["cli_cold_per_call_median_s"] = statistics.median(per_call)
    figures["python"] = sys.version.split()[0]
    figures["cores"] = os.cpu_count()
    print(json.dumps(figures, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
