"""Tests of the benchmark itself: `python -m pytest bench`.

A tiny pass of every workload must run all of its checks and pass them, and
every check must fail when it is fed a deliberately wrong output.
"""

import json
import random
import shutil
import signal
import subprocess
import time
from types import SimpleNamespace

import pytest

import checks
import run
import speed
import tracer as tracing
import workloads

vs = run._import_package()
ROOT = run.ROOT


@pytest.fixture
def ctx():
    return vs.parse_context(workloads.DEFAULT_CONTEXT)


@pytest.fixture
def golden_report(ctx):
    return vs.expand_trace(*workloads.golden_triple(vs, ctx))


@pytest.fixture
def counted(monkeypatch):
    """Counts calls of every check function."""
    calls = {}
    for name in dir(checks):
        fn = getattr(checks, name)
        if callable(fn) and (name.startswith("check_") or name == "deep_input_passes"):
            def wrapper(*args, _fn=fn, _name=name, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(checks, name, wrapper)
    return calls


def _tiny(name):
    run.RUN_DIR.mkdir(exist_ok=True)
    return {
        "fuzz-line": lambda: workloads.FuzzLine(vs, trials=(1, 3)),
        "trace-line": lambda: workloads.TraceLine(vs, trials=(1,)),
        "contexts": lambda: workloads.Contexts(vs, trials=(7,)),
        "cli-cold": lambda: workloads.CliCold(vs, ROOT, run.RUN_DIR),
    }[name]()


EXPECTED_CHECKS = {
    "fuzz-line": {"check_fuzz_report", "check_negative_control"},
    "trace-line": {"check_trace_report", "check_golden_bookkeeping", "check_trace_json"},
    "contexts": {"check_fuzz_report", "check_trace_report", "check_trace_json",
                 "check_negative_control"},
    "cli-cold": {"check_cli_density", "check_cli_jacobi", "check_cli_trace_plain",
                 "check_trace_json_golden", "check_golden_bookkeeping", "deep_input_passes"},
}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_tiny_pass_runs_every_check(name, counted):
    workload = _tiny(name)
    result = run.run_round(workload.round_ops(), random.Random(7))
    workload.final_checks()
    assert result.errors == []
    assert EXPECTED_CHECKS[name] <= set(counted)
    if name == "cli-cold":
        # the deeply nested input is the one known failure
        assert (result.attempted, result.failed) == (7, 1)
        assert workload.last_ticks[1]  # the child ran reference chunks
        inproc = run.run_round(workload.inprocess_ops(), random.Random(7))
        assert inproc.errors == [] and (inproc.attempted, inproc.failed) == (7, 1)
    else:
        assert result.failed == 0


# -- each check fails on a wrong output --------------------------------------


def test_fuzz_report_check_rejects_failures():
    good = {"trials": 3, "verified": 3, "degenerate": 0, "failures": []}
    checks.check_fuzz_report(good, 3)
    with pytest.raises(checks.CheckFailed):
        checks.check_fuzz_report(dict(good, verified=2, failures=[{"index": 1}]), 3)
    with pytest.raises(checks.CheckFailed):
        checks.check_fuzz_report(good, 4)


def test_negative_control_needs_a_refutation(ctx):
    defect = vs.jacobi_defect(*workloads.golden_triple(vs, ctx)).density
    checks.check_negative_control(vs, defect, "q", "p")
    accepts_all = SimpleNamespace(jet=vs.jet, is_exact=lambda e: True)
    with pytest.raises(checks.CheckFailed):
        checks.check_negative_control(accepts_all, defect, "q", "p")


def test_trace_check_accepts_golden(golden_report):
    checks.check_trace_report(vs, golden_report, golden=True)


def _perturb_density(ctx, golden_report, section, label):
    piece = next(p for p in getattr(golden_report, f"{section}_terms") if p.label == label)
    piece.density = piece.density + vs.jet(ctx, "q")


@pytest.mark.parametrize("section,label", [("lhs", 1), ("rhs2", 9)])
def test_trace_check_rejects_perturbed_density(ctx, golden_report, section, label):
    _perturb_density(ctx, golden_report, section, label)
    with pytest.raises(checks.CheckFailed):
        checks.check_trace_report(vs, golden_report)


def test_trace_check_rejects_dropped_match(golden_report):
    golden_report.matches.pop(3)
    with pytest.raises(checks.CheckFailed):
        checks.check_trace_report(vs, golden_report)


def test_trace_check_rejects_dropped_cancellation(golden_report):
    golden_report.cancellation_pairs.pop()
    with pytest.raises(checks.CheckFailed):
        checks.check_trace_report(vs, golden_report)


def test_trace_check_rejects_wrong_total(ctx, golden_report):
    golden_report.rhs1_total = golden_report.rhs1_total + vs.jet(ctx, "p")
    with pytest.raises(checks.CheckFailed):
        checks.check_trace_report(vs, golden_report)


def test_trace_check_rejects_unresolved_piece(golden_report):
    golden_report.rhs1_terms[0].status = "unresolved"
    with pytest.raises(checks.CheckFailed):
        checks.check_trace_report(vs, golden_report)


def test_golden_bookkeeping_check():
    lhs = list(range(1, 9))
    matches = [(k, "canonical") for k in lhs]
    pairs = [(k, k) for k in range(9, 15)]
    checks.check_golden_bookkeeping(lhs, matches, pairs)
    for wrong in ((lhs[:-1], matches, pairs),
                  (lhs, matches[:-1] + [(8, "divergence")], pairs),
                  (lhs, matches, pairs[:-1])):
        with pytest.raises(checks.CheckFailed):
            checks.check_golden_bookkeeping(*wrong)


def test_trace_check_rejects_wrong_group_level_claim(ctx, golden_report):
    # move a matched pair to group level, then spoil one side
    lhs = golden_report.lhs_terms[0]
    rhs = next(p for p in golden_report.rhs1_terms if p.label == lhs.label)
    lhs.partner = rhs.partner = ("group", 99)
    checks.check_trace_report(vs, golden_report)
    rhs.density = rhs.density.scale(2)
    with pytest.raises(checks.CheckFailed):
        checks.check_trace_report(vs, golden_report)


def test_trace_json_check(golden_report):
    text = vs.format_trace_report(golden_report, "json")
    checks.check_trace_json(text, golden_report)
    data = json.loads(text)
    data["matches"].pop()
    with pytest.raises(checks.CheckFailed):
        checks.check_trace_json(json.dumps(data), golden_report)
    data = json.loads(text)
    data["sections"]["rhs1"]["terms"].pop()
    with pytest.raises(checks.CheckFailed):
        checks.check_trace_json(json.dumps(data), golden_report)


def test_golden_json_check(ctx, golden_report):
    text = vs.format_trace_report(golden_report, "json")
    checks.check_trace_json_golden(vs, ctx, text)
    for section, label in (("rhs1", 1), ("rhs2", 9)):
        data = json.loads(text)
        row = next(r for r in data["sections"][section]["terms"] if r["label"] == label)
        row["density"] = "2*(" + row["density"] + ")"
        with pytest.raises(checks.CheckFailed):
            checks.check_trace_json_golden(vs, ctx, json.dumps(data))


def _cli_check(workload, command):
    return next(check for argv, check in workload.calls if argv[0] == command)


def test_cli_checks_reject_wrong_outputs():
    workload = _tiny("cli-cold")
    bad = {
        "normalize": [(0, "2*q[1]*p + q\n", ""), (2, "2*q[1]*p\n", "")],
        "euler": [(0, "q*p[2] + 2*q[1]*p[1]\n", "")],
        "bracket": [(0, "q[1]*p\n", ""), (1, "", "")],
        "jacobi": [(1, "x\nNONZERO\n", ""), (0, "x\nNONZERO\n", "")],
        "trace": [(0, "verdict: unresolved\n", "")],
    }
    for command, outputs in bad.items():
        check = _cli_check(workload, command)
        for code, out, err in outputs:
            with pytest.raises(checks.CheckFailed):
                check(code, out, err)


def test_checks_reject_unreadable_output(ctx, golden_report):
    for bad in ("", "{", '{"verdict": "verified"}', "[1, 2]"):
        with pytest.raises(checks.CheckFailed):
            checks.check_trace_json(bad, golden_report)
        with pytest.raises(checks.CheckFailed):
            checks.check_trace_json_golden(vs, ctx, bad)
    with pytest.raises(checks.CheckFailed):
        checks.check_cli_jacobi(0, "")
    with pytest.raises(checks.CheckFailed):
        checks.check_cli_density(vs, ctx, 0, "q[1 *", vs.jet(ctx, "q"))


def test_wrong_output_counts_as_failed():
    def wrong(output):
        raise checks.CheckFailed("wrong")

    ops = [workloads.Op(2, lambda: 1, wrong, "a"),
           workloads.Op(1, lambda: 1, lambda out: True, "b")]
    result = run.run_round(ops, random.Random(0))
    assert (result.attempted, result.failed, result.errors) == (3, 2, ["wrong"])


def test_repeats_of_a_call_count_once_at_their_median(monkeypatch):
    clock = iter([0.0, 0.3, 1.0, 1.1, 2.0, 2.2])  # calls of 0.3, 0.1 and 0.2 s
    monkeypatch.setattr(run, "perf_counter", lambda: next(clock))
    ops = [workloads.Op(1, lambda: None, lambda out: True, "light") for _ in range(3)]
    result = run.run_round(ops, random.Random(0))
    assert result.times == {"light": pytest.approx([0.3, 0.1, 0.2])}
    assert result.units == {"light": 1} and result.attempted == 3
    assert result.seconds == pytest.approx(0.6)
    assert run.end_to_end([result], 1024)["ops_per_s"] == pytest.approx(5)


def test_paced_call_is_scaled_to_the_reference_speed(monkeypatch):
    # reference chunks take twice their nominal time: the machine runs at half speed
    monkeypatch.setattr(speed, "sample", lambda n: [2 * speed.REF_CHUNK_S] * n)
    clock = iter([0.0, 0.4])
    monkeypatch.setattr(run, "perf_counter", lambda: next(clock))
    result = run.run_round([workloads.Op(1, lambda: None, lambda out: True, "a")],
                           random.Random(0), paced=True)
    assert result.times == {"a": pytest.approx([0.2])}
    assert result.seconds == pytest.approx(0.4)


@pytest.mark.parametrize("paced,want", [(False, 0.3), (True, 0.15)])
def test_child_chunks_are_taken_out_of_the_call(monkeypatch, paced, want):
    # the child spent 0.1 s of the call's 0.4 s in chunks, at half speed
    clock = iter([0.0, 0.4])
    monkeypatch.setattr(run, "perf_counter", lambda: next(clock))
    op = workloads.Op(1, lambda: None, lambda out: True, "a",
                      lambda: (0.1, [2 * speed.REF_CHUNK_S] * 3))
    result = run.run_round([op], random.Random(0), paced=paced)
    assert result.times == {"a": pytest.approx([want])}
    assert result.seconds == pytest.approx(0.3)


def test_in_call_chunks_run_and_are_timed():
    previous = signal.getsignal(signal.SIGVTALRM)
    with speed.InCall() as inside:
        end = time.process_time() + 0.1
        while time.process_time() < end:
            pass
    assert len(inside.chunks) >= 3
    assert inside.spent >= sum(inside.chunks) > 0
    assert signal.getsignal(signal.SIGVTALRM) == previous
    assert signal.getitimer(signal.ITIMER_VIRTUAL) == (0.0, 0.0)


def test_cli_crash_counts_as_failed():
    judge = workloads.CliCold._judge(lambda code, out, err: None)
    assert judge((0, "", ""))
    assert not judge((1, "", "Traceback (most recent call last):\n  ...\nRecursionError\n"))
    assert not judge(TimeoutError("child ran too long"))


def test_deep_input_outcomes():
    tb = "Traceback (most recent call last):\n  File ...\nRecursionError: ...\n"
    assert not checks.deep_input_passes(1, "", tb)
    assert checks.deep_input_passes(0, "q\n", "")
    assert checks.deep_input_passes(2, "", "error: nesting too deep (line 1, col 900)\n")
    assert not checks.deep_input_passes(2, "", "error: a\nsecond line\n")
    assert not checks.deep_input_passes(0, "p\n", "")


# -- tracer --------------------------------------------------------------------


def test_tracer_restores_every_binding(ctx, golden_report):
    import varschouten.schouten as schouten

    before = (schouten.euler, vs.is_exact, vs.Expression.__mul__)
    t = tracing.Tracer()
    t.install()
    try:
        assert schouten.euler is not before[0]
        t.begin_op()
        t.active = True
        vs.expand_trace(*workloads.golden_triple(vs, ctx))
        t.active = False
    finally:
        t.uninstall()
    assert (schouten.euler, vs.is_exact, vs.Expression.__mul__) == before
    metrics = t.layer_metrics(1, {"cli.startup_s": 0.0, "tracing.overhead_s": 0.0,
                                  "src.lines": 1})
    assert set(metrics) == set(tracing.LAYER_METRICS)
    assert metrics["schouten.bracket.calls"]["value"] > 0
    assert metrics["trace.check_s"]["value"] > 0


def test_self_time_and_check_time():
    t = tracing.Tracer()
    code = t.code
    spans = [("trace.expand", -1, 0.0, 10.0), ("schouten.bracket", 0, 1.0, 4.0),
             ("core.mul", 1, 2.0, 3.0), ("calculus.is_exact", 0, 5.0, 6.0)]
    for name, parent, start, end in spans:
        t.names.append(code[name])
        t.parents.append(parent)
        t.ops.append(0)
        t.starts.append(start)
        t.ends.append(end)
    totals = t.layer_totals()
    assert totals["trace.expand"]["self_s"] == 6.0
    assert totals["schouten.bracket"]["self_s"] == 2.0
    assert totals["trace.check_s"] == 4.0


def test_is_exact_inputs_differing_by_sign_count_once(ctx):
    e = vs.parse_density("q[1]*q[2]", ctx)
    t = tracing.Tracer()
    t.install()
    try:
        t.begin_op()
        t.active = True
        for x in (e, -e, e, e + e):
            vs.is_exact(x)
        t.active = False
    finally:
        t.uninstall()
    m = t.layer_metrics(1, {"cli.startup_s": 0.0, "tracing.overhead_s": 0.0, "src.lines": 1})
    assert m["calculus.is_exact.distinct_ratio"]["value"] == 0.5


# -- the command ----------------------------------------------------------------


def test_end_to_end_takes_each_calls_median_repeat():
    rounds = []
    for times in ([1.0, 0.1, 0.4], [3.0, 0.2, 0.2], [2.0, 0.3, 0.3]):
        r = run.Round()
        r.times = {k: [t] for k, t in enumerate(times)}
        r.units = {0: 1, 1: 1, 2: 1}
        rounds.append(r)
    m = run.end_to_end(rounds, 2048)
    assert m["ops_per_s"] == pytest.approx(3 / 2.5)
    assert m["call_p50_s"] == 0.3
    assert m["peak_rss_mb"] == 2.0


def _last_json(stdout):
    return json.loads(stdout.strip().splitlines()[-1])


def _bench_json():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_names_match_the_runner():
    spec = _bench_json()
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.LAYER_METRICS


@pytest.mark.parametrize("trace", [0, 1])
def test_command_prints_result_line(trace):
    spec = _bench_json()
    proc = subprocess.run(
        spec["command"] + ["--workload", "cli-cold", "--seed", "3", "--seconds", "1",
                           "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = _last_json(proc.stdout)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] == 7 * result["failed"] > 0
    kind = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in spec[kind]}


def test_command_fails_without_the_program(tmp_path):
    spec = _bench_json()
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in spec["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path,
                        ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        spec["command"] + ["--workload", "fuzz-line", "--seed", "1", "--seconds", "1",
                           "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
