"""The workloads: their inputs, their timed calls and their output checks.

Every call gets its own freshly parsed field context, so it pays the
per-context caches cold, as a CLI process does, and no call's time depends
on which calls ran before it.  The inputs are fixed corpora (see README.md
for why); the benchmark's seed sets the order of the calls within each round.
Calls go through the package's module attributes at call time so that the
tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import io
import os
import random
import signal
import subprocess
import sys
import tempfile
import traceback
from dataclasses import dataclass
from typing import Callable, Optional

import checks

DEFAULT_CONTEXT = "indep x\nfield q even antifield p\n"
GOLDEN = ("p * q * q[2]", "p[1] * exp(q[1])", "p[2] * cos(q)")
CORPUS_SEED = 2026  # the corpus of acceptance criterion 5

CLI_TIMEOUT_S = 60

# A light call (under 0.1 s, against 0.4-5 s for the heavy ones) is made this
# many times in each round of fuzz-line and trace-line.  The median call of
# those workloads is a light one, and the heavy calls leave room for only 2-3
# rounds in a run, so this gives the median 16 or more samples.
LIGHT_REPEATS = 8


def _repeats(light: bool) -> range:
    return range(LIGHT_REPEATS if light else 1)


@dataclass
class Op:
    """One timed call into the program.

    `check(output)` returns True when the call passed and False when the
    program failed on it (an exception or a crash); it raises
    `checks.CheckFailed` when the program answered wrongly.  `key` names the
    call: repeats of one call share it, and the call is timed by the median
    of its repeats.  For a call made in a child process, `ticks()` gives the
    time the child spent in reference chunks and their times (speed.py).
    """

    units: int
    call: Callable[[], object]
    check: Callable[[object], bool]
    key: object
    ticks: Optional[Callable[[], tuple]] = None


def trial_master_seed(vs, index: int) -> int:
    """A master seed whose first `run_fuzz` trial is trial `index` of the
    criterion-5 corpus (trial_seed(s, 0) is s XOR a constant)."""
    return vs.trial_seed(CORPUS_SEED, index) ^ vs.trial_seed(0, 0)


def corpus_triple(vs, ctx, params, index: int):
    """The F, G, H that `run_fuzz(seed=2026)` draws in trial `index`."""
    rng = random.Random(vs.trial_seed(CORPUS_SEED, index))
    return tuple(vs.random_functional(ctx, rng, params, label) for label in "FGH")


def golden_triple(vs, ctx):
    return tuple(vs.Functional(vs.parse_density(text, ctx), label)
                 for text, label in zip(GOLDEN, "FGH"))


def _passes(fn) -> Callable[[object], bool]:
    """A check for in-process calls: an exception is a failed call."""
    def check(output) -> bool:
        if isinstance(output, Exception):
            return False
        fn(output)
        return True
    return check


def _trace_op(vs, triple, key, golden=False) -> Op:
    def call():
        report = vs.expand_trace(*triple)
        return report, vs.format_trace_report(report, "json")

    def check(output):
        report, text = output
        checks.check_trace_report(vs, report, golden=golden)
        checks.check_trace_json(text, report)

    return Op(1, call, _passes(check), key)


def _fuzz_op(vs, ctx, params, key) -> Op:
    return Op(params.count, lambda: vs.run_fuzz(ctx, params),
              _passes(lambda report: checks.check_fuzz_report(report, params.count)), key)


class Workload:
    name = ""

    def __init__(self, vs) -> None:
        self.vs = vs

    def round_ops(self) -> list[Op]:
        raise NotImplementedError

    def inprocess_ops(self):
        """In-process stand-ins for calls that run in child processes."""
        return None

    def final_checks(self) -> None:
        """Checks made once per run, outside any round."""


class FuzzLine(Workload):
    """`run_fuzz` on the default context at the default generator settings,
    one criterion-5 trial per call."""

    name = "fuzz-line"
    LIGHT = frozenset({1, 3, 5, 6, 7, 8})

    def __init__(self, vs, trials=tuple(range(10))) -> None:
        super().__init__(vs)
        self.trials = trials

    def round_ops(self) -> list[Op]:
        vs = self.vs
        return [_fuzz_op(vs, vs.parse_context(DEFAULT_CONTEXT),
                         vs.FuzzParams(seed=trial_master_seed(vs, i), count=1), i)
                for i in self.trials for _ in _repeats(i in self.LIGHT)]

    def final_checks(self) -> None:
        vs = self.vs
        ctx = vs.parse_context(DEFAULT_CONTEXT)
        defect = vs.jacobi_defect(*golden_triple(vs, ctx)).density
        checks.require(vs.is_exact(defect), "golden Jacobi defect is not exact")
        checks.check_negative_control(vs, defect, "q", "p")


class TraceLine(Workload):
    """`expand_trace` plus the JSON report on the golden triple and on
    criterion-5 triples from light to heavy."""

    name = "trace-line"
    LIGHT = frozenset({"golden", 1, 3, 5})

    def __init__(self, vs, trials=tuple(range(6))) -> None:
        super().__init__(vs)
        self.trials = trials

    def round_ops(self) -> list[Op]:
        vs = self.vs

        def ctx():
            return vs.parse_context(DEFAULT_CONTEXT)

        ops = [_trace_op(vs, golden_triple(vs, ctx()), "golden", golden=True)
               for _ in _repeats("golden" in self.LIGHT)]
        ops += [_trace_op(vs, corpus_triple(vs, ctx(), vs.FuzzParams(), i), i)
                for i in self.trials for _ in _repeats(i in self.LIGHT)]
        return ops


# Three non-default contexts: two pairs, one of them with an odd field; two
# independent coordinates; a single odd field.
CONTEXTS = {
    "pairs": "indep x\nfield u even antifield v\nfield a odd antifield b\n",
    "plane": "indep x y\nfield q even antifield p\n",
    "odd": "indep t\nfield psi odd antifield chi\n",
}
# At the default jet order one 2-D trace takes about 135 s.
CONTEXT_JET_ORDER = 1


class Contexts(Workload):
    """`run_fuzz` of one trial, and `expand_trace` plus the JSON report, on
    criterion-5 seeds in each of the three contexts above, at jet order 1."""

    name = "contexts"

    def __init__(self, vs, trials=tuple(range(8))) -> None:
        super().__init__(vs)
        self.trials = trials

    def _params(self, **kwargs):
        return self.vs.FuzzParams(max_jet_order=CONTEXT_JET_ORDER, **kwargs)

    def round_ops(self) -> list[Op]:
        vs = self.vs
        ops = []
        for name, text in CONTEXTS.items():
            for i in self.trials:
                params = self._params(seed=trial_master_seed(vs, i), count=1)
                ops.append(_fuzz_op(vs, vs.parse_context(text), params, (name, "fuzz", i)))
                triple = corpus_triple(vs, vs.parse_context(text), self._params(), i)
                ops.append(_trace_op(vs, triple, (name, "trace", i)))
        return ops

    def final_checks(self) -> None:
        vs = self.vs
        for text in CONTEXTS.values():
            ctx = vs.parse_context(text)
            defect = vs.jacobi_defect(*corpus_triple(vs, ctx, self._params(), 0)).density
            checks.require(vs.is_exact(defect), f"Jacobi defect not exact in {text!r}")
            field, antifield = (ctx.names[i] for i in ctx.pairs[0])
            checks.check_negative_control(vs, defect, field, antifield)


DEEP_NESTING = 3000

# `python -m varschouten ARGS` with reference chunks ticking inside the
# child (speed.py), run as `python -c TICKED_MAIN TICKS_FILE ARGS`.  The
# child writes the time its chunks took, then their times, to TICKS_FILE.
TICKED_MAIN = """
import sys
sys.path.insert(0, {bench!r})
import speed
del sys.path[0]
import runpy
out = sys.argv.pop(1)
inside = speed.InCall()
try:
    with inside:
        runpy.run_module("varschouten", run_name="__main__", alter_sys=True)
finally:
    with open(out, "w") as f:
        f.write(" ".join(map(repr, [inside.spent] + inside.chunks)))
"""


class CliCold(Workload):
    """Cold `python -m varschouten` processes on the golden triple, one at a time."""

    name = "cli-cold"

    def __init__(self, vs, root, run_dir) -> None:
        super().__init__(vs)
        import varschouten.cli  # noqa: F401  (binds vs.cli for in-process calls)

        self.root = str(root)
        self.run_dir = str(run_dir)
        self.env = dict(os.environ)
        src = os.path.join(self.root, "src")
        self.env["PYTHONPATH"] = src + os.pathsep + self.env.get("PYTHONPATH", "")
        self.env.pop("VARSCHOUTEN_SEED", None)
        self.child_peak_kb = 0
        self.main = TICKED_MAIN.format(bench=os.path.dirname(os.path.abspath(__file__)))
        self.ticks_path = os.path.join(self.run_dir, "cli-ticks")
        self.ctx = vs.parse_context(DEFAULT_CONTEXT)
        self.calls = self._calls()

    def _calls(self):
        """(argv, check(code, stdout, stderr)) for each call of a round."""
        vs, ctx = self.vs, self.ctx
        F, G, H = GOLDEN
        triple = ["--F", F, "--G", G, "--H", H]

        def D(e):
            return vs.total_derivative(e, 0)

        def parse(text):
            return vs.parse_density(text, ctx)

        # acceptance criterion 2: [[G,H]] = -D(p[1] e^{q[1]}) D^2(cos q) - D(e^{q[1]}) p[2] sin q
        bracket = -D(parse("p[1] * exp(q[1])")) * D(D(parse("cos(q)"))) - D(
            parse("exp(q[1])")) * parse("p[2] * sin(q)")

        def text_is(want):
            def check(code, out, err):
                checks.require(code == 0, f"exit code {code}")
                checks.require(out.strip() == want, f"printed {out.strip()!r}, want {want!r}")
            return check

        deep = "(" * DEEP_NESTING + "q" + ")" * DEEP_NESTING
        return [
            (["normalize", "--density", "q[1]*p + p*q[1]"], text_is("2*q[1]*p")),
            (["euler", "--density", "p*q*q[2]", "--wrt", "q"],
             text_is("q*p[2] + 2*q[1]*p[1] + 2*q[2]*p")),
            (["bracket", "--F", G, "--G", H],
             lambda code, out, err: checks.check_cli_density(vs, ctx, code, out, bracket)),
            (["jacobi"] + triple, lambda code, out, err: checks.check_cli_jacobi(code, out)),
            (["trace"] + triple, lambda code, out, err: checks.check_cli_trace_plain(code, out)),
            (["trace", "--format", "json"] + triple,
             lambda code, out, err: self._check_json_trace(code, out)),
            # a known fault: the recursive parser overflows on deep nesting
            (["normalize", "--density", deep], None),
        ]

    def _check_json_trace(self, code, out):
        checks.require(code == 0, f"trace exit code {code}")
        checks.check_trace_json_golden(self.vs, self.ctx, out)

    @staticmethod
    def _judge(check):
        def judge(output) -> bool:
            if isinstance(output, Exception):  # e.g. the call ran out of time
                return False
            code, out, err = output
            if check is None:
                return checks.deep_input_passes(code, out, err)
            if checks.has_traceback(err):
                return False
            check(code, out, err)
            return True
        return judge

    def _cold(self, argv):
        self.last_ticks = (0.0, [])
        with tempfile.TemporaryFile(dir=self.run_dir) as out, \
                tempfile.TemporaryFile(dir=self.run_dir) as err:
            with contextlib.suppress(FileNotFoundError):
                os.remove(self.ticks_path)
            proc = subprocess.Popen([sys.executable, "-c", self.main, self.ticks_path] + argv,
                                    cwd=self.root, env=self.env, stdin=subprocess.DEVNULL,
                                    stdout=out, stderr=err)
            try:
                _, status, usage = _wait4(proc.pid, CLI_TIMEOUT_S)
            except BaseException:
                proc.kill()
                os.waitpid(proc.pid, 0)
                proc.returncode = -9
                raise
            proc.returncode = os.waitstatus_to_exitcode(status)
            self.child_peak_kb = max(self.child_peak_kb, usage.ru_maxrss)
            self.last_ticks = self._read_ticks()
            out.seek(0)
            err.seek(0)
            return (proc.returncode, out.read().decode(), err.read().decode())

    def _read_ticks(self):
        """The child's reference chunks; none if it wrote no file."""
        try:
            with open(self.ticks_path) as f:
                spent, *chunks = map(float, f.read().split())
        except (FileNotFoundError, ValueError):
            return (0.0, [])
        return (spent, chunks)

    def _inprocess(self, argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = self.vs.cli.main(argv)
            except Exception:  # a crash of the CLI, reported as Python would
                traceback.print_exc()
                code = 1
        return (code, out.getvalue(), err.getvalue())

    def round_ops(self) -> list[Op]:
        return [Op(1, lambda a=argv: self._cold(a), self._judge(check), k,
                   lambda: self.last_ticks)
                for k, (argv, check) in enumerate(self.calls)]

    def inprocess_ops(self) -> list[Op]:
        return [Op(1, lambda a=argv: self._inprocess(a), self._judge(check), k)
                for k, (argv, check) in enumerate(self.calls)]


class _Timeout(Exception):
    pass


def _wait4(pid, seconds):
    """os.wait4 with a time limit (SIGALRM interrupts the wait)."""
    def on_alarm(signum, frame):
        raise _Timeout(f"child {pid} ran longer than {seconds} s")

    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.alarm(seconds)
    try:
        return os.wait4(pid, 0)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def make(name, vs, root, run_dir) -> Workload:
    if name == "cli-cold":
        return CliCold(vs, root, run_dir)
    return {"fuzz-line": FuzzLine, "trace-line": TraceLine, "contexts": Contexts}[name](vs)


NAMES = ("fuzz-line", "trace-line", "contexts", "cli-cold")
