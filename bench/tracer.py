"""Span tracing of the package's public functions, installed from outside `src/`.

`Tracer.install()` replaces each traced function with a wrapper in every
module of the package that binds it (the modules import each other's
functions by name, so patching the defining module alone would miss most
calls), and wraps `Expression.__mul__`/`__add__` on the class.  Spans are kept
in memory as parallel arrays and written out by `write()` when the run ends;
`layer_metrics()` derives the per-layer figures from them.
"""

from __future__ import annotations

import importlib
from array import array
from time import perf_counter

PACKAGE = "varschouten"
MODULES = ("core", "calculus", "functional", "schouten", "trace", "fuzz", "textio", "cli")

# (module, function, span name).  `functional` is a thin layer over
# `is_exact` and is measured through `calculus`.
FUNCTIONS = (
    ("textio", "parse_density", "textio.parse"),
    ("textio", "parse_context", "textio.parse"),
    ("textio", "format_density", "textio.format"),
    ("textio", "format_trace_report", "textio.format"),
    ("textio", "density_to_json", "textio.format"),
    ("textio", "trace_report_to_json", "textio.format"),
    ("calculus", "partial", "calculus.partial"),
    ("calculus", "total_derivative", "calculus.total_derivative"),
    ("calculus", "euler", "calculus.euler"),
    ("calculus", "euler_blocks", "calculus.euler_blocks"),
    ("calculus", "is_exact", "calculus.is_exact"),
    ("schouten", "schouten_bracket", "schouten.bracket"),
    ("schouten", "jacobi_defect", "schouten.jacobi_defect"),
    ("schouten", "graded_symmetry_defect", "schouten.graded_symmetry_defect"),
    ("trace", "expand_trace", "trace.expand"),
    ("trace", "second_variation_cells", "trace.second_variation"),
    ("fuzz", "random_functional", "fuzz.generate"),
    ("fuzz", "run_fuzz", "fuzz.run"),
    ("cli", "main", "cli.main"),
)
METHODS = (
    ("core", "Expression", "__mul__", "core.mul"),
    ("core", "Expression", "__add__", "core.add"),
)
SPAN_NAMES = tuple(dict.fromkeys([n for *_, n in FUNCTIONS] + [n for *_, n in METHODS]))

# Per-layer metrics reported by a traced run: name -> unit.
LAYER_METRICS = {
    "textio.parse.self_s": "s",
    "textio.parse.calls": "count",
    "textio.format.self_s": "s",
    "textio.format.bytes": "bytes",
    "core.mul.self_s": "s",
    "core.mul.calls": "count",
    "core.mul.terms_out": "count",
    "core.add.self_s": "s",
    "core.add.calls": "count",
    "core.peak_terms": "count",
    "calculus.partial.self_s": "s",
    "calculus.partial.calls": "count",
    "calculus.partial.nonzero_ratio": "ratio",
    "calculus.total_derivative.self_s": "s",
    "calculus.total_derivative.calls": "count",
    "calculus.euler.self_s": "s",
    "calculus.euler.calls": "count",
    "calculus.euler_blocks.self_s": "s",
    "calculus.is_exact.self_s": "s",
    "calculus.is_exact.calls": "count",
    "calculus.is_exact.terms_in": "count",
    "calculus.is_exact.distinct_ratio": "ratio",
    "schouten.bracket.self_s": "s",
    "schouten.bracket.calls": "count",
    "schouten.bracket.distinct_ratio": "ratio",
    "schouten.jacobi_defect.self_s": "s",
    "trace.expand.self_s": "s",
    "trace.second_variation.self_s": "s",
    "trace.second_variation.calls": "count",
    "trace.second_variation.distinct_ratio": "ratio",
    "trace.check_s": "s",
    "fuzz.generate.self_s": "s",
    "cli.main.self_s": "s",
    "cli.startup_s": "s",
    "src.lines": "lines",
    "tracing.overhead_s": "s",
    "tracing.spans": "count",
}


def _density_key(e) -> frozenset:
    return frozenset(e.terms.items())


def _unsigned_key(e) -> frozenset:
    """Identity of a density up to an overall sign (e and -e give one key)."""
    pos = _density_key(e)
    neg = frozenset((k, -c) for k, c in e.terms.items())
    return min(pos, neg, key=hash)


class Tracer:
    """Records one span per traced call while `active` is true."""

    def __init__(self) -> None:
        self.active = False
        self.code = {name: i for i, name in enumerate(SPAN_NAMES)}
        self.names = array("i")
        self.parents = array("l")
        self.ops = array("l")
        self.starts = array("d")
        self.ends = array("d")
        self._stack = [-1]
        self._op = -1
        self._patches: list[tuple[object, str, object]] = []
        # counters measured at the span boundaries
        self.mul_terms_out = 0
        self.peak_terms = 0
        self.partial_nonzero = 0
        self.is_exact_terms_in = 0
        self.format_bytes = 0
        self._seen = {"calculus.is_exact": set(), "schouten.bracket": set(),
                      "trace.second_variation": set()}
        self.distinct = dict.fromkeys(self._seen, 0)

    # -- operations -------------------------------------------------------

    def begin_op(self) -> None:
        """Start a new operation: distinct inputs are counted per operation."""
        self._flush_distinct()
        self._op += 1

    def _flush_distinct(self) -> None:
        for name, seen in self._seen.items():
            self.distinct[name] += len(seen)
            seen.clear()

    # -- hooks: counters taken from a call's arguments and result ---------

    def _on_result(self, name, args, result) -> None:
        if name == "core.mul" or name == "core.add":
            n = len(result.terms)
            if name == "core.mul":
                self.mul_terms_out += n
            if n > self.peak_terms:
                self.peak_terms = n
        elif name == "calculus.partial":
            if result.terms:
                self.partial_nonzero += 1
        elif name == "calculus.is_exact":
            self.is_exact_terms_in += len(args[0].terms)
            self._seen[name].add(_unsigned_key(args[0]))
        elif name == "schouten.bracket":
            self._seen[name].add((_density_key(args[0].density), _density_key(args[1].density)))
        elif name == "trace.second_variation":
            self._seen[name].add((_density_key(args[0]),) + tuple(args[1:]))
        elif name == "textio.format":
            if isinstance(result, str):
                self.format_bytes += len(result.encode())

    def _wrap(self, fn, name):
        code = self.code[name]
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            idx = len(tracer.names)
            tracer.names.append(code)
            tracer.parents.append(tracer._stack[-1])
            tracer.ops.append(tracer._op)
            tracer.starts.append(0.0)
            tracer.ends.append(0.0)
            tracer._stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                tracer._stack.pop()
                tracer.starts[idx] = start
                tracer.ends[idx] = end
            tracer._on_result(name, args, result)
            return result

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [importlib.import_module(PACKAGE)] + [
            importlib.import_module(f"{PACKAGE}.{m}") for m in MODULES
        ]
        for mod_name, attr, name in FUNCTIONS:
            original = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), attr)
            wrapper = self._wrap(original, name)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)
        for mod_name, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(f"{PACKAGE}.{mod_name}"), cls_name)
            original = cls.__dict__[attr]
            self._patches.append((cls, attr, original))
            setattr(cls, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._patches:
            target, key, original = self._patches.pop()
            setattr(target, key, original)

    # -- results ------------------------------------------------------------

    def layer_totals(self) -> dict:
        """Per span name: calls, total time and self time over all spans."""
        n = len(self.names)
        child = [0.0] * n
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        check_s = 0.0
        expand = self.code["trace.expand"]
        checked = {self.code["schouten.bracket"], self.code["calculus.is_exact"]}
        for i in range(n):
            p = parents[i]
            if p >= 0:
                dur = ends[i] - starts[i]
                child[p] += dur
                if names[p] == expand and names[i] in checked:
                    check_s += dur
        totals = {name: {"calls": 0, "self_s": 0.0} for name in SPAN_NAMES}
        for i in range(n):
            row = totals[SPAN_NAMES[names[i]]]
            row["calls"] += 1
            row["self_s"] += ends[i] - starts[i] - child[i]
        totals["trace.check_s"] = check_s
        return totals

    def layer_metrics(self, rounds: int, extra: dict) -> dict:
        """Per-layer metrics per round; `extra` supplies the measured timings
        (cli.startup_s, tracing.overhead_s) and src.lines."""
        self._flush_distinct()
        t = self.layer_totals()
        per = 1.0 / rounds

        def ratio(num, den):
            return num / den if den else 0.0

        values = {
            "textio.parse.self_s": t["textio.parse"]["self_s"] * per,
            "textio.parse.calls": t["textio.parse"]["calls"] * per,
            "textio.format.self_s": t["textio.format"]["self_s"] * per,
            "textio.format.bytes": self.format_bytes * per,
            "core.mul.self_s": t["core.mul"]["self_s"] * per,
            "core.mul.calls": t["core.mul"]["calls"] * per,
            "core.mul.terms_out": self.mul_terms_out * per,
            "core.add.self_s": t["core.add"]["self_s"] * per,
            "core.add.calls": t["core.add"]["calls"] * per,
            "core.peak_terms": self.peak_terms,
            "calculus.partial.self_s": t["calculus.partial"]["self_s"] * per,
            "calculus.partial.calls": t["calculus.partial"]["calls"] * per,
            "calculus.partial.nonzero_ratio": ratio(
                self.partial_nonzero, t["calculus.partial"]["calls"]),
            "calculus.total_derivative.self_s": t["calculus.total_derivative"]["self_s"] * per,
            "calculus.total_derivative.calls": t["calculus.total_derivative"]["calls"] * per,
            "calculus.euler.self_s": t["calculus.euler"]["self_s"] * per,
            "calculus.euler.calls": t["calculus.euler"]["calls"] * per,
            "calculus.euler_blocks.self_s": t["calculus.euler_blocks"]["self_s"] * per,
            "calculus.is_exact.self_s": t["calculus.is_exact"]["self_s"] * per,
            "calculus.is_exact.calls": t["calculus.is_exact"]["calls"] * per,
            "calculus.is_exact.terms_in": self.is_exact_terms_in * per,
            "calculus.is_exact.distinct_ratio": ratio(
                self.distinct["calculus.is_exact"], t["calculus.is_exact"]["calls"]),
            "schouten.bracket.self_s": t["schouten.bracket"]["self_s"] * per,
            "schouten.bracket.calls": t["schouten.bracket"]["calls"] * per,
            "schouten.bracket.distinct_ratio": ratio(
                self.distinct["schouten.bracket"], t["schouten.bracket"]["calls"]),
            "schouten.jacobi_defect.self_s": t["schouten.jacobi_defect"]["self_s"] * per,
            "trace.expand.self_s": t["trace.expand"]["self_s"] * per,
            "trace.second_variation.self_s": t["trace.second_variation"]["self_s"] * per,
            "trace.second_variation.calls": t["trace.second_variation"]["calls"] * per,
            "trace.second_variation.distinct_ratio": ratio(
                self.distinct["trace.second_variation"], t["trace.second_variation"]["calls"]),
            "trace.check_s": t["trace.check_s"] * per,
            "fuzz.generate.self_s": t["fuzz.generate"]["self_s"] * per,
            "cli.main.self_s": t["cli.main"]["self_s"] * per,
            "tracing.spans": len(self.names) * per,
        }
        values.update(extra)
        return {name: {"value": values[name], "unit": unit} for name, unit in LAYER_METRICS.items()}

    def write(self, path) -> None:
        """Write every span as one tab-separated line."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("op\tspan\tparent\tname\tstart\tend\n")
            for i in range(len(self.names)):
                fh.write(
                    f"{self.ops[i]}\t{i}\t{self.parents[i]}\t{SPAN_NAMES[self.names[i]]}"
                    f"\t{self.starts[i]:.9f}\t{self.ends[i]:.9f}\n"
                )
