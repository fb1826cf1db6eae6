"""Per-layer tracing from outside the program.

The tracer replaces module and class attributes of ``inhcalc`` (the names
the callers look up, such as ``inhcalc.corpus.translate``) with wrappers
that record one span per call: layer, start, end, parent span and op id.
Spans stay in memory and are written when the run ends.  A call of a
layer from inside the same layer (recursion) folds into the outer span.
Counts come only from public state: ``ctx.fuel``, ``HeadResult``,
``len(program.nodes)``.
"""

from __future__ import annotations

import time
from collections import Counter
from pathlib import Path

# layer -> (defining module, function name, attributes its callers look up)
LAYERS = {
    "syntax.parse": ("syntax", "parse", ["syntax.parse"]),
    "syntax.resolve_references": (
        "syntax", "resolve_references",
        ["syntax.resolve_references", "lam.resolve_references"],
    ),
    "semantics.observe": ("semantics", "observe", ["semantics.EvalContext.observe"]),
    "semantics.properties": (
        "semantics", "properties", ["semantics.EvalContext.properties"],
    ),
    "lam.parse_lambda": ("lam", "parse_lambda", ["lam.parse_lambda"]),
    "lam.anf_transform": ("lam", "anf_transform", ["lam.anf_transform"]),
    "lam.translate": ("lam", "translate", ["lam.translate", "corpus.translate"]),
    "lam.translate_surface": ("lam", "translate_surface", ["lam.translate_surface"]),
    "lam.converges": ("lam", "converges", ["lam.converges", "corpus.converges"]),
    "lam.head_reduce": ("lam", "head_reduce", ["corpus.head_reduce"]),
    "anf_direct.extract": ("anf_direct", "extract", ["anf_direct.extract", "corpus.extract"]),
    "anf_direct.converges_direct": (
        "anf_direct", "converges_direct",
        ["anf_direct.converges_direct", "corpus.converges_direct"],
    ),
    "corpus.judge": ("corpus", "judge", ["corpus.judge"]),
    "corpus.enumerate_closed_terms": (
        "corpus", "enumerate_closed_terms", ["corpus.enumerate_closed_terms"],
    ),
    "fixtures.fixture": ("fixtures", "fixture", ["fixtures.fixture"]),
}
SETUP_LAYERS = ("corpus.enumerate_closed_terms", "fixtures.fixture")
OP_LAYERS = tuple(name for name in LAYERS if name not in SETUP_LAYERS)
ROOT = "bench.op"
_BY_CODE = {(f"inhcalc.{mod}", fn): layer for layer, (mod, fn, _) in LAYERS.items()}


def failing_layer(exc: BaseException) -> str:
    """The innermost layer function on the exception's traceback: the
    layer whose call raised it or ran past the limit."""
    layer = ROOT
    tb = exc.__traceback__
    while tb is not None:
        frame = tb.tb_frame
        key = (frame.f_globals.get("__name__"), frame.f_code.co_name)
        layer = _BY_CODE.get(key, layer)
        tb = tb.tb_next
    return layer


class Tracer:
    """Spans and counts of the wrapped layers, for one run."""

    def __init__(self):
        self.spans: list[list] = []  # [layer, start, end, parent span, op id]
        self.stack: list[list] = []
        self.counts: Counter = Counter()
        self.op: int | None = None  # None while setting up
        self.calibration: dict = {}  # op id -> calibration sample before it
        self.semantics_spans: list = []  # spans of the outermost evaluator calls
        self._saved: list = []

    # -- installing the wrappers --------------------------------------------

    def install(self, m) -> None:
        for layer, (_, _, attributes) in LAYERS.items():
            for dotted in attributes:
                *owner_path, attr = dotted.split(".")
                owner = m
                for part in owner_path:
                    owner = getattr(owner, part)
                fn = getattr(owner, attr)
                self._saved.append((owner, attr, fn))
                setattr(owner, attr, self._wrap(layer, fn, _COUNTERS.get(layer)))
        self._divergence = m.semantics.DivergenceError

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()

    def _wrap(self, layer, fn, count):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        fuel = layer.startswith("semantics.")

        def traced(*args, **kwargs):
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            op = self.op  # counts are kept for ops only, not for set-up
            outer_fuel = (
                fuel and op is not None
                and not (stack and stack[-1][0].startswith("semantics."))
            )
            if outer_fuel:
                ctx, before = args[0], args[0].fuel
            span = [layer, clock(), None, stack[-1] if stack else None, op]
            spans.append(span)
            stack.append(span)
            try:
                result = fn(*args, **kwargs)
            except self._divergence:
                if layer == "semantics.properties" and op is not None:
                    self.counts["semantics.divergences"] += 1
                raise
            finally:
                span[2] = clock()
                stack.pop()
                if outer_fuel:
                    self._fuel(before - ctx.fuel, span)
            if count is not None and op is not None:
                count(self.counts, args, result)
            return result

        return traced

    def _fuel(self, used: int, span: list) -> None:
        """Account an outermost call into the evaluator."""
        self.counts["semantics.fuel_used"] += used
        self.semantics_spans.append(span)
        if any(open_span[0] == "lam.converges" for open_span in self.stack):
            self.counts["lam.converges.fuel_used"] += used

    # -- op boundaries --------------------------------------------------------

    def begin_op(self, op_id: int, calibration: int) -> None:
        self.op = op_id
        self.calibration[op_id] = calibration
        self.stack.clear()
        span = [ROOT, time.perf_counter(), None, None, op_id]
        self.spans.append(span)
        self.stack.append(span)

    def end_op(self) -> None:
        self.stack[0][2] = time.perf_counter()
        self.stack.clear()

    # -- results ----------------------------------------------------------------

    def layer_times(self, speed, setup: bool) -> dict[str, list]:
        """``layer -> [calls, busy s, self s]`` over the spans of set-up
        (``setup``) or of the ops, in seconds at the reference speed.  A
        span cut short by an exception that escaped its wrapper ends where
        its parent ends."""
        out = {name: [0, 0.0, 0.0] for name in (*LAYERS, ROOT)}
        for span in self.spans:
            if (span[4] is None) != setup:
                continue
            layer, start, end, parent, _ = span
            if end is None:
                span[2] = parent[2] if parent else start
            duration = self.span_s(span, speed)
            row = out[layer]
            row[0] += 1
            row[1] += duration
            row[2] += duration
            if parent is not None:
                out[parent[0]][2] -= duration
        return out

    def span_s(self, span: list, speed) -> float:
        """The span's duration at the reference speed."""
        return (span[2] - span[1]) * speed.scale(self.calibration[span[4]])

    def write(self, path: Path) -> None:
        """One ``layer, start_us, end_us, parent, op`` line per span, times
        from the first span; ``parent`` is a line number (-1 for none)."""
        index = {id(span): i for i, span in enumerate(self.spans)}
        t0 = self.spans[0][1] if self.spans else 0.0
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as out:
            out.write("layer\tstart_us\tend_us\tparent\top\n")
            for layer, start, end, parent, op in self.spans:
                out.write(
                    f"{layer}\t{(start - t0) * 1e6:.1f}\t{(end - t0) * 1e6:.1f}\t"
                    f"{index[id(parent)] if parent else -1}\t{-1 if op is None else op}\n"
                )


def _count_parse(counts, args, result):
    counts["syntax.parse.bytes"] += len(args[0])


def _count_core_nodes(counts, args, result):
    counts["syntax.core_nodes"] += len(result.nodes)


def _count_translated(counts, args, result):
    counts["lam.translated_nodes"] += len(result.nodes)


def _count_head(counts, args, result):
    counts["lam.head_reduce.steps"] += result.steps
    counts["lam.head_reduce.undecided"] += result.status == "fuel"


_COUNTERS = {
    "syntax.parse": _count_parse,
    "syntax.resolve_references": _count_core_nodes,
    "lam.translate": _count_translated,
    "lam.head_reduce": _count_head,
}
