"""In-memory span tracer that wraps espatial's layers from outside.

Nothing under ``src/`` is edited. Each wrapped function is rebound in every
``espatial.*`` module that holds a reference to it (``bench.py`` does
``from .perception import build_graph``, ``cot.py`` imports ``query.answer``
as ``evaluate_query``), and methods are patched on their class. Spans nest
by call order on one thread; a span's self time is its duration minus the
durations of its direct children, which never overlap on one thread.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter_ns

REJECTION_RULES = ("UnresolvedRef", "ContradictsEdge", "UnsupportedClaim", "ClaimGrammarError")

# Span name -> (module, attribute) or (module, class, method). Several targets
# may share one name: apply_action and apply_disturbance are both
# ``scene.apply_event``; edge and edges_from are both ``scene.edge_lookup``.
TARGETS = (
    ("geometry.derive_all", ("espatial.geometry", "derive_all")),
    ("scene.SceneGraph", ("espatial.scene", "SceneGraph", "__post_init__")),
    ("scene.apply_event", ("espatial.scene", "apply_action")),
    ("scene.apply_event", ("espatial.scene", "apply_disturbance")),
    ("scene.merge_edge_confidence", ("espatial.scene", "merge_edge_confidence")),
    ("scene.edge_lookup", ("espatial.scene", "SceneGraph", "edge")),
    ("scene.edge_lookup", ("espatial.scene", "SceneGraph", "edges_from")),
    ("cot.build_context", ("espatial.cot", "build_context")),
    ("cot.parse_context", ("espatial.cot", "parse_context")),
    ("cot.submit", ("espatial.cot", "FallbackReasoner", "submit")),
    ("cot.reason", ("espatial.cot", "reason")),
    ("cot.validate_step", ("espatial.cot", "validate_step")),
    ("cot.reason_over_plan", ("espatial.cot", "reason_over_plan")),
    ("bricks.from_graph", ("espatial.bricks", "from_graph")),
    ("bricks.validate", ("espatial.bricks", "validate")),
    ("bricks.describe", ("espatial.bricks", "describe")),
    ("planner.replay", ("espatial.planner", "replay")),
    ("perception.build_graph", ("espatial.perception", "build_graph")),
    ("perception.synth_scene", ("espatial.perception", "synth_scene")),
    ("query.answer", ("espatial.query", "answer")),
    ("questions.parse_question", ("espatial.questions", "parse_question")),
    ("oracle.truth_from_frame", ("espatial.oracle", "truth_from_frame")),
    ("oracle.answer_from_truth", ("espatial.oracle", "answer_from_truth")),
    ("bench.generate_dataset", ("espatial.bench", "generate_dataset")),
    ("bench.run_bench", ("espatial.bench", "run_bench")),
    ("bench.run_reassembly", ("espatial.bench", "run_reassembly")),
)

# Every per-layer metric a traced run reports, in output order, with its unit.
# Counts are exact and must repeat on a second run with the same seed.
PER_LAYER = (
    ("geometry.derive_all.calls", "count"),
    ("geometry.derive_all.self_ms", "ms"),
    ("geometry.derive_all.pairs", "count"),
    ("geometry.derive_all.edges_out", "count"),
    ("scene.SceneGraph.calls", "count"),
    ("scene.SceneGraph.self_ms", "ms"),
    ("scene.SceneGraph.edges_in", "count"),
    ("scene.apply_event.calls", "count"),
    ("scene.apply_event.self_ms", "ms"),
    ("scene.merge_edge_confidence.self_ms", "ms"),
    ("scene.edge_lookup.calls", "count"),
    ("scene.edge_lookup.edges_scanned", "count"),
    ("scene.edge_lookup.self_ms", "ms"),
    ("cot.build_context.self_ms", "ms"),
    ("cot.build_context.bytes", "B"),
    ("cot.parse_context.calls", "count"),
    ("cot.parse_context.self_ms", "ms"),
    ("cot.submit.self_ms", "ms"),
    ("cot.reason.calls", "count"),
    ("cot.reason.ms", "ms"),
    ("cot.validate_step.calls", "count"),
    ("cot.validate_step.self_ms", "ms"),
    ("cot.steps.validated_ratio", "ratio"),
    *((f"cot.steps.rejected.{rule}", "count") for rule in REJECTION_RULES),
    ("cot.retries", "count"),
    ("cot.abstentions", "count"),
    ("cot.reason_over_plan.self_ms", "ms"),
    ("bricks.from_graph.calls", "count"),
    ("bricks.from_graph.self_ms", "ms"),
    ("bricks.validate.calls", "count"),
    ("bricks.validate.self_ms", "ms"),
    ("bricks.validate.bricks_checked", "count"),
    ("bricks.describe.self_ms", "ms"),
    ("planner.replay.calls", "count"),
    ("planner.replay.self_ms", "ms"),
    ("planner.replay.commands", "count"),
    ("perception.build_graph.calls", "count"),
    ("perception.build_graph.self_ms", "ms"),
    ("perception.build_graph.per_item", "count/item"),
    ("perception.synth_scene.calls", "count"),
    ("perception.synth_scene.self_ms", "ms"),
    ("query.answer.calls", "count"),
    ("query.answer.self_ms", "ms"),
    ("questions.parse_question.calls", "count"),
    ("questions.parse_question.self_ms", "ms"),
    ("oracle.truth_from_frame.self_ms", "ms"),
    ("oracle.answer_from_truth.calls", "count"),
    ("oracle.answer_from_truth.self_ms", "ms"),
    ("bench.generate_dataset.ms", "ms"),
    ("bench.run_bench.ms", "ms"),
    ("bench.run_reassembly.ms", "ms"),
    ("trace.overhead_ratio", "ratio"),
)


def _count_steps(counts, traces):
    for trace in traces:
        for step in trace.steps:
            if step.rule is None:
                counts["cot.steps.validated"] += 1
            else:
                counts[f"cot.steps.rejected.{step.rule}"] += 1


def _add(key, measure):
    def hook(tracer, args, result):
        tracer.counts[key] += measure(args, result)
    return hook


def _after_derive_all(tracer, args, result):
    n = len(args[0])
    tracer.counts["geometry.derive_all.pairs"] += n * (n - 1) // 2
    tracer.counts["geometry.derive_all.edges_out"] += len(result)


def _after_reason(tracer, args, result):
    answer, trace = result
    _count_steps(tracer.counts, (trace,))
    tracer.counts["cot.retries"] += trace.retries
    tracer.counts["cot.abstentions"] += int(answer.abstained)


def _after_build_graph(tracer, args, result):
    # per_item counts graphs built while answering or updating, not while
    # generating a dataset
    if not tracer.inside("bench.generate_dataset"):
        tracer.counts["perception.build_graph.item_calls"] += 1


# Counters read from a call's arguments and return value, after the call.
AFTER = {
    "geometry.derive_all": _after_derive_all,
    "scene.SceneGraph": _add("scene.SceneGraph.edges_in", lambda a, r: len(a[0].edges)),
    "scene.edge_lookup": _add("scene.edge_lookup.edges_scanned", lambda a, r: len(a[0].edges)),
    "cot.build_context": _add("cot.build_context.bytes", lambda a, r: len(r)),
    "cot.reason": _after_reason,
    "cot.reason_over_plan": lambda tracer, a, r: _count_steps(tracer.counts, r[1]),
    "bricks.validate": _add("bricks.validate.bricks_checked", lambda a, r: len(a[0].bricks)),
    "planner.replay": _add("planner.replay.commands", lambda a, r: len(a[0].commands)),
    "perception.build_graph": _after_build_graph,
}

COUNT_KEYS = (
    "geometry.derive_all.pairs", "geometry.derive_all.edges_out",
    "scene.SceneGraph.edges_in", "scene.edge_lookup.edges_scanned",
    "cot.build_context.bytes", "bricks.validate.bricks_checked",
    "planner.replay.commands", "cot.retries", "cot.abstentions",
    "cot.steps.validated", "perception.build_graph.item_calls",
    *(f"cot.steps.rejected.{rule}" for rule in REJECTION_RULES),
)


class Tracer:
    """Records spans and counts for wrapped calls; one instance per process."""

    def __init__(self):
        self.spans: list = []  # (name, start_ns, end_ns, parent index, op id)
        self.calls: dict[str, int] = defaultdict(int)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.total_ns: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self.op_id = "setup"
        self.paused = False
        self._stack: list[list] = []  # [span index, child ns, name]

    def inside(self, name: str) -> bool:
        return any(frame[2] == name for frame in self._stack)

    @contextmanager
    def untraced(self):
        """Run correctness checks without spans or counts."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def wrap(self, name, fn):
        tracer = self
        after = AFTER.get(name)

        def wrapper(*args, **kwargs):
            if tracer.paused:
                return fn(*args, **kwargs)
            stack = tracer._stack
            index = len(tracer.spans)
            tracer.spans.append(None)
            frame = [index, 0, name]
            parent = stack[-1][0] if stack else -1
            stack.append(frame)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                stack.pop()
                duration = end - start
                tracer.spans[index] = (name, start, end, parent, tracer.op_id)
                tracer.calls[name] += 1
                tracer.self_ns[name] += duration - frame[1]
                tracer.total_ns[name] += duration
                if stack:
                    stack[-1][1] += duration
            if after is not None:
                after(tracer, args, result)
            return result

        return functools.wraps(fn)(wrapper)

    def install(self):
        """Wrap every target. Call after espatial is imported."""
        for name, target in TARGETS:
            module = sys.modules[target[0]]
            if len(target) == 3:
                cls = getattr(module, target[1])
                setattr(cls, target[2], self.wrap(name, getattr(cls, target[2])))
                continue
            original = getattr(module, target[1])
            wrapper = self.wrap(name, original)
            for mod_name, mod in list(sys.modules.items()):
                if mod is None or not (mod_name == "espatial" or mod_name.startswith("espatial.")):
                    continue
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapper)

    def counters(self, items: int) -> dict[str, int]:
        """Exact counts, keyed by metric name; ``items`` is the number of
        workload items (qa items answered, stream operations, or cycles)."""
        out = {f"{name}.calls": self.calls.get(name, 0) for name, _ in TARGETS}
        out.update({key: self.counts.get(key, 0) for key in COUNT_KEYS})
        out["items"] = items
        return out

    def metrics(self, items: int) -> dict[str, float]:
        """Per-layer metric values by name (``trace.overhead_ratio`` is
        filled in by the caller, which also times an untraced run)."""
        counts = self.counters(items)
        values: dict[str, float] = dict(counts)
        for name, _ in TARGETS:
            values[f"{name}.self_ms"] = self.self_ns.get(name, 0) / 1e6
            values[f"{name}.ms"] = self.total_ns.get(name, 0) / 1e6
        steps = counts["cot.steps.validated"] + sum(
            counts[f"cot.steps.rejected.{rule}"] for rule in REJECTION_RULES)
        values["cot.steps.validated_ratio"] = counts["cot.steps.validated"] / steps if steps else 0.0
        values["perception.build_graph.per_item"] = (
            counts["perception.build_graph.item_calls"] / items if items else 0.0)
        return {name: values[name] for name, _ in PER_LAYER if name in values}

    def dump(self, path):
        """Write every span as [name, start_ns, end_ns, parent index, op id]."""
        with open(path, "w", encoding="utf-8") as out:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "op"],
                       "spans": self.spans}, out, separators=(",", ":"))
            out.write("\n")
