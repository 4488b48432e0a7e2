"""The three benchmark workloads.

Each workload is a closed loop with one caller on one thread: the next call
starts only after the previous one returned, and ``run_bench`` runs with
``workers=1``. A workload calls only espatial's public functions, through
module attributes so that a traced run sees the wrapped versions, on inputs
made from the seed. Every output is checked against the brute-force oracle
outside the timers (and, in a traced run, outside the spans).
"""

from __future__ import annotations

import math
import statistics
from contextlib import nullcontext
from random import Random
from time import perf_counter

from speed import REFERENCE_S, kernel_seconds

from espatial import bench, cot, oracle, perception, query, questions, scene
from espatial.bench import QaDataset
from espatial.bricks import DEFAULT_STUD_FRAME, random_structure
from espatial.config import EngineConfig
from espatial.cot import FallbackReasoner, ReasonPolicy
from espatial.errors import EngineError, InvalidPose
from espatial.geometry import PALETTE, Box, color_text
from espatial.oracle import TruthObject
from espatial.perception import DetectionRecord
from espatial.query import BINARY_CATEGORIES, QueryCategory, SpatialQuery
from espatial.scene import Action, DisturbanceEvent, ObjectNode, Pose


class GateFailure(Exception):
    """An output disagreed with the oracle; the message names the item."""


def percentile(values, p: float) -> float:
    """Nearest-rank percentile. Refuses a tail with fewer than ten samples
    beyond it, so a reported tail is never a single outlier."""
    ordered = sorted(values)
    rank = math.ceil(p / 100 * len(ordered))
    if p > 50 and len(ordered) - rank < 10:
        raise ValueError(f"p{p:g} of {len(ordered)} samples has fewer than 10 beyond it")
    return ordered[rank - 1]


def agrees(value, gold) -> bool:
    """Exact for booleans and label lists; 1e-9 relative for magnitudes."""
    if isinstance(gold, bool):
        return isinstance(value, bool) and value == gold
    if isinstance(gold, float):
        return isinstance(value, float) and abs(value - gold) <= 1e-9 * max(1.0, abs(gold))
    if isinstance(gold, list):
        return isinstance(value, (list, tuple)) and list(value) == gold
    return value == gold


class Result:
    """What one run measured: every timed call by kind, the metrics made
    from them, and the operation tallies of the run.

    Calls are timed in segments, each opened and closed by a run of the
    reference kernel (``speed.py``); a call's seconds are scaled to reference
    speed by the mean of its segment's two kernel times."""

    def __init__(self):
        self.metrics: dict[str, tuple[float, str, int]] = {}
        self.attempted = 0
        self.failed = 0
        self.correct = 0
        self.items = 0  # workload items, the base of per-item layer counts
        self.notes: dict[str, str] = {}  # printed by run.py, not metrics
        self.calls: list[tuple[str, float, int]] = []  # (kind, seconds, segment) of every timed call, in order
        self.kernel_s: list[float] = [kernel_seconds()]  # kernel times; segment k lies between k and k + 1

    def calibrate(self):
        """Time the reference kernel, closing the current segment."""
        self.kernel_s.append(kernel_seconds())

    @property
    def timed_s(self) -> float:
        return sum(self.seconds())

    def record(self, kind: str, start: float):
        """Log a call of ``kind`` that began at ``start`` and just returned."""
        self.calls.append((kind, perf_counter() - start, len(self.kernel_s) - 1))

    def seconds(self, kind: str | None = None) -> list[float]:
        """Seconds at reference speed of the calls of ``kind``, or of every
        call, in order. The last segment must have been closed."""
        k = self.kernel_s
        return [s * 2 * REFERENCE_S / (k[seg] + k[seg + 1])
                for kd, s, seg in self.calls if kind is None or kd == kind]

    def add(self, name: str, value: float, unit: str, samples: int):
        self.metrics[name] = (value, unit, samples)

    def rate(self, name: str, window: int):
        """Calls per second, as the median over consecutive windows of
        ``window`` calls, which a minority of disturbed windows does not move."""
        calls = self.seconds()
        rates = [window / sum(calls[i:i + window]) for i in range(0, len(calls) - window + 1, window)]
        self.add(name, statistics.median(rates), "1/s", len(calls))

    def per_call_rate(self, name: str, kind: str, work: int):
        """Median over the calls of ``kind`` of ``work`` units per second."""
        calls = self.seconds(kind)
        self.add(name, statistics.median(work / s for s in calls), "1/s", len(calls))

    def latency(self, prefix: str, kind: str, *tails: int):
        """Median and tails of the calls of ``kind``, in milliseconds."""
        ms = [s * 1e3 for s in self.seconds(kind)]
        self.add(f"{prefix}_p50_ms", statistics.median(ms), "ms", len(ms))
        for tail in tails:
            self.add(f"{prefix}_p{tail}_ms", percentile(ms, tail), "ms", len(ms))


class Workload:
    name = ""
    CALIBRATE_EVERY_S = 0.1

    def __init__(self, seed: int):
        self.seed = seed
        self.config = EngineConfig()
        self.client = FallbackReasoner()
        self.tracer = None
        self.pause = None  # called ``pauses`` times, evenly over a measured run
        self.pauses = 0
        self.result: Result | None = None

    def start(self, seconds: float) -> Result:
        """Open a measured run of ``seconds``; returns its result."""
        self.result = Result()
        self.started = self.calibrated = perf_counter()
        self.seconds_total = seconds
        self.paused = 0
        return self.result

    def elapsed(self) -> float:
        """Run time so far; paused time is not run time."""
        return perf_counter() - self.started

    def checkpoint(self):
        """Between two operations: pause if the next pause point is due, and
        close the timing segment once it is CALIBRATE_EVERY_S long."""
        if self.paused < self.pauses and self.elapsed() >= (self.paused + 1) * self.seconds_total / self.pauses:
            self._pause()
        if perf_counter() - self.calibrated >= self.CALIBRATE_EVERY_S:
            self._calibrate()

    def finish(self):
        """Close the last segment and take the pauses still owed when the
        run ended early."""
        self._calibrate()
        while self.paused < self.pauses:
            self._pause()
        kernel_ms = [k * 1e3 for k in self.result.kernel_s]
        self.result.add("reference_kernel_ms", statistics.median(kernel_ms), "ms", len(kernel_ms))

    def _calibrate(self):
        self.result.calibrate()
        self.calibrated = perf_counter()

    def _pause(self):
        self._calibrate()
        start = perf_counter()
        self.pause()
        self.paused += 1
        self.started += perf_counter() - start
        self._calibrate()

    def op(self, op_id: str):
        """Tag the spans of the next call with the item, update or cycle id."""
        if self.tracer is not None:
            self.tracer.op_id = op_id

    def checking(self):
        return self.tracer.untraced() if self.tracer is not None else nullcontext()

    def run(self, seconds: float, fixed: bool) -> Result:
        """Measure for at least ``seconds`` (and at least the minimum sample
        counts), or, when ``fixed``, do exactly the traced amount of work."""
        raise NotImplementedError


class QaMix(Workload):
    """The paper's benchmark: generate an oracle-labelled dataset over all
    seven categories, answer it in one ``run_bench`` call, then answer each
    item again as a one-item ``run_bench`` call for per-item latency.

    Each pass generates a fresh dataset, from the seed and the pass number,
    so a run answers some 6,000 distinct items and its medians do not hang on
    the mix of one small dataset; short passes also give many of them to
    take the median over."""

    name = "qa_mix"
    ITEMS = 250  # per pass
    MIN_PASSES = 4  # p99 needs at least 1,000 one-item calls
    WARMUP_ITEMS = 100

    def __init__(self, seed: int):
        super().__init__(seed)
        # The first pass in a process is cold, so set-up includes a small one.
        warm = bench.generate_dataset(seed + 1_000_003, self.WARMUP_ITEMS, config=self.config)
        bench.run_bench(warm, self.config, self.client)

    def run(self, seconds, fixed):
        result = self.start(seconds)
        passes = 0
        while passes < self.MIN_PASSES or (not fixed and self.elapsed() < seconds):
            self._pass(passes, result)
            passes += 1
        self.finish()
        result.per_call_rate("gen_items_per_s", "generate", self.ITEMS)
        result.per_call_rate("answer_items_per_s", "batch", self.ITEMS)
        result.latency("answer", "item", 90, 99)
        return result

    def _pass(self, index, result):
        n = self.ITEMS
        self.checkpoint()
        self.op(f"generate-{index}")
        start = perf_counter()
        dataset = bench.generate_dataset(self.seed * 10_000 + index, n, config=self.config)
        result.record("generate", start)
        self.checkpoint()
        self.op(f"batch-{index}")
        start = perf_counter()
        report = bench.run_bench(dataset, self.config, self.client)
        result.record("batch", start)
        with self.checking():
            self._check(report, n, "whole-dataset run_bench")
        result.attempted += n
        result.correct += n
        for i, item in enumerate(dataset.items):
            self.checkpoint()
            single = QaDataset(dataset.seed, (item,), dataset.config)
            self.op(f"item-{index}-{i}")
            start = perf_counter()
            one = bench.run_bench(single, self.config, self.client)
            result.record("item", start)
            with self.checking():
                self._check(one, 1, f"pass {index} item {i} ({item.category.value}: {item.question!r})")
            result.attempted += 1
            result.correct += 1
        result.items += 2 * n

    def _check(self, report, n, what):
        if report.items != n or report.failures or report.overall_accuracy != 1.0:
            raise GateFailure(
                f"qa_mix seed {self.seed}, {what}: accuracy {report.overall_accuracy}, "
                f"failures {list(report.failures)}"
            )


class DenseScene(Workload):
    """One dense scene evolving under a closed-loop stream. Each round is one
    write (move, pick, place, add, re-observe or remove, in turn), ten direct
    ``query.answer`` reads and one ``cot.reason`` call."""

    name = "dense_scene"
    OBJECTS = 60
    NOUNS = ("ball", "cup", "box", "bottle", "book", "plate", "mug", "can")
    WRITES = ("move", "pick", "place", "add", "reobserve", "remove")
    CATEGORIES = tuple(c for c in QueryCategory if c is not QueryCategory.SUCCESS_JUDGMENT)
    QUERIES_PER_ROUND = 10
    ROUND_OPS = QUERIES_PER_ROUND + 2
    ROUNDS_PER_WINDOW = 10
    MIN_ROUNDS = 100  # p90 of writes and of reason calls, p99 of 1,000 queries
    TRACED_ROUNDS = 50

    def __init__(self, seed: int):
        super().__init__(seed)
        self.rng = Random(f"dense-scene-{seed}")
        self.policy = ReasonPolicy(self.config.max_retries)
        # label -> (bbox, depth, rgb, score, color); labels carry an index
        # suffix so every label names exactly one node
        self.truth: dict[str, tuple] = {}
        self.labels_made = 0
        for _ in range(self.OBJECTS):
            self._new_object()
        detections, depths = self._observation()
        self.graph = perception.build_graph(detections, depths, thresholds=self.config.thresholds)
        self.held: str | None = None
        self.added = 0
        self._sync()

    def _pose(self):
        rng = self.rng
        width, height = rng.uniform(0.04, 0.22), rng.uniform(0.04, 0.22)
        cx = rng.uniform(0.02 + width / 2, 0.98 - width / 2)
        cy = rng.uniform(0.02 + height / 2, 0.98 - height / 2)
        return Box.from_center(cx, cy, width, height), round(rng.uniform(0.4, 3.0), 4)

    def _new_object(self) -> str:
        rng = self.rng
        color = rng.choice(tuple(PALETTE))
        label = f"{color_text(color)} {rng.choice(self.NOUNS)} {self.labels_made}"
        self.labels_made += 1
        bbox, depth = self._pose()
        rgb = tuple(max(0, min(255, v + rng.randint(-8, 8))) for v in PALETTE[color])
        self.truth[label] = (bbox, depth, rgb, round(rng.uniform(0.5, 1.0), 3), color)
        return label

    def _observation(self):
        detections = tuple(
            DetectionRecord(label, bbox, rgb, score)
            for label, (bbox, _, rgb, score, _) in self.truth.items()
        )
        return detections, tuple(t[1] for t in self.truth.values())

    def _sync(self):
        """Refresh the label -> id map and the oracle's view of the scene,
        and check that the graph holds exactly the benchmark's objects."""
        self.ids = {n.label: n.id for n in self.graph.nodes}
        self.labels = sorted(self.truth)
        self.index = {label: i for i, label in enumerate(self.labels)}
        self.objects = [
            TruthObject(self.ids.get(label, label), self.truth[label][0], self.truth[label][1])
            for label in self.labels
        ]
        nodes = {n.label: (n.bbox, n.depth_m) for n in self.graph.nodes}
        expected = {label: t[:2] for label, t in self.truth.items()}
        if nodes != expected:
            wrong = sorted(set(nodes.items()) ^ set(expected.items()))[:1]
            raise GateFailure(f"dense_scene seed {self.seed}: graph nodes differ from the scene at {wrong}")

    def _write(self, round_index):
        """The next write as (function, arguments); the scene model is
        updated here, before the timed call."""
        kind = self.WRITES[round_index % len(self.WRITES)]
        graph, th = self.graph, self.config.thresholds
        if kind == "reobserve":
            detections, depths = self._observation()
            return perception.build_graph, (detections, depths, graph, th)
        if kind == "add":
            label = self._new_object()
            bbox, depth, _, _, color = self.truth[label]
            self.added += 1
            node = ObjectNode(id=f"added{self.added}", label=label, color=color, bbox=bbox, depth_m=depth)
            return scene.apply_disturbance, (graph, DisturbanceEvent.add(node), th)
        if kind == "place":
            label = self.held
            bbox, depth = self._pose()
            self.truth[label] = (bbox, depth) + self.truth[label][2:]
            action = Action.place_object(self.ids[label], Pose(bbox, depth))
            return scene.apply_action, (graph, action, th)
        label = self.rng.choice(self.labels)
        node_id = self.ids[label]
        if kind == "pick":
            self.held = label
            return scene.apply_action, (graph, Action.pick(node_id), th)
        if kind == "remove":
            del self.truth[label]
            return scene.apply_disturbance, (graph, DisturbanceEvent.remove(node_id), th)
        bbox, depth = self._pose()
        self.truth[label] = (bbox, depth) + self.truth[label][2:]
        return scene.apply_disturbance, (graph, DisturbanceEvent.move(node_id, Pose(bbox, depth)), th)

    def _pair(self):
        return self.rng.sample(self.labels, 2)

    def _gold(self, category, a, b):
        value, _ = oracle.answer_from_truth(
            category, self.objects, self.index[a], self.index[b] if b is not None else None,
            self.config.workspace, self.config.thresholds,
        )
        return value

    def run(self, seconds, fixed):
        self.full_derivations = 0
        result = self.start(seconds)
        rounds = 0
        while rounds < (self.TRACED_ROUNDS if fixed else self.MIN_ROUNDS) or (
                not fixed and self.elapsed() < seconds):
            self.checkpoint()
            self._round(rounds, result)
            rounds += 1
        self.finish()
        with self.checking():
            self._check_edges()
        result.items = len(result.calls)
        result.rate("ops_per_s", self.ROUND_OPS * self.ROUNDS_PER_WINDOW)
        if not fixed:
            result.latency("update", "write", 90)
            result.latency("query", "query", 99)
            result.latency("answer", "reason", 90)
        if self.tracer is not None:
            result.notes["writes_deriving_all_pairs"] = f"{self.full_derivations}/{rounds}"
        return result

    def _round(self, r, result):
        ws, th = self.config.workspace, self.config.thresholds
        fn, args = self._write(r)
        if self.tracer is not None:
            derived = (self.tracer.calls["geometry.derive_all"],
                       self.tracer.counts["geometry.derive_all.pairs"])
        self.op(f"update-{r}")
        start = perf_counter()
        self.graph = fn(*args)
        result.record("write", start)
        result.attempted += 1
        result.correct += 1  # _sync raises on a wrong graph
        if self.tracer is not None:
            n = len(self.graph.nodes)
            full = (self.tracer.calls["geometry.derive_all"] - derived[0] == 1 and
                    self.tracer.counts["geometry.derive_all.pairs"] - derived[1] == n * (n - 1) // 2)
            self.full_derivations += full
        with self.checking():
            self._sync()

        for q in range(self.QUERIES_PER_ROUND):
            category = self.CATEGORIES[(r * self.QUERIES_PER_ROUND + q) % len(self.CATEGORIES)]
            a, b = self._pair()
            if category not in BINARY_CATEGORIES:
                b = None
            spatial = SpatialQuery(category, self.ids[a], self.ids[b] if b else None)
            self.op(f"query-{r}-{q}")
            start = perf_counter()
            got = query.answer(spatial, self.graph, ws, th)
            result.record("query", start)
            with self.checking():
                self._check(got.value, category, a, b, f"round {r} query {q}")
            result.attempted += 1
            result.correct += 1

        category = self.CATEGORIES[r % len(self.CATEGORIES)]
        a, b = self._pair()
        if category not in BINARY_CATEGORIES:
            b = None
        question = questions.render_question(category, a, b)
        self.op(f"answer-{r}")
        start = perf_counter()
        got, _trace = cot.reason(question, self.graph, ws, self.client, self.policy, None, th)
        result.record("reason", start)
        result.attempted += 1
        if got.abstained:
            raise GateFailure(f"dense_scene seed {self.seed}, round {r}: {question!r} abstained: {got.error}")
        with self.checking():
            self._check(got.value, category, a, b, f"round {r} reason {question!r}")
        result.correct += 1

    def _check(self, value, category, a, b, what):
        gold = self._gold(category, a, b)
        if not agrees(value, gold):
            raise GateFailure(
                f"dense_scene seed {self.seed}, {what}: {category.value} got {value!r}, oracle {gold!r}"
            )

    def _check_edges(self):
        engine = {e.key(): e.magnitude for e in self.graph.edges}
        truth = oracle.brute_force_edges(self.objects, self.config.thresholds)
        for key in sorted(set(engine) | set(truth)):
            if key not in engine or key not in truth or not agrees(engine[key], truth[key]):
                raise GateFailure(
                    f"dense_scene seed {self.seed}, final graph edge {key}: "
                    f"engine {engine.get(key)!r}, oracle {truth.get(key)!r}"
                )


class Reassembly(Workload):
    """Perceive, describe, plan and assemble random brick targets.

    Clean cycles run over a fixed range of cycle seeds, the same for every
    workload seed: cycle cost grows with the cube of the brick count, and
    brick counts drawn afresh per workload seed would move the median by
    more than any bound. The workload seed picks which quarter of those
    targets is run a second time with a dropped detection, which must be
    reported as a mismatch. The block repeats while time remains, so every
    run of one seed sees the same targets however fast the program is.

    A dropped detection is reported in one of two ways: the cycle returns
    with ``description_ok`` false, or perception rejects the incomplete
    structure, because the dropped brick held others up (``stage_failed``
    "perceive" with a ``floating`` InvalidStructure error). Any other stage or
    error is a crash, not a report, and fails the run.

    Cycle seeds whose target does not fit the stud frame (a brick past
    x + w = 15 studs or layer 14) are not run: ``run_reassembly`` renders the
    target before its ``try``, so such a target escapes as ``InvalidPose``
    instead of returning a failed stage, and the benchmark runs only
    operations that succeed. Set-up finds them from the target alone, runs
    the first one once, untimed, and reports what it did as a note, so the
    defect stays visible. Any raise from a cycle that is run fails the run."""

    name = "reassembly"
    MAX_BRICKS = 24
    CYCLE_SEEDS = 400  # p90 needs at least 100 clean cycles
    DROP_EVERY = 4
    CYCLES_PER_WINDOW = 50
    DROP_REJECTED = ("perceive", "InvalidStructure: invalid structure: floating ")

    def __init__(self, seed: int):
        super().__init__(seed)
        fits = {s: self._fits_frame(s) for s in range(self.CYCLE_SEEDS)}
        self.cycle_seeds = [s for s, ok in fits.items() if ok]
        picks = Random(f"reassembly-drops-{seed}").sample(
            self.cycle_seeds, len(self.cycle_seeds) // self.DROP_EVERY)
        self.drops = frozenset(picks)
        self.outside = [s for s, ok in fits.items() if not ok]
        self.probe = "none"
        if self.outside:
            try:
                outcome = bench.run_reassembly(self.outside[0], self.MAX_BRICKS, None, self.config)
                self.probe = f"returned stage_failed={outcome.stage_failed!r}"
            except EngineError as e:
                self.probe = f"raised {type(e).__name__}"

    def _fits_frame(self, cycle_seed) -> bool:
        """Whether the target ``run_reassembly`` builds for this seed (made
        the same way) projects into the default stud frame."""
        rng = Random(f"reassembly-{cycle_seed}")
        target = random_structure(rng, rng.randint(1, self.MAX_BRICKS))
        try:
            for brick in target.bricks:
                DEFAULT_STUD_FRAME.project(brick)
        except InvalidPose:
            return False
        return True

    def run(self, seconds, fixed):
        result = self.start(seconds)
        blocks = 0
        while blocks == 0 or (not fixed and self.elapsed() < seconds):
            for cycle_seed in self.cycle_seeds:
                self.checkpoint()
                self._cycle(blocks, cycle_seed, None, result)
                if cycle_seed in self.drops:
                    self._cycle(blocks, cycle_seed, 0, result)
            blocks += 1
        self.finish()
        result.items = result.attempted
        result.rate("cycles_per_s", self.CYCLES_PER_WINDOW)
        if not fixed:
            result.latency("cycle", "clean", 90)
        result.notes["targets_outside_frame"] = (
            f"{len(self.outside)} of {self.CYCLE_SEEDS} cycle seeds skipped {self.outside}; "
            f"run_reassembly on seed {self.outside[0] if self.outside else '-'} {self.probe}")
        return result

    def _cycle(self, block, cycle_seed, drop, result):
        self.op(f"cycle-{block}-{cycle_seed}-{'drop' if drop is not None else 'clean'}")
        result.attempted += 1
        start = perf_counter()
        try:
            outcome = bench.run_reassembly(cycle_seed, self.MAX_BRICKS, drop, self.config)
        except EngineError as e:
            raise GateFailure(f"reassembly cycle seed {cycle_seed} raised {type(e).__name__}: {e}") from e
        result.record("clean" if drop is None else "drop", start)
        if drop is None:
            if not (outcome.description_ok and outcome.assembly_ok):
                raise GateFailure(f"reassembly cycle seed {cycle_seed}: clean cycle failed ({outcome.to_dict()})")
        else:
            stage, error = self.DROP_REJECTED
            described = outcome.stage_failed is None and outcome.error is None and not outcome.description_ok
            rejected = outcome.stage_failed == stage and (outcome.error or "").startswith(error)
            if not (described or rejected):
                raise GateFailure(
                    f"reassembly cycle seed {cycle_seed}: dropped detection not reported ({outcome.to_dict()})")
        result.correct += 1


WORKLOADS = {w.name: w for w in (QaMix, DenseScene, Reassembly)}
