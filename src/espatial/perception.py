"""Perception frontend: observation records, graph construction, and scene I/O.

A frame holds labelled detections with aligned depth samples. Frames come
from the deterministic synthetic generators here or from scene files saved
with :func:`save_scene`; :func:`build_graph` turns one into a scene graph.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from pathlib import Path
from random import Random
from typing import Sequence

from .bricks import DEFAULT_STUD_FRAME, LegoStructure, brick_label, node_footprint, random_structure
from .errors import InvalidDepth, MisalignedInputs, ParseError, SchemaVersionMismatch
from .geometry import DEFAULT_THRESHOLDS, PALETTE, Box, Thresholds, classify_color, color_text, derive_all
from .jsonfile import get, read_json_object, write_json
from .scene import ObjectNode, SceneGraph, merge_edge_confidence, size_class_for_box

SCENE_SCHEMA = "espatial-scene/1"


@dataclass(frozen=True)
class DetectionRecord:
    """One detected region: label, normalized box, mean color, score."""

    label: str
    bbox: Box
    rgb: tuple[int, int, int]
    score: float

    def __post_init__(self):
        if not (0.0 <= self.score <= 1.0):
            raise ParseError(f"score {self.score} outside [0, 1]", field="score")
        if len(self.rgb) != 3 or not all(0 <= int(v) <= 255 for v in self.rgb):
            raise ParseError(f"bad rgb triple {self.rgb!r}", field="rgb")
        object.__setattr__(self, "rgb", tuple(int(v) for v in self.rgb))


@dataclass(frozen=True)
class PerceptionFrame:
    """One observation: image handle, detections, aligned depth samples."""

    image_ref: str
    detections: tuple[DetectionRecord, ...]
    depths: tuple[float, ...]
    t: int = 0

    def __post_init__(self):
        if len(self.detections) != len(self.depths):
            raise MisalignedInputs(
                f"{len(self.detections)} detections vs {len(self.depths)} depth samples"
            )
        for d in self.depths:
            if not (d > 0 and math.isfinite(d)):
                raise InvalidDepth(f"depth {d!r} must be positive and finite")


_TOKEN = re.compile(r"[0-9a-zA-Z×]+")


def _normalize_token(token: str) -> str:
    return token.lower().replace("×", "x")


def normalize_label(label: str) -> str:
    return " ".join(_normalize_token(t) for t in _TOKEN.findall(label))


_MATCH_RADIUS = 0.15  # normalized; node identity matching across steps


def build_graph(
    detections: Sequence[DetectionRecord],
    depths: Sequence[float],
    prev: SceneGraph | None = None,
    thresholds: Thresholds = DEFAULT_THRESHOLDS,
    provenance: str = "perception",
) -> SceneGraph:
    """Construct the scene graph for one observation.

    Node ids are assigned deterministically over detections sorted by label
    then box origin. With a previous graph, a detection inherits the id of
    the nearest same-label node within the match radius, preserving identity
    and edge confidences across steps. A detection left unmatched gets a
    fresh id that no node of the previous graph holds, so a vanished
    object's id never passes to a new one.
    """
    if len(detections) != len(depths):
        raise MisalignedInputs(f"{len(detections)} detections vs {len(depths)} depths")

    order = sorted(
        range(len(detections)),
        key=lambda i: (detections[i].label, detections[i].bbox.x_min, detections[i].bbox.y_min),
    )

    matched: dict[int, str] = {}
    taken: set[str] = set()  # previous ids matched in this call
    if prev is not None:
        for i in order:
            record = detections[i]
            cx, cy = record.bbox.center
            best: tuple[float, str] | None = None
            for node in prev.nodes:
                if node.label != record.label or node.id in taken:
                    continue
                ncx, ncy = node.bbox.center
                gap = ((cx - ncx) ** 2 + (cy - ncy) ** 2) ** 0.5
                if gap <= _MATCH_RADIUS and (best is None or (gap, node.id) < best):
                    best = (gap, node.id)
            if best is not None:
                matched[i] = best[1]
                taken.add(best[1])

    nodes: list[ObjectNode] = []
    counter = 0
    for i in order:
        record = detections[i]
        if i in matched:
            node_id = matched[i]
        else:
            while True:
                node_id = f"obj{counter}"
                counter += 1
                if prev is None or not prev.has_node(node_id):
                    break
        footprint = _label_footprint(record.label)
        nodes.append(ObjectNode(
            id=node_id,
            label=record.label,
            color=classify_color(record.rgb),
            bbox=record.bbox,
            depth_m=depths[i],
            size_class=footprint or size_class_for_box(record.bbox),
            attributes={"score": f"{record.score:.3f}"},
        ))

    edges = derive_all(tuple(nodes), thresholds)
    if prev is not None:
        edges = merge_edge_confidence(edges, prev.edges)
    return SceneGraph(
        t=prev.t + 1 if prev is not None else 0,
        nodes=tuple(nodes),
        edges=edges,
        provenance=provenance,
    )


def _label_footprint(label: str) -> str | None:
    for token in normalize_label(label).split():
        if node_footprint(token):
            return token
    return None


# --- synthetic scenes -----------------------------------------------------------

_SYNTH_NOUNS = ("ball", "cup", "box", "bottle", "book", "plate", "mug", "can")


def _jitter_rgb(anchor: tuple[int, int, int], rng: Random) -> tuple[int, int, int]:
    return tuple(max(0, min(255, v + rng.randint(-8, 8))) for v in anchor)


def frame_from_structure(
    structure: LegoStructure,
    rgb_seed: int = 0,
    image_ref: str = "synthetic://structure",
    drop_index: int | None = None,
) -> PerceptionFrame:
    """Render a structure as ground-truth detections through the default
    stud frame.

    ``drop_index`` omits one brick's detection, simulating a missed object.
    """
    rng = Random(rgb_seed)
    detections: list[DetectionRecord] = []
    depths: list[float] = []
    for i, brick in enumerate(structure.bricks):
        bbox, depth = DEFAULT_STUD_FRAME.project(brick)
        rgb = _jitter_rgb(PALETTE[brick.spec.color], rng)
        score = round(rng.uniform(0.75, 0.99), 3)
        if i == drop_index:
            continue
        detections.append(DetectionRecord(brick_label(brick.spec), bbox, rgb, score))
        depths.append(depth)
    return PerceptionFrame(image_ref, tuple(detections), tuple(depths))


def synth_structure(seed: int, n_bricks: int) -> LegoStructure:
    """Deterministic random valid structure, with the hue and stacking
    stressors: two bricks are forced to light vs dark blue and a stacked
    pair shares one color when the layout allows."""
    rng = Random(f"structure-{seed}")  # str seeds hash deterministically across processes
    structure = random_structure(rng, n_bricks)
    bricks = list(structure.bricks)
    if len(bricks) >= 2:
        from dataclasses import replace as _replace

        bricks[0] = _replace(bricks[0], spec=_replace(bricks[0].spec, color="light_blue"))
        bricks[1] = _replace(bricks[1], spec=_replace(bricks[1].spec, color="dark_blue"))
        occupied = {cell: i for i, b in enumerate(bricks) for cell in b.cells3()}
        for i, brick in enumerate(bricks):
            if brick.layer == 0:
                continue
            below = next(
                (occupied[(cx, cy, brick.layer - 1)] for cx, cy in brick.cells()
                 if (cx, cy, brick.layer - 1) in occupied),
                None,
            )
            if below is not None and below != i:
                color = bricks[below].spec.color
                bricks[i] = _replace(brick, spec=_replace(brick.spec, color=color))
                break
    return LegoStructure(tuple(bricks))


def synth_frame(seed: int, n_objects: int, brick_mode: bool = False) -> PerceptionFrame:
    """Deterministic ground-truth observation of a synthetic scene.

    In brick mode the scene is a rendered valid structure; otherwise objects
    get unique (color, noun) labels, random boxes, and depths in [0.4, 3.0].
    """
    if n_objects < 0:
        raise ValueError("n_objects must be non-negative")
    if brick_mode:
        structure = synth_structure(seed, n_objects)
        return frame_from_structure(structure, rgb_seed=seed, image_ref=f"synthetic://{seed}")
    rng = Random(f"scene-{seed}")
    combos = [(color, noun) for color in PALETTE for noun in _SYNTH_NOUNS]
    chosen = rng.sample(combos, n_objects)
    detections: list[DetectionRecord] = []
    depths: list[float] = []
    for color, noun in chosen:
        width = rng.uniform(0.04, 0.22)
        height = rng.uniform(0.04, 0.22)
        cx = rng.uniform(0.02 + width / 2, 0.98 - width / 2)
        cy = rng.uniform(0.02 + height / 2, 0.98 - height / 2)
        detections.append(DetectionRecord(
            label=f"{color_text(color)} {noun}",
            bbox=Box.from_center(cx, cy, width, height),
            rgb=_jitter_rgb(PALETTE[color], rng),
            score=round(rng.uniform(0.5, 1.0), 3),
        ))
        depths.append(round(rng.uniform(0.4, 3.0), 4))
    return PerceptionFrame(f"synthetic://{seed}", tuple(detections), tuple(depths))


def synth_scene(seed: int, n_objects: int, brick_mode: bool = False) -> tuple[PerceptionFrame, SceneGraph]:
    """Deterministic ground-truth scene (see :func:`synth_frame`) plus its
    expected graph under the default thresholds."""
    frame = synth_frame(seed, n_objects, brick_mode)
    expected = build_graph(frame.detections, frame.depths, provenance="synthetic")
    return frame, expected


# --- file I/O --------------------------------------------------------------------

def frame_to_dict(frame: PerceptionFrame) -> dict:
    return {
        "schema": SCENE_SCHEMA,
        "t": frame.t,
        "image_ref": frame.image_ref,
        "detections": [
            {
                "label": d.label,
                "bbox": list(d.bbox.as_tuple()),
                "rgb": list(d.rgb),
                "score": d.score,
                "depth_m": frame.depths[i],
            }
            for i, d in enumerate(frame.detections)
        ],
    }


def frame_from_dict(data: dict) -> PerceptionFrame:
    schema = data.get("schema")
    if schema != SCENE_SCHEMA:
        raise SchemaVersionMismatch(schema, SCENE_SCHEMA)
    rows = get(data, "detections", list[_detection_from_dict])
    return PerceptionFrame(get(data, "image_ref", str), tuple(r for r, _ in rows), tuple(d for _, d in rows),
                           t=get(data, "t", int, 0))


def _detection_from_dict(data: dict) -> tuple[DetectionRecord, float]:
    """One detection and its depth sample."""
    record = DetectionRecord(
        get(data, "label", str), Box(*get(data, "bbox", float, length=4)),
        get(data, "rgb", int, length=3), get(data, "score", float),
    )
    return record, get(data, "depth_m", float)


def save_scene(frame: PerceptionFrame, path: str | Path):
    write_json(path, frame_to_dict(frame))


def load_scene(path: str | Path) -> PerceptionFrame:
    return frame_from_dict(read_json_object(path))


def save_graph(graph: SceneGraph, path: str | Path):
    write_json(path, graph.to_dict())


def load_graph(path: str | Path) -> SceneGraph:
    return SceneGraph.from_dict(read_json_object(path))
