"""Shared helpers and hypothesis strategies."""

from __future__ import annotations

from random import Random

import hypothesis.strategies as st
import pytest

from espatial.bricks import FOOTPRINT_PLACEMENTS, BrickSpec, PlacedBrick, random_structure
from espatial.geometry import PALETTE, Box
from espatial.scene import ObjectNode

COLORS = tuple(PALETTE)


def make_node(node_id, cx, cy, w=0.1, h=0.1, depth=1.0, label=None, color="red"):
    return ObjectNode(
        id=node_id,
        label=label or f"{color} object {node_id}",
        color=color,
        bbox=Box.from_center(cx, cy, w, h),
        depth_m=depth,
    )


def random_node(rng: Random, node_id: str, color: str | None = None) -> ObjectNode:
    color = color or rng.choice(COLORS)
    w = rng.uniform(0.02, 0.3)
    h = rng.uniform(0.02, 0.3)
    cx = rng.uniform(w / 2 + 0.001, 1 - w / 2 - 0.001)
    cy = rng.uniform(h / 2 + 0.001, 1 - h / 2 - 0.001)
    return make_node(node_id, cx, cy, w, h, depth=rng.uniform(0.3, 3.0), color=color)


def random_nodes(rng: Random, n: int) -> tuple[ObjectNode, ...]:
    return tuple(random_node(rng, f"n{i}") for i in range(n))


def faulty_bricks(rng: Random, n: int) -> list[PlacedBrick]:
    """A random valid structure's bricks with one to three faults inserted
    at random places: a brick at a random raised layer (mostly floating),
    an overlap from another origin, another spec at a taken origin, or an
    exact duplicate."""
    bricks = list(random_structure(rng, n).bricks)
    for _ in range(rng.randint(1, 3)):
        base = rng.choice(bricks)
        spec = BrickSpec(rng.choice(COLORS), rng.choice(FOOTPRINT_PLACEMENTS))
        fault = rng.choice(("floating", "overlap", "respec", "duplicate"))
        if fault == "floating":
            brick = PlacedBrick(spec, (rng.randint(0, 8), rng.randint(0, 8)), rng.randint(1, 4))
        elif fault == "overlap":
            dx, dy = rng.choice(((1, 0), (0, 1), (1, 1), (-1, 0), (0, -1)))
            origin = (base.x + dx, base.y + dy)
            brick = PlacedBrick(spec, origin if min(origin) >= 0 else (base.x + 1, base.y), base.layer)
        elif fault == "respec":
            brick = PlacedBrick(spec, base.origin, base.layer)
        else:
            brick = base
        bricks.insert(rng.randint(0, len(bricks)), brick)
    return bricks


@st.composite
def boxes(draw) -> Box:
    w = draw(st.floats(min_value=0.01, max_value=0.5))
    h = draw(st.floats(min_value=0.01, max_value=0.5))
    x0 = draw(st.floats(min_value=0.0, max_value=1.0 - 0.5))
    y0 = draw(st.floats(min_value=0.0, max_value=1.0 - 0.5))
    return Box(x0, y0, min(1.0, x0 + w), min(1.0, y0 + h))


@st.composite
def nodes(draw, node_id: str = "n") -> ObjectNode:
    return ObjectNode(
        id=node_id,
        label=f"thing {node_id}",
        color=draw(st.sampled_from(COLORS)),
        bbox=draw(boxes()),
        depth_m=draw(st.floats(min_value=0.05, max_value=5.0)),
    )


@pytest.fixture
def rng():
    return Random("espatial-tests")
