"""Brick world: support physics, canonical forms, descriptions, snapping."""

from __future__ import annotations

from dataclasses import replace
from random import Random

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from espatial.bricks import (
    DEFAULT_STUD_FRAME,
    BrickSpec,
    LegoStructure,
    PlacedBrick,
    ViolationKind,
    canonicalize,
    describe,
    equals,
    first_mismatch,
    from_graph,
    node_footprint,
    parse_footprint,
    random_structure,
    recolor_brick,
    validate,
)
from espatial.errors import InvalidPose, InvalidStructure, NonBrickNode, ParseError, SnapAmbiguity
from espatial.geometry import Box
from espatial.oracle import brick_tuples, brute_force_violations, structures_match
from espatial.perception import build_graph, frame_from_structure, synth_scene
from espatial.scene import ObjectNode, SceneGraph


def brick(color, footprint, origin, layer) -> PlacedBrick:
    return PlacedBrick(BrickSpec(color, footprint), origin, layer)


def corrupted_structure(rng: Random, n: int) -> LegoStructure:
    """Valid structure with one brick perturbed into a likely violation."""
    s = random_structure(rng, n)
    if not s.bricks:
        return s
    bricks = list(s.bricks)
    idx = rng.randrange(len(bricks))
    mode = rng.choice(["float", "collide", "negative"])
    victim = bricks[idx]
    if mode == "float":
        bricks[idx] = replace(victim, layer=victim.layer + rng.randint(2, 4))
    elif mode == "collide" and len(bricks) > 1:
        other = bricks[(idx + 1) % len(bricks)]
        bricks[idx] = replace(victim, origin=other.origin, layer=other.layer)
    else:
        bricks[idx] = replace(victim, origin=(-1 - rng.randint(0, 2), victim.y))
    return LegoStructure(tuple(bricks))


def violation_set(violations):
    return {
        (v.kind.value, (v.brick.spec.color, v.brick.spec.footprint[0],
                        v.brick.spec.footprint[1], v.brick.x, v.brick.y, v.brick.layer))
        for v in violations
    }


class TestValidate:
    def test_grounded_single_brick_ok(self):
        assert validate(LegoStructure.of(brick("red", (1, 1), (0, 0), 0))) == []

    def test_floating_single_brick(self):
        violations = validate(LegoStructure.of(brick("red", (1, 1), (0, 0), 1)))
        assert [v.kind for v in violations] == [ViolationKind.FLOATING]

    def test_collision_reported_per_brick(self):
        s = LegoStructure.of(
            brick("red", (2, 2), (0, 0), 0),
            brick("green", (1, 2), (1, 0), 0),
        )
        violations = validate(s)
        assert {v.kind for v in violations} == {ViolationKind.CELL_COLLISION}
        assert len(violations) == 2

    def test_negative_coordinate(self):
        violations = validate(LegoStructure.of(brick("red", (1, 1), (-1, 0), 0)))
        assert ViolationKind.NEGATIVE_COORDINATE in {v.kind for v in violations}

    def test_partial_overlap_supports(self):
        s = LegoStructure.of(
            brick("red", (2, 4), (0, 0), 0),
            brick("green", (2, 2), (1, 3), 1),  # one column over the base
        )
        assert validate(s) == []

    def test_matches_brute_force_on_random_structures(self, rng):
        for trial in range(60):
            n = rng.randint(1, 20)
            s = random_structure(rng, n) if trial % 2 else corrupted_structure(rng, n)
            assert violation_set(validate(s)) == brute_force_violations(s), f"trial {trial}"


class TestCanonicalize:
    def test_idempotent_on_canonical(self, rng):
        s = random_structure(rng, 8)
        assert canonicalize(s) == s

    def test_translation_invariance(self, rng):
        s = random_structure(rng, 6)
        shifted = LegoStructure(tuple(b.translated(3, 2) for b in s.bricks))
        assert canonicalize(shifted) == canonicalize(s) == s

    def test_min_coordinates_zero(self, rng):
        for _ in range(20):
            s = random_structure(rng, rng.randint(1, 12))
            shifted = LegoStructure(tuple(b.translated(rng.randint(0, 5), rng.randint(0, 5))
                                          for b in s.bricks))
            canon = canonicalize(shifted)
            assert min(b.x for b in canon.bricks) == 0
            assert min(b.y for b in canon.bricks) == 0

    def test_empty(self):
        assert canonicalize(LegoStructure()) == LegoStructure()


class TestEquals:
    def test_reflexive(self, rng):
        s = random_structure(rng, 7)
        assert equals(s, s)

    def test_translated_equal(self, rng):
        s = random_structure(rng, 7)
        shifted = LegoStructure(tuple(b.translated(2, 5) for b in s.bricks))
        assert equals(s, shifted)

    def test_recolored_unequal(self, rng):
        s = random_structure(rng, 7)
        assert not equals(s, recolor_brick(s, rng))
        assert first_mismatch(s, recolor_brick(s, rng)) is not None

    def test_agrees_with_oracle_compare(self, rng):
        for _ in range(40):
            a = random_structure(rng, rng.randint(1, 10))
            b = recolor_brick(a, rng) if rng.random() < 0.5 else \
                LegoStructure(tuple(x.translated(1, 1) for x in a.bricks))
            assert equals(a, b) == structures_match(brick_tuples(a), brick_tuples(b))


class TestDescribe:
    def test_empty(self):
        d = describe(LegoStructure())
        assert d.total == 0 and d.records == ()

    def test_single_brick_record(self):
        s = LegoStructure.of(
            brick("green", (2, 2), (2, 0), 0),
            brick("red", (1, 1), (2, 0), 1),
        )
        d = describe(s)
        top = d.records[-1]
        assert (top.color, top.size, top.position, top.layer) == ("red", "1x1", (2, 0), 1)

    def test_counts_match_brute_tally(self, rng):
        for _ in range(20):
            s = random_structure(rng, rng.randint(1, 15))
            d = describe(s)
            assert d.total == len(s.bricks)
            for color, count in d.color_counts:
                assert count == sum(1 for b in s.bricks if b.spec.color == color)
            for size, count in d.size_counts:
                assert count == sum(1 for b in s.bricks if b.spec.size == size)
            assert sum(c for _, c in d.color_counts) == d.total

    def test_round_trip(self, rng):
        s = random_structure(rng, 9)
        assert equals(describe(s).to_structure(), s)

    def test_invalid_structure_rejected(self):
        with pytest.raises(InvalidStructure):
            describe(LegoStructure.of(brick("red", (1, 1), (0, 0), 2)))


class TestStudFrame:
    def test_project_snap_round_trip(self, rng):
        for _ in range(50):
            b = brick(rng.choice(("red", "green")),
                      rng.choice(((1, 1), (2, 2), (1, 4), (4, 2))),
                      (rng.randint(0, 9), rng.randint(0, 9)), rng.randint(0, 6))
            bbox, depth = DEFAULT_STUD_FRAME.project(b)
            assert DEFAULT_STUD_FRAME.snap(bbox, depth, b.spec.footprint) == \
                (b.x, b.y, b.layer)

    def test_snap_tie_raises(self):
        frame = DEFAULT_STUD_FRAME
        # x lands exactly between cells 1 and 2
        bbox = Box(frame.origin_x + 1.5 * frame.stud, 0.84,
                   frame.origin_x + 2.5 * frame.stud, 0.90)
        with pytest.raises(SnapAmbiguity):
            frame.snap(bbox, frame.depth_base_m + 0.5 * frame.depth_stud_m, (1, 1))


class TestFromGraph:
    def test_empty_graph(self):
        assert from_graph(SceneGraph.empty()) == LegoStructure()

    def test_recovers_synthetic_ground_truth(self, rng):
        from espatial.perception import synth_structure

        for seed in range(10):
            truth = synth_structure(seed, rng.randint(1, 10))
            frame = frame_from_structure(truth, rgb_seed=seed)
            graph = build_graph(frame.detections, frame.depths)
            assert equals(from_graph(graph), truth)

    def test_non_brick_node_rejected(self):
        node = ObjectNode("a", "red ball", "red", Box(0.4, 0.4, 0.5, 0.5), 1.0)
        with pytest.raises(NonBrickNode):
            from_graph(SceneGraph.from_nodes((node,)))

    @pytest.mark.parametrize("size_class", ["small", "3x3", "²x1"], ids=["word", "unsupported", "superscript"])
    def test_non_footprint_size_class_rejected(self, size_class):
        node = ObjectNode("a", "red brick", "red", Box(0.4, 0.4, 0.5, 0.5), 1.0, size_class)
        assert node_footprint(size_class) is None
        with pytest.raises(NonBrickNode):
            from_graph(SceneGraph.from_nodes((node,)))

    def test_superscript_digit_is_not_a_footprint(self):
        with pytest.raises(ParseError):
            parse_footprint("²x1")

    def test_brick_mode_scene(self):
        frame, graph = synth_scene(11, 6, brick_mode=True)
        rebuilt = from_graph(graph)
        assert len(rebuilt.bricks) == len(frame.detections)
        assert validate(rebuilt) == []


class TestStructureBasics:
    def test_occupancy_matches_recomputation(self, rng):
        s = random_structure(rng, 12)
        expected = {}
        for i, b in enumerate(s.bricks):
            for cell in b.cells3():
                expected[cell] = expected.get(cell, ()) + (i,)
        assert s.occupancy == expected

    def test_unsupported_footprint_rejected(self):
        with pytest.raises(InvalidPose):
            BrickSpec("red", (3, 3))
        with pytest.raises(InvalidPose):
            BrickSpec("chartreuse", (1, 1))

    def test_rotations_are_distinct_placements(self):
        a = LegoStructure.of(brick("red", (1, 2), (0, 0), 0))
        b = LegoStructure.of(brick("red", (2, 1), (0, 0), 0))
        assert not equals(a, b)

    def test_structure_json_round_trip(self, rng):
        s = random_structure(rng, 8)
        assert LegoStructure.from_dict(s.to_dict()) == s

    @given(st.integers(min_value=0, max_value=15))
    @settings(max_examples=20, deadline=None)
    def test_random_structures_always_valid(self, n):
        s = random_structure(Random(f"hyp-{n}"), n)
        assert validate(s) == []
        assert len(s.bricks) == n
