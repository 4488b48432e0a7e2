"""Geometry and relation derivation, checked against independent arithmetic."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from espatial.errors import InvalidDepth, InvalidPose, ParseError
from espatial.geometry import (
    DEFAULT_THRESHOLDS,
    DUALS,
    PALETTE,
    SYMMETRIC_KINDS,
    Box,
    RelationKind,
    Thresholds,
    classify_color,
    derive_all,
    derive_pairwise,
    distance,
    lift_to_3d,
    overlap_iou,
)
from espatial.oracle import TruthObject, brute_force_edges

from .conftest import boxes, make_node, nodes, random_nodes


def edge_keys(edges):
    return {(e.subject_id, e.object_id, e.kind.value) for e in edges}


class TestLift:
    def test_principal_axis(self):
        box = Box.from_center(0.5, 0.5, 0.2, 0.2)
        assert lift_to_3d(box, 1.0) == (0.0, 0.0, 1.0)

    def test_depth_scaling(self):
        box = Box.from_center(0.5, 0.5, 0.2, 0.2)
        assert lift_to_3d(box, 2.0) == (0.0, 0.0, 2.0)

    def test_offset_center(self):
        # hand evaluation: (0.75 - 0.5) * 2.0 * 1.0 = 0.5
        box = Box.from_center(0.75, 0.5, 0.1, 0.1)
        x, y, z = lift_to_3d(box, 2.0)
        assert x == pytest.approx(0.5)
        assert y == pytest.approx(0.0)
        assert z == 2.0

    def test_invalid_depth(self):
        box = Box.from_center(0.5, 0.5, 0.1, 0.1)
        with pytest.raises(InvalidDepth):
            lift_to_3d(box, 0.0)
        with pytest.raises(InvalidDepth):
            lift_to_3d(box, -1.0)

    @given(nodes("a"), st.floats(min_value=1.01, max_value=3.0))
    def test_monotone_in_depth(self, node, factor):
        near = lift_to_3d(node.bbox, node.depth_m)
        far = lift_to_3d(node.bbox, node.depth_m * factor)
        assert far[2] > near[2]


class TestBox:
    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidPose):
            Box(0.5, 0.0, 0.4, 1.0)  # inverted x
        with pytest.raises(InvalidPose):
            Box(0.0, 0.0, 1.2, 1.0)  # beyond the frame

    def test_gap_touching_is_zero(self):
        a = Box(0.1, 0.1, 0.3, 0.3)
        b = Box(0.3, 0.1, 0.5, 0.3)
        assert a.gap_to(b) == 0.0

    @given(boxes(), boxes())
    def test_gap_symmetric(self, a, b):
        assert a.gap_to(b) == pytest.approx(b.gap_to(a))


class TestDistance:
    def test_identity(self):
        a = make_node("a", 0.3, 0.3)
        assert distance(a, a) == 0.0

    def test_axis_aligned(self):
        assert distance((0.0, 0.0, 1.0), (0.0, 0.0, 2.0)) == 1.0

    def test_matches_independent_arithmetic(self, rng):
        # second derivation path: explicit component loop
        for _ in range(200):
            a, b = random_nodes(rng, 2)
            total = 0.0
            for pa, pb in zip(a.center3, b.center3):
                total += (pa - pb) ** 2
            assert distance(a, b) == pytest.approx(math.sqrt(total), rel=1e-12)

    @given(nodes("a"), nodes("b"), nodes("c"))
    def test_triangle_inequality(self, a, b, c):
        assert distance(a, c) <= (distance(a, b) + distance(b, c)) * (1 + 1e-9) + 1e-12

    @given(nodes("a"), nodes("b"))
    def test_symmetry(self, a, b):
        assert distance(a, b) == distance(b, a)


def sampled_iou(a: Box, b: Box, n: int = 50_000) -> float:
    """Independent area-sampling estimate: midpoint sampling per axis over
    the hull; areas of axis-aligned boxes factorize per axis."""
    lo_x, hi_x = min(a.x_min, b.x_min), max(a.x_max, b.x_max)
    lo_y, hi_y = min(a.y_min, b.y_min), max(a.y_max, b.y_max)

    def length(lo, hi, s_lo, s_hi):
        span = hi - lo
        hits = sum(1 for i in range(n) if s_lo <= lo + (i + 0.5) * span / n <= s_hi)
        return hits / n * span

    ix = length(lo_x, hi_x, max(a.x_min, b.x_min), min(a.x_max, b.x_max))
    iy = length(lo_y, hi_y, max(a.y_min, b.y_min), min(a.y_max, b.y_max))
    ax = length(lo_x, hi_x, a.x_min, a.x_max) * length(lo_y, hi_y, a.y_min, a.y_max)
    bx = length(lo_x, hi_x, b.x_min, b.x_max) * length(lo_y, hi_y, b.y_min, b.y_max)
    inter = ix * iy
    union = ax + bx - inter
    return inter / union if union > 0 else 0.0


class TestIou:
    def test_equal_boxes(self):
        b = Box(0.2, 0.2, 0.7, 0.9)
        assert overlap_iou(b, b) == 1.0

    def test_disjoint(self):
        assert overlap_iou(Box(0.0, 0.0, 0.2, 0.2), Box(0.5, 0.5, 0.9, 0.9)) == 0.0

    def test_half_shifted_against_sampling_oracle(self):
        a = Box(0.0, 0.0, 0.8, 1.0)
        b = Box(0.4, 0.0, 1.0, 1.0)
        exact = overlap_iou(a, b)
        assert exact == pytest.approx(0.4 / 1.0)
        assert abs(sampled_iou(a, b) - exact) < 1e-3

    def test_partial_overlap_against_sampling_oracle(self):
        a = Box(0.1, 0.2, 0.6, 0.7)
        b = Box(0.3, 0.4, 0.9, 0.95)
        assert abs(sampled_iou(a, b) - overlap_iou(a, b)) < 1e-3

    @given(boxes(), boxes())
    def test_bounds_and_symmetry(self, a, b):
        v = overlap_iou(a, b)
        assert 0.0 <= v <= 1.0
        assert v == pytest.approx(overlap_iou(b, a))


class TestClassifyColor:
    def test_anchors_map_to_themselves(self):
        for name, rgb in PALETTE.items():
            assert classify_color(rgb) == name

    def test_blues_are_distinct(self):
        assert classify_color(PALETTE["light_blue"]) == "light_blue"
        assert classify_color(PALETTE["dark_blue"]) == "dark_blue"

    @given(st.tuples(st.integers(0, 255), st.integers(0, 255), st.integers(0, 255)))
    def test_total_and_idempotent(self, rgb):
        name = classify_color(rgb)
        assert name in PALETTE
        assert classify_color(PALETTE[name]) == name


class TestDerivePairwise:
    def test_horizontal_pair(self):
        # centers (0.2, 0.5) and (0.8, 0.5), same depth: dx = 0.6 > tau_dir,
        # distance 0.6 m >= tau_near, IoU 0, gap 0.5 -> exactly one dual pair
        a = make_node("a", 0.2, 0.5, 0.1, 0.1, depth=1.0)
        b = make_node("b", 0.8, 0.5, 0.1, 0.1, depth=1.0)
        edges = derive_pairwise(a, b)
        assert edge_keys(edges) == {
            ("a", "b", "left_of"),
            ("b", "a", "right_of"),
        }
        for e in edges:
            assert e.magnitude == pytest.approx(0.6)

    def test_identical_pose(self):
        a = make_node("a", 0.5, 0.5, 0.2, 0.2, depth=1.0)
        b = make_node("b", 0.5, 0.5, 0.2, 0.2, depth=1.0)
        edges = derive_pairwise(a, b)
        assert edge_keys(edges) == {
            ("a", "b", "near"), ("b", "a", "near"),
            ("a", "b", "overlapping"), ("b", "a", "overlapping"),
        }
        by_kind = {e.kind: e for e in edges if e.subject_id == "a"}
        assert by_kind[RelationKind.NEAR].magnitude == 0.0
        assert by_kind[RelationKind.OVERLAPPING].magnitude == 1.0

    def test_depth_gap(self):
        # same image region, depths 0.5 vs 2.0: gap 1.5 m > tau_depth,
        # IoU 1.0; lifted distance 1.5 m >= tau_near so no near edge
        a = make_node("a", 0.5, 0.5, 0.1, 0.1, depth=0.5)
        b = make_node("b", 0.5, 0.5, 0.1, 0.1, depth=2.0)
        edges = derive_pairwise(a, b)
        assert edge_keys(edges) == {
            ("a", "b", "in_front_of"), ("b", "a", "behind"),
            ("a", "b", "overlapping"), ("b", "a", "overlapping"),
        }
        front = [e for e in edges if e.kind is RelationKind.IN_FRONT_OF][0]
        assert front.magnitude == pytest.approx(1.5)

    def test_stacked_bricks_on_top_of(self):
        # brick-sized boxes, one directly above the other, touching, same depth
        a = make_node("a", 0.13, 0.81, 0.06, 0.06, depth=1.03)
        b = make_node("b", 0.13, 0.87, 0.06, 0.06, depth=1.03)
        edges = derive_pairwise(a, b)
        assert edge_keys(edges) == {
            ("a", "b", "above"), ("b", "a", "below"),
            ("a", "b", "near"), ("b", "a", "near"),
            ("a", "b", "adjacent_to"), ("b", "a", "adjacent_to"),
            ("a", "b", "on_top_of"),
        }

    def test_thresholds_configurable(self):
        a = make_node("a", 0.45, 0.5, 0.05, 0.05, depth=1.0)
        b = make_node("b", 0.55, 0.5, 0.05, 0.05, depth=1.0)
        wide = derive_pairwise(a, b, Thresholds(tau_dir=0.5))
        assert ("a", "b", "left_of") not in edge_keys(wide)
        narrow = derive_pairwise(a, b, Thresholds(tau_dir=0.01))
        assert ("a", "b", "left_of") in edge_keys(narrow)

    @pytest.mark.parametrize("bad", [
        {"tau_dir": float("nan")}, {"tau_near_m": float("inf")}, {"tau_adj": -0.01},
    ])
    def test_thresholds_reject_non_finite_or_negative(self, bad):
        with pytest.raises(ParseError):
            Thresholds(**bad)

    def test_thresholds_from_dict_names_unknown_key(self):
        with pytest.raises(ParseError) as err:
            Thresholds.from_dict({"tau_dir": 0.1, "tau_bogus": 1})
        assert err.value.field == "tau_bogus"


class TestDeriveAll:
    def test_empty_and_singleton(self):
        assert derive_all(()) == ()
        assert derive_all((make_node("a", 0.5, 0.5),)) == ()

    def test_matches_brute_force(self, rng):
        for trial in range(30):
            nodes_ = random_nodes(rng, rng.randint(2, 8))
            engine = derive_all(nodes_)
            truth = [TruthObject(n.id, n.bbox, n.depth_m) for n in nodes_]
            expected = brute_force_edges(truth, DEFAULT_THRESHOLDS)
            assert edge_keys(engine) == set(expected), f"trial {trial}"
            for e in engine:
                assert e.magnitude == pytest.approx(expected[e.key()], rel=1e-9)

    def test_deterministic_ordering(self, rng):
        nodes_ = random_nodes(rng, 6)
        first = derive_all(nodes_)
        second = derive_all(tuple(reversed(nodes_)))
        assert first == second
        assert [e.key() for e in first] == sorted(e.key() for e in first)


class TestInvariants:
    @given(nodes("a"), nodes("b"))
    @settings(max_examples=200)
    def test_dual_consistency(self, a, b):
        edges = edge_keys(derive_pairwise(a, b))
        for kind, dual in DUALS.items():
            assert ((("a", "b", kind.value) in edges)
                    == (("b", "a", dual.value) in edges))

    @given(nodes("a"), nodes("b"))
    @settings(max_examples=200)
    def test_symmetric_kinds_paired_with_equal_magnitude(self, a, b):
        edges = derive_pairwise(a, b)
        for kind in SYMMETRIC_KINDS:
            forward = [e for e in edges if e.kind is kind and e.subject_id == "a"]
            backward = [e for e in edges if e.kind is kind and e.subject_id == "b"]
            assert len(forward) == len(backward)
            if forward:
                assert forward[0].magnitude == backward[0].magnitude

    @given(nodes("a"), nodes("b"), st.floats(min_value=0.01, max_value=1.0),
           st.floats(min_value=1.0, max_value=4.0))
    @settings(max_examples=100)
    def test_near_threshold_monotonicity(self, a, b, tau, factor):
        small = edge_keys(derive_pairwise(a, b, Thresholds(tau_near_m=tau)))
        large = edge_keys(derive_pairwise(a, b, Thresholds(tau_near_m=tau * factor)))
        if ("a", "b", "near") in small:
            assert ("a", "b", "near") in large
