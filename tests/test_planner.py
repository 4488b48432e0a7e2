"""Assembly planning, replay, and the placement command grammar."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
import hypothesis.strategies as st

from espatial.bricks import (
    FOOTPRINT_PLACEMENTS,
    BrickSpec,
    LegoStructure,
    PlacedBrick,
    equals,
    from_graph,
    random_structure,
    validate,
)
from espatial.errors import GrammarError, InvalidTarget, ReplayViolation
from espatial.geometry import PALETTE
from espatial.planner import (
    AssemblyPlan,
    PlacementCommand,
    ordered_commands,
    parse_command,
    plan,
    replay,
    serialize_command,
)
from espatial.scene import Action, SceneGraph, apply_action

from .conftest import faulty_bricks


def command(color, footprint, position, layer) -> PlacementCommand:
    return PlacementCommand(BrickSpec(color, footprint), position, layer)


class TestPlan:
    def test_empty_target(self):
        assert plan(LegoStructure()).commands == ()

    def test_two_brick_tower_only_valid_order(self):
        tower = LegoStructure.of(
            PlacedBrick(BrickSpec("red", (1, 1)), (0, 0), 0),
            PlacedBrick(BrickSpec("green", (1, 1)), (0, 0), 1),
        )
        assembly = plan(tower)
        assert [c.layer for c in assembly.commands] == [0, 1]
        # the reversed order is the only other permutation and must fail
        reversed_plan = AssemblyPlan(tuple(reversed(assembly.commands)), assembly.target_hash)
        with pytest.raises(ReplayViolation) as err:
            replay(reversed_plan)
        assert err.value.index == 0
        assert any("floating" in str(v) for v in err.value.violations)

    def test_round_trip_and_prefix_validity(self, rng):
        for trial in range(50):
            target = random_structure(rng, rng.randint(1, 15))
            assembly = plan(target)
            assert len(assembly.commands) == len(target.bricks)
            partial = LegoStructure()
            for cmd in assembly.commands:
                partial = partial.with_brick(cmd.to_brick())
                assert validate(partial) == [], f"trial {trial}"
            assert equals(partial, target)

    def test_plan_deterministic(self, rng):
        target = random_structure(rng, 10)
        assert plan(target) == plan(target)

    def test_invalid_target_rejected(self):
        floated = LegoStructure.of(PlacedBrick(BrickSpec("red", (1, 1)), (0, 0), 1))
        with pytest.raises(InvalidTarget):
            plan(floated)

    def test_non_canonical_target_rejected(self, rng):
        target = random_structure(rng, 4)
        shifted = LegoStructure(tuple(b.translated(1, 0) for b in target.bricks))
        with pytest.raises(InvalidTarget):
            plan(shifted)


class TestReplay:
    def test_empty(self):
        assert replay(AssemblyPlan((), "x")) == LegoStructure()

    def test_unsupported_first_move(self):
        bad = AssemblyPlan((command("red", (1, 1), (0, 0), 1),), "x")
        with pytest.raises(ReplayViolation) as err:
            replay(bad)
        assert err.value.index == 0

    def test_plan_replays_to_target(self, rng):
        target = random_structure(rng, 12)
        assert equals(replay(plan(target)), target)


def reference_replay(assembly: AssemblyPlan) -> LegoStructure:
    """The fold the cell-set replay must agree with: validate every prefix
    in full."""
    structure = LegoStructure()
    for i, cmd in enumerate(assembly.commands):
        structure = structure.with_brick(cmd.to_brick())
        violations = validate(structure)
        if violations:
            raise ReplayViolation(i, violations)
    return structure


def replay_outcome(fn, commands):
    try:
        return fn(AssemblyPlan(tuple(commands), "x"))
    except ReplayViolation as e:
        return e.index, e.violations, str(e)


class TestReplayReferee:
    def test_valid_plans_match_prefix_validation(self, rng):
        for trial in range(60):
            commands = ordered_commands(random_structure(rng, rng.randint(1, 15)))
            got = replay_outcome(replay, commands)
            assert got == replay_outcome(reference_replay, commands), f"trial {trial}"
            assert isinstance(got, LegoStructure)

    def test_faulty_plans_match_prefix_validation(self, rng):
        kinds = set()
        for trial in range(300):
            bricks = faulty_bricks(rng, rng.randint(1, 10))
            if rng.random() < 0.5:  # bottom-up, as a planner would order them
                bricks.sort(key=PlacedBrick.sort_key)
            commands = [PlacementCommand.from_brick(b) for b in bricks]
            got = replay_outcome(replay, commands)
            assert got == replay_outcome(reference_replay, commands), f"trial {trial}"
            if not isinstance(got, LegoStructure):
                kinds.update(v.kind.value for v in got[1])
        assert {"floating", "cell_collision"} <= kinds

    def test_exact_duplicate_collapses(self):
        brick = command("red", (2, 2), (0, 0), 0)
        assert replay(AssemblyPlan((brick, brick), "x")) == LegoStructure.of(brick.to_brick())


class TestGrammar:
    def test_serialize_exact_form(self):
        text = serialize_command(command("red", (1, 1), (2, 0), 1))
        assert text == "place the red 1x1 block at position (2, 0) in layer 1"

    def test_parse_ordinal_layer(self):
        parsed = parse_command("place the red 1×1 block at position (2, 0) in the second layer")
        assert parsed == command("red", (1, 1), (2, 0), 1)

    def test_parse_multiword_color(self):
        parsed = parse_command("place the light blue 2x4 block at position (0, 3) in layer 0")
        assert parsed.spec.color == "light_blue"
        assert parsed.spec.footprint == (2, 4)

    def test_parse_first_layer_is_ground(self):
        parsed = parse_command("place the gray 1x2 block at position (5, 5) in the first layer")
        assert parsed.layer == 0

    def test_grammar_errors_carry_column(self):
        with pytest.raises(GrammarError) as err:
            parse_command("put the red 1x1 block at position (2, 0) in layer 1")
        assert err.value.column == 1
        with pytest.raises(GrammarError) as err:
            parse_command("place the red 1x1 brick at position (2, 0) in layer 1")
        assert err.value.column == 19  # "brick" follows the 18-char prefix
        with pytest.raises(GrammarError):
            parse_command("place the red 1x1 block at position (2, 0) in layer 1 extra")
        with pytest.raises(GrammarError):
            parse_command("place the mauve 1x1 block at position (2, 0) in layer 1")

    def test_round_trip_of_plans(self, rng):
        for _ in range(100):
            cmd = command(
                rng.choice(tuple(PALETTE)),
                rng.choice(FOOTPRINT_PLACEMENTS),
                (rng.randint(0, 30), rng.randint(0, 30)),
                rng.randint(0, 19),
            )
            assert parse_command(serialize_command(cmd)) == cmd

    @given(st.sampled_from(sorted(PALETTE)), st.sampled_from(FOOTPRINT_PLACEMENTS),
           st.integers(0, 99), st.integers(0, 99), st.integers(0, 19))
    @settings(max_examples=100)
    def test_round_trip_property(self, color, footprint, x, y, layer):
        cmd = command(color, footprint, (x, y), layer)
        assert parse_command(serialize_command(cmd)) == cmd


class TestToActions:
    def test_full_plan_through_scene_dynamics(self, rng):
        target = random_structure(rng, 8)
        graph = SceneGraph.empty()
        for action in (Action.place_brick(c) for c in plan(target).commands):
            graph = apply_action(graph, action)
        assert equals(from_graph(graph), target)
