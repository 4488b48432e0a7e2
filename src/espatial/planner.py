"""Assembly planning: ordered, prefix-valid placement sequences.

Commands are ordered layer-ascending, then y, then x, so every prefix of a
plan for a valid structure replays to a violation-free structure under the
one-cell support rule. The text grammar is line oriented:

    place the <color> <w>x<l> block at position (<x>, <y>) in layer <k>

with layer index 0 on the ground. The parser additionally accepts the
ordinal phrasing "in the second layer" (meaning layer index 1) and the
multiplication sign in footprints ("1×1").
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from .bricks import (
    BrickSpec,
    LegoStructure,
    PlacedBrick,
    canonicalize,
    equals,
    is_supported_footprint,
    supporters,
    validate,
)
from .errors import GrammarError, InvalidPose, InvalidTarget, ReplayViolation
from .geometry import PALETTE, color_name, color_text

PLAN_SCHEMA = "espatial-plan/1"


@dataclass(frozen=True)
class PlacementCommand:
    """One placement in the relative stud coordinate system."""

    spec: BrickSpec
    position: tuple[int, int]
    layer: int

    def __post_init__(self):
        x, y = self.position
        if x < 0 or y < 0 or self.layer < 0:
            raise InvalidPose(f"command coordinates must be non-negative: {self.position} layer {self.layer}")

    def to_brick(self) -> PlacedBrick:
        return PlacedBrick(self.spec, self.position, self.layer)

    @classmethod
    def from_brick(cls, brick: PlacedBrick) -> "PlacementCommand":
        return cls(brick.spec, brick.origin, brick.layer)

    def to_dict(self) -> dict:
        return {
            "color": self.spec.color,
            "footprint": list(self.spec.footprint),
            "position": list(self.position),
            "layer": self.layer,
        }


@dataclass(frozen=True)
class AssemblyPlan:
    """Ordered placement commands plus a digest of the canonical target."""

    commands: tuple[PlacementCommand, ...]
    target_hash: str

    def __len__(self) -> int:
        return len(self.commands)

    def to_dict(self) -> dict:
        return {
            "schema": PLAN_SCHEMA,
            "target_hash": self.target_hash,
            "commands": [c.to_dict() for c in self.commands],
        }


def target_digest(target: LegoStructure) -> str:
    canonical = canonicalize(target)
    body = json.dumps(canonical.to_dict(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(body.encode("utf-8")).hexdigest()


def ordered_commands(target: LegoStructure) -> tuple[PlacementCommand, ...]:
    """Commands in (layer, y, x) order; pure ordering, no validation."""
    return tuple(PlacementCommand.from_brick(b) for b in target.bricks)


def plan(target: LegoStructure) -> AssemblyPlan:
    """Plan a valid canonical target bottom-up.

    Under the one-cell support rule the bottom-up order is always feasible;
    the replay below is defensive and would reject a target admitting no
    valid linear order.
    """
    violations = validate(target)
    if violations:
        raise InvalidTarget(f"target is invalid: {'; '.join(str(v) for v in violations)}")
    if canonicalize(target) != target:
        raise InvalidTarget("target must be canonical (bottom-left stud at (0, 0))")
    commands = ordered_commands(target)
    try:
        built = replay(AssemblyPlan(commands, ""))
    except ReplayViolation as e:
        raise InvalidTarget(f"no support-valid linear order: prefix fails at command {e.index}") from e
    if not equals(built, target):
        raise InvalidTarget("planned commands do not rebuild the target")
    return AssemblyPlan(commands, target_digest(target))


def replay(assembly: AssemblyPlan) -> LegoStructure:
    """Fold commands from the empty structure, failing on the first
    violation with the offending command index.

    The fold keeps one map of occupied cells, so a command costs
    O(footprint). Only a command that collides or floats validates its
    prefix in full, so the error lists every violation :func:`validate`
    finds there. Exact duplicate bricks collapse, as in a
    :class:`LegoStructure`.
    """
    placed: set[PlacedBrick] = set()
    occupied: dict[tuple[int, int, int], PlacedBrick] = {}
    for i, command in enumerate(assembly.commands):
        brick = command.to_brick()
        if brick in placed:
            continue
        cells = brick.cells3()
        floats = brick.layer > 0 and not supporters(occupied, brick.x, brick.y, brick.layer, brick.spec.footprint)
        if floats or any(cell in occupied for cell in cells):
            raise ReplayViolation(i, validate(LegoStructure(tuple(placed) + (brick,))))
        placed.add(brick)
        occupied.update(dict.fromkeys(cells, brick))
    return LegoStructure(tuple(placed))


# --- text grammar ------------------------------------------------------------

ORDINALS = {
    "first": 0, "second": 1, "third": 2, "fourth": 3, "fifth": 4,
    "sixth": 5, "seventh": 6, "eighth": 7, "ninth": 8, "tenth": 9,
    "eleventh": 10, "twelfth": 11, "thirteenth": 12, "fourteenth": 13,
    "fifteenth": 14, "sixteenth": 15, "seventeenth": 16, "eighteenth": 17,
    "nineteenth": 18, "twentieth": 19,
}


def serialize_command(command: PlacementCommand) -> str:
    color = color_text(command.spec.color)
    w, l = command.spec.footprint
    x, y = command.position
    return f"place the {color} {w}x{l} block at position ({x}, {y}) in layer {command.layer}"


class _Scanner:
    """Token scanner that tracks 1-based column positions for diagnostics."""

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    @property
    def column(self) -> int:
        return self.pos + 1

    def fail(self, message: str, column: int | None = None):
        raise GrammarError(message, column if column is not None else self.column)

    def word(self) -> tuple[str, int]:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum() or self.text[self.pos] == "×"):
            self.pos += 1
        if self.pos == start:
            self.fail("expected a word", start + 1)
        return self.text[start:self.pos], start + 1

    def expect_word(self, expected: str):
        got, col = self.word()
        if got != expected:
            self.fail(f"expected {expected!r}, got {got!r}", col)

    def expect_char(self, ch: str):
        self._skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            self.fail(f"expected {ch!r}")
        self.pos += 1

    def number(self) -> int:
        got, col = self.word()
        if not got.isdigit():
            self.fail(f"expected a number, got {got!r}", col)
        return int(got)

    def expect_end(self):
        self._skip_ws()
        if self.pos < len(self.text):
            self.fail("unexpected trailing text")


def _parse_footprint_token(token: str) -> tuple[int, int] | None:
    parts = token.replace("×", "x").split("x")
    if len(parts) == 2 and all(p.isdigit() and p for p in parts):
        return (int(parts[0]), int(parts[1]))
    return None


def parse_command(text: str) -> PlacementCommand:
    """Parse grammar-conforming text into a command.

    Raises GrammarError with the 1-based column of the first mismatch.
    """
    scanner = _Scanner(text)
    scanner.expect_word("place")
    scanner.expect_word("the")

    color_words: list[str] = []
    footprint: tuple[int, int] | None = None
    color_col = scanner.column
    while footprint is None:
        token, col = scanner.word()
        footprint = _parse_footprint_token(token)
        if footprint is None:
            color_words.append(token)
            if len(color_words) > 2:
                scanner.fail("expected a footprint like 1x1", col)
    if not color_words:
        scanner.fail("expected a color", color_col)
    color = color_name(" ".join(color_words))
    if color not in PALETTE:
        scanner.fail(f"unknown color {' '.join(color_words)!r}", color_col)
    if not is_supported_footprint(*footprint):
        scanner.fail(f"unsupported footprint {footprint[0]}x{footprint[1]}")

    scanner.expect_word("block")
    scanner.expect_word("at")
    scanner.expect_word("position")
    scanner.expect_char("(")
    x = scanner.number()
    scanner.expect_char(",")
    y = scanner.number()
    scanner.expect_char(")")
    scanner.expect_word("in")

    token, col = scanner.word()
    if token == "layer":
        layer = scanner.number()
    elif token == "the":
        ordinal, ord_col = scanner.word()
        if ordinal not in ORDINALS:
            scanner.fail(f"unknown ordinal {ordinal!r}", ord_col)
        layer = ORDINALS[ordinal]
        scanner.expect_word("layer")
    else:
        scanner.fail(f"expected 'layer' or 'the', got {token!r}", col)
    scanner.expect_end()

    return PlacementCommand(BrickSpec(color, footprint), (x, y), layer)
