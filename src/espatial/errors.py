"""Exception types shared across the engine.

Domain violations that are data, not failures (e.g. a floating brick found by
the structure validator), are returned as values; exceptions are reserved for
contract breaches and unusable inputs.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all engine errors."""


# --- scene graph -----------------------------------------------------------

class UnknownNodeId(EngineError):
    """A node id was referenced that does not exist in the graph."""


class DuplicateNodeId(EngineError):
    """A node id collides with one already present in the graph."""


class InvalidPose(EngineError):
    """Bounding box out of the normalized range or non-positive depth."""


# --- geometry --------------------------------------------------------------

class InvalidDepth(EngineError):
    """Depth must be a positive number of meters."""


# --- perception and file I/O ----------------------------------------------

class MisalignedInputs(EngineError):
    """Detections and depth samples must be the same length."""


class ParseError(EngineError):
    """A file or payload could not be parsed.

    Carries the offending field path and, for malformed JSON, the line.
    """

    def __init__(self, message: str, *, field: str | None = None, line: int | None = None):
        self.message = message
        self.field = field
        self.line = line
        where = []
        if field is not None:
            where.append(f"field {field!r}")
        if line is not None:
            where.append(f"line {line}")
        suffix = f" ({', '.join(where)})" if where else ""
        super().__init__(f"{message}{suffix}")

    def within(self, path: str) -> "ParseError":
        """The same error with its field path nested under ``path``; a list
        index such as ``[0]`` joins without a dot."""
        field = path
        if self.field:
            field += self.field if self.field.startswith("[") else f".{self.field}"
        return ParseError(self.message, field=field, line=self.line)


class SchemaVersionMismatch(EngineError):
    """File declares a schema version this engine does not speak."""

    def __init__(self, found: str | None, expected: str):
        self.found = found
        self.expected = expected
        super().__init__(f"expected schema {expected!r}, found {found!r}")


class BackendUnavailable(EngineError):
    """A remote backend could not be reached or answered unusably."""


# --- queries ---------------------------------------------------------------

class UnresolvedReference(EngineError):
    """A query referenced a node or structure that cannot be resolved."""


class CategoryParamMismatch(EngineError):
    """Query parameters do not match the shape its category requires."""


# --- brick structures ------------------------------------------------------

class InvalidStructure(EngineError):
    """Operation requires a violation-free structure."""

    def __init__(self, violations):
        self.violations = tuple(violations)
        listing = "; ".join(str(v) for v in self.violations) or "unspecified"
        super().__init__(f"invalid structure: {listing}")


class NonBrickNode(EngineError):
    """Graph node does not describe a brick."""


class SnapAmbiguity(EngineError):
    """A pose sits exactly between two stud cells and cannot be snapped."""


# --- assembly planning -----------------------------------------------------

class InvalidTarget(EngineError):
    """Planning requires a valid, canonical target structure."""


class ReplayViolation(EngineError):
    """A command in a plan produced an invalid structure when replayed."""

    def __init__(self, index: int, violations):
        self.index = index
        self.violations = tuple(violations)
        listing = "; ".join(str(v) for v in self.violations)
        super().__init__(f"command {index} violates structure rules: {listing}")


class GrammarError(EngineError):
    """Command text does not conform to the placement grammar."""

    def __init__(self, message: str, column: int):
        self.column = column
        super().__init__(f"{message} (column {column})")


# --- reasoning -------------------------------------------------------------

class ClaimGrammarError(EngineError):
    """A reasoning claim does not conform to the claim grammar."""


class PlanValidationFailure(EngineError):
    """Step validation rejected a command while reasoning over a plan."""

    def __init__(self, index: int, rule: str, claim: str = ""):
        self.index = index
        self.rule = rule
        self.claim = claim
        detail = f": {claim}" if claim else ""
        super().__init__(f"plan step {index} rejected ({rule}){detail}")
