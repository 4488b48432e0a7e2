"""The host's speed, measured by a fixed pure-Python reference kernel.

The benchmark shares a few cores of a host whose speed drifts by up to a
factor of two within seconds, and process CPU time drifts with it. So every
timed call is scaled by how fast the kernel ran just before and just after
it: ``scaled = seconds * REFERENCE_S / kernel_seconds``, a time "at
reference speed". The kernel imports nothing from espatial, so a change to
the program moves the scaled times exactly as much as the raw ones.

The kernel mixes what espatial spends its time on: small objects with
attribute access, float geometry over all pairs, tuple-keyed dicts, sorting,
f-strings and regex matching.
"""

from __future__ import annotations

import math
import re
from time import perf_counter

REFERENCE_S = 0.008  # about the kernel's time on an idle core of a 2-core x86-64 VM, Python 3.11
POINTS = 24
REPEAT = 8

_CLAIM = re.compile(r"^(\w+) is (left|right) of (\w+) by ([0-9.]+)$")


class _Point:
    __slots__ = ("name", "x", "y", "depth")

    def __init__(self, name, x, y, depth):
        self.name, self.x, self.y, self.depth = name, x, y, depth


def kernel() -> float:
    """A fixed amount of work; returns a checksum so none of it is skipped."""
    total = 0.0
    for r in range(REPEAT):
        points = [_Point(f"p{i}", (i * 37 + r) % 101 / 101, (i * 53) % 97 / 97, 0.5 + i % 7 * 0.3)
                  for i in range(POINTS)]
        edges = {}
        for i, a in enumerate(points):
            for b in points[i + 1:]:
                dx, dy = b.x - a.x, b.y - a.y
                kind = "left" if dx > 0 else "right"
                edges[(a.name, b.name, kind)] = round(math.hypot(dx, dy) + abs(a.depth - b.depth), 6)
        claims = [f"{s} is {k} of {o} by {m}" for (s, o, k), m in sorted(edges.items())]
        for claim in claims:
            match = _CLAIM.match(claim)
            total += float(match.group(4)) if match.group(2) == "left" else -float(match.group(4))
    return total


def kernel_seconds() -> float:
    start = perf_counter()
    kernel()
    return perf_counter() - start
