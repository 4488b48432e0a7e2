"""Schema fuzzer: every readable file format, mutated one value at a time,
either loads or raises an EngineError; unmutated documents round-trip."""

from __future__ import annotations

import json
import math
from random import Random

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from espatial.bench import QaDataset, generate_dataset
from espatial.bricks import LegoStructure, random_structure
from espatial.config import EngineConfig
from espatial.errors import EngineError
from espatial.geometry import Thresholds
from espatial.perception import frame_from_dict, frame_to_dict, synth_scene
from espatial.query import QueryCategory, SpatialQuery, WorkspaceEnvelope
from espatial.scene import SceneGraph

_frame, _graph = synth_scene(7, 3)
_target = random_structure(Random(3), 3)

# schema -> (a valid document, its reader, its writer)
SCHEMAS = {
    "scene": (frame_to_dict(_frame), frame_from_dict, frame_to_dict),
    "graph": (_graph.to_dict(), SceneGraph.from_dict, SceneGraph.to_dict),
    "structure": (_target.to_dict(), LegoStructure.from_dict, LegoStructure.to_dict),
    "query": (
        SpatialQuery(QueryCategory.SUCCESS_JUDGMENT, "obj0", None, {"target": _target}).to_dict(),
        SpatialQuery.from_dict, SpatialQuery.to_dict,
    ),
    "dataset": (generate_dataset(5, 6).to_dict(), QaDataset.from_dict, QaDataset.to_dict),
    "config": (
        EngineConfig(Thresholds(tau_dir=0.1), WorkspaceEnvelope((0.1, 0.0, 0.2), 1.2, 0.05),
                     "remote", "http://127.0.0.1:9/", 3).to_dict(),
        EngineConfig.from_dict, EngineConfig.to_dict,
    ),
}

# one JSON value of each type, plus the non-finite numbers Python's json reads
OTHER_VALUES = [None, True, False, 0, -2, 12.9, 10**400, "", "0.9", "false", [], [1, "a"], {}, {"a": 1}]
NON_FINITE = [math.nan, math.inf, -math.inf]


def paths(doc, prefix=()):
    """Every path to a value below the document root."""
    items = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, value in items:
        yield prefix + (key,)
        yield from paths(value, prefix + (key,))


@st.composite
def mutated(draw, doc):
    doc = json.loads(json.dumps(doc))
    *parents, key = draw(st.sampled_from(list(paths(doc))))
    parent = doc
    for step in parents:
        parent = parent[step]
    action = draw(st.sampled_from(["drop", "replace", "non_finite"]))
    if action == "drop" and isinstance(parent, dict):
        del parent[key]
    elif action == "non_finite":
        parent[key] = draw(st.sampled_from(NON_FINITE))
    else:
        parent[key] = draw(st.sampled_from(OTHER_VALUES))
    return json.loads(json.dumps(doc))  # what a file holding it reads back as


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
def test_valid_document_round_trips(schema):
    doc, read, write = SCHEMAS[schema]
    assert write(read(json.loads(json.dumps(doc)))) == doc


@pytest.mark.parametrize("schema", sorted(SCHEMAS))
@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_mutated_document_loads_or_raises_engine_error(schema, data):
    doc, read, _ = SCHEMAS[schema]
    try:
        read(data.draw(mutated(doc)))
    except EngineError:
        pass
