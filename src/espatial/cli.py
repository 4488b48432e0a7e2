"""Command-line harness.

Subcommands: build-graph, query, plan, validate, bench, gen-dataset,
reassembly. Human summaries go to stdout; --out writes machine-readable
JSON. Exit codes: 0 success, 1 domain error, 2 usage error.
"""

from __future__ import annotations

import argparse
import logging
import sys

from . import __version__
from .bench import QaDataset, generate_dataset, run_bench, run_reassembly
from .bricks import LegoStructure, validate
from .config import EngineConfig, load_config
from .cot import ReasonPolicy, reason
from .errors import EngineError
from .jsonfile import read_json_object, write_json
from .perception import build_graph, load_graph, load_scene, save_graph
from .planner import plan, serialize_command
from .query import SpatialQuery, answer

logger = logging.getLogger(__name__)


def _engine_config(args) -> EngineConfig:
    if getattr(args, "config", None):
        return load_config(args.config)
    return EngineConfig()


def _cmd_build_graph(args) -> int:
    config = _engine_config(args)
    frame = load_scene(args.scene)
    prev = load_graph(args.prev) if args.prev else None
    graph = build_graph(frame.detections, frame.depths, prev, config.thresholds)
    print(f"graph t={graph.t} nodes={len(graph.nodes)} edges={len(graph.edges)}")
    if args.out:
        save_graph(graph, args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_query(args) -> int:
    config = _engine_config(args)
    graph = load_graph(args.graph)
    if args.question:
        result, trace = reason(
            args.question, graph, config.workspace,
            config.make_client(), ReasonPolicy(config.max_retries),
            thresholds=config.thresholds,
        )
        payload = trace.to_dict()
    else:
        query = SpatialQuery.from_dict(read_json_object(args.query))
        result = answer(query, graph, config.workspace, config.thresholds)
        payload = result.to_dict()
    print(f"value: {result.value}" + (f" {result.units}" if result.units else ""))
    for claim in result.trace:
        print(f"  - {claim.claim} [{', '.join(claim.refs)}]")
    if result.abstained:
        print(f"abstained: {result.error}")
    if args.out:
        write_json(args.out, payload)
    return 0


def _cmd_plan(args) -> int:
    target = LegoStructure.from_dict(read_json_object(args.target))
    assembly = plan(target)
    for command in assembly.commands:
        print(serialize_command(command))
    if args.out:
        write_json(args.out, assembly.to_dict())
    return 0


def _cmd_validate(args) -> int:
    structure = LegoStructure.from_dict(read_json_object(args.structure))
    violations = validate(structure)
    if not violations:
        print(f"ok: {len(structure.bricks)} bricks, no violations")
        return 0
    for violation in violations:
        print(str(violation))
    if args.out:
        write_json(args.out, {"violations": [str(v) for v in violations]})
    return 1


def _cmd_gen_dataset(args) -> int:
    config = _engine_config(args)
    dataset = generate_dataset(args.seed, args.n_items, config=config)
    dataset.save(args.out)
    print(f"wrote {args.out}: {len(dataset.items)} items, seed {args.seed}")
    return 0


def _cmd_bench(args) -> int:
    config = _engine_config(args)
    dataset = QaDataset.load(args.dataset)
    report = run_bench(dataset, config)
    for category, bucket in report.per_category.items():
        print(f"{category:>18}: {bucket['correct']}/{bucket['total']} = {bucket['accuracy']:.3f}")
    print(f"{'overall':>18}: {report.overall_accuracy:.3f} over {report.items} items "
          f"({report.wall_clock_s:.2f}s)")
    if args.out:
        report.save(args.out)
        print(f"wrote {args.out}")
    return 0


def _cmd_reassembly(args) -> int:
    config = _engine_config(args)
    result = run_reassembly(args.seed, max_bricks=args.max_bricks, config=config)
    print(f"seed {result.seed}: {result.n_bricks} bricks, "
          f"description_ok={result.description_ok} assembly_ok={result.assembly_ok}")
    if result.stage_failed:
        print(f"failed at stage {result.stage_failed}: {result.error}")
    if args.out:
        write_json(args.out, result.to_dict())
    return 0 if (result.description_ok and result.assembly_ok) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="espatial",
        description="Dynamic scene graph engine and spatial reasoning benchmark harness",
    )
    parser.add_argument("--version", action="version", version=f"espatial {__version__}")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--config", help="engine config JSON (thresholds, workspace, backend)")
        p.add_argument("--out", help="write machine-readable JSON here")

    p = sub.add_parser("build-graph", help="build a scene graph from a scene file")
    p.add_argument("--scene", required=True)
    p.add_argument("--prev", help="previous graph for identity matching; a new object never "
                                  "gets an id this graph holds")
    common(p)
    p.set_defaults(func=_cmd_build_graph)

    p = sub.add_parser("query", help="answer a structured query or a question")
    p.add_argument("--graph", required=True)
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--query", help="query JSON file")
    group.add_argument("--question", help="natural-language question")
    common(p)
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("plan", help="plan an assembly sequence for a structure")
    p.add_argument("--target", required=True)
    common(p)
    p.set_defaults(func=_cmd_plan)

    p = sub.add_parser("validate", help="check a structure against the physical rules")
    p.add_argument("--structure", required=True)
    common(p)
    p.set_defaults(func=_cmd_validate)

    p = sub.add_parser("gen-dataset", help="generate an oracle-labeled QA dataset")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--n-items", type=int, required=True)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_dataset)

    p = sub.add_parser("bench", help="run the benchmark and write a report")
    p.add_argument("--dataset", required=True)
    common(p)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("reassembly", help="run the end-to-end reassembly scenario")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--max-bricks", type=int, default=12)
    common(p)
    p.set_defaults(func=_cmd_reassembly)

    return parser


def cli_dispatch(argv: list[str]) -> int:
    parser = build_parser()
    if not argv:
        parser.print_usage(sys.stderr)
        return 2
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    if not getattr(args, "command", None):
        parser.print_usage(sys.stderr)
        return 2
    try:
        return args.func(args)
    except (EngineError, OSError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


def main() -> int:
    logging.basicConfig(level=logging.WARNING)
    return cli_dispatch(sys.argv[1:])


if __name__ == "__main__":
    sys.exit(main())
