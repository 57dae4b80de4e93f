"""Command-line entry point: bench, episode, and genworld subcommands."""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from refquest.bench import (
    ENVIRONMENTS,
    FORMATS,
    SYSTEMS,
    BenchmarkSpec,
    emit_report,
    make_agent,
    run_benchmark,
    world_for,
)
from refquest.dialogue import MAX_QUESTIONS_DEFAULT, HumanOracle, run_episode
from refquest.world import load_world, serialize_world
from refquest.worlds import spacecraft_world


def _default_seed() -> int:
    raw = os.environ.get("REFQUEST_SEED", "0")
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"REFQUEST_SEED must be an integer, got {raw!r}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="refquest",
        description="Clarification-question simulation for situated reference resolution",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    bench = sub.add_parser("bench", help="run a benchmark and print a report")
    bench.add_argument("--env", required=True, choices=ENVIRONMENTS)
    bench.add_argument(
        "--systems",
        default=",".join(SYSTEMS),
        help="comma-separated subset of: " + ", ".join(SYSTEMS),
    )
    bench.add_argument("--iterations", type=int, default=BenchmarkSpec.iterations)
    bench.add_argument("--trials", type=int, default=BenchmarkSpec.trials,
                       help="entities per random world (spacecraft always uses its 18 tools"
                            " and refuses any other value than the default)")
    bench.add_argument("--seed", type=int, default=None, help="base seed (default REFQUEST_SEED or 0)")
    bench.add_argument("--format", choices=FORMATS, default="table")
    bench.add_argument("--out", type=Path, default=None, help="write report to a file instead of stdout")

    episode = sub.add_parser("episode", help="run a single resolution episode")
    episode.add_argument("--world", default="spacecraft",
                         help="'spacecraft' or a path to a world-config file")
    episode.add_argument("--target", required=True, help="entity id of the intended referent")
    episode.add_argument("--agent", default="model-entropy", choices=SYSTEMS)
    episode.add_argument("--oracle", default="sim", choices=("sim", "human"))
    episode.add_argument("--seed", type=int, default=None)
    episode.add_argument("--max-questions", type=int, default=MAX_QUESTIONS_DEFAULT)

    genworld = sub.add_parser("genworld", help="generate a random world config")
    genworld.add_argument("--variance", required=True, choices=("low", "high"))
    genworld.add_argument("--seed", type=int, default=None)
    genworld.add_argument("--entities", type=int, default=BenchmarkSpec.trials)
    genworld.add_argument("--out", type=Path, default=None)

    return parser


def _write(text: str, out: Path | None):
    # text is fully rendered before any write, so a failure never leaves
    # a partial file
    if out is None:
        sys.stdout.write(text)
    else:
        out.write_text(text, encoding="utf-8")


def _cmd_bench(args) -> int:
    systems = tuple(s.strip() for s in args.systems.split(",") if s.strip())
    spec = BenchmarkSpec(
        systems=systems,
        environment=args.env,
        iterations=args.iterations,
        trials=args.trials,
        base_seed=args.seed,
    )
    report = run_benchmark(spec)
    _write(emit_report(report, args.format), args.out)
    return 0


def _load_world_arg(name: str):
    if name == "spacecraft":
        return spacecraft_world()
    return load_world(Path(name).read_text(encoding="utf-8"))


def _cmd_episode(args) -> int:
    world = _load_world_arg(args.world)
    agent = make_agent(args.agent, args.seed)
    oracle = HumanOracle(world) if args.oracle == "human" else None
    interactive = args.oracle == "human"

    def on_turn(q, word):
        print(f"Q: {q.surface}")
        print(f"A: {word}")

    try:
        record = run_episode(
            world,
            args.target,
            agent,
            oracle=oracle,
            max_questions=args.max_questions,
            on_turn=None if interactive else on_turn,
        )
    except EOFError:
        print("refquest: error: input ended before the referent was resolved", file=sys.stderr)
        return 1
    summary = {
        "instruction": record.instruction_label,
        "target": record.target_id,
        "resolved": record.resolved_id,
        "question_count": record.question_count,
        "transcript": [
            {"question": q.surface, "type": q.type_name, "answer": word}
            for q, word in record.transcript
        ],
    }
    print(json.dumps(summary, indent=2))
    return 0


def _cmd_genworld(args) -> int:
    world = world_for(f"random-{args.variance}", args.seed, args.entities)
    _write(serialize_world(world), args.out)
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handlers = {"bench": _cmd_bench, "episode": _cmd_episode, "genworld": _cmd_genworld}
    try:
        if args.seed is None:
            args.seed = _default_seed()
        return handlers[args.command](args)
    except KeyboardInterrupt:
        print("interrupted", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"refquest: error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
