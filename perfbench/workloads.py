"""The benchmark's workloads: seeded inputs and the units of work they run.

The program receives only inputs made here from the workload seed: a
BenchmarkSpec for `desk`, whose random worlds `run_benchmark` generates as
part of the code under test, and for `crowd` and `wide` world-config texts,
made with the stdlib alone and passed through `load_world`, so that a change
to the program's own generators cannot change what they measure.

A round is one pass over a workload's fixed plan of units. Every round of a
run repeats the same plan, so question counts are deterministic for a seed
and are checked to repeat exactly from round to round.
"""

from __future__ import annotations

import json
import random
import statistics
import time
from typing import NamedTuple

SYSTEMS = ("model-entropy", "model-data", "baseline")
# Enough budget for a question about every (property, value) of the widest
# world, so the random baseline can never run out of questions.
MAX_QUESTIONS = 100


class Outcome(NamedTuple):
    """One episode: its time, whether it resolved to its target, and how."""

    ns: int
    ok: bool
    questions: int
    system: str
    world_size: int


def crowd_world_yaml(seed: str, n: int, n_props: int, n_values: int) -> str:
    """A world-config document: `n` entities under one label, all `n_props`
    properties varying over `n_values` values, assignments unique."""
    rng = random.Random(seed)
    props = [f"p{i + 1:02d}" for i in range(n_props)]
    domains = {p: [f"{p}_v{j + 1}" for j in range(n_values)] for p in props}
    lines = ["schema:"]
    for p in props:
        lines.append(f"  - name: {p}")
        lines.append(f"    values: [{', '.join(domains[p])}]")
    lines.append("entities:")
    seen = set()
    for i in range(n):
        while True:
            row = tuple(rng.choice(domains[p]) for p in props)
            if row not in seen:
                seen.add(row)
                break
        assignment = ", ".join(f"{p}: {v}" for p, v in zip(props, row))
        lines.append(f"  - id: e{i + 1:03d}")
        lines.append("    label: crowd item")
        lines.append("    type: item")
        lines.append(f"    assignment: {{{assignment}}}")
    return "\n".join(lines) + "\n"


class Desk:
    """The paper's traffic: `run_benchmark` plus the structured report for
    all three environments and systems at default sizes."""

    name = "desk"
    iterations = 4  # per environment and system in one round

    def __init__(self, seed: int):
        self.seed = seed
        self.world_texts: list[str] = []
        self.means: dict[str, float] = {}  # "env/system" -> mean from own episodes
        self._sink: list[Outcome] = []

    def bind(self, worlds, problems: list[str]):
        """Wrap run_episode where refquest.bench looks it up, so that
        run_benchmark stays the code under test and every episode is
        timed and checked."""
        import refquest.bench as bench

        self._bench = bench
        self._problems = problems
        real = bench.run_episode

        def run_episode(world, target_id, agent, *args, **kwargs):
            t0 = time.perf_counter_ns()
            try:
                record = real(world, target_id, agent, *args, **kwargs)
            except Exception:
                self._sink.append(
                    Outcome(time.perf_counter_ns() - t0, False, 0, agent.name, len(world.entities))
                )
                raise
            ns = time.perf_counter_ns() - t0
            self._sink.append(
                Outcome(ns, record.resolved_id == target_id, record.question_count,
                        agent.name, len(world.entities))
            )
            return record

        bench.run_episode = run_episode

    def units(self):
        return [self._env_unit(env) for env in self._bench.ENVIRONMENTS]

    def _env_unit(self, env: str):
        bench = self._bench
        spec = bench.BenchmarkSpec(environment=env, iterations=self.iterations, base_seed=self.seed)

        def unit() -> list[Outcome]:
            self._sink = outcomes = []
            try:
                report = bench.run_benchmark(spec)
                text = bench.emit_report(report, "structured")
            except Exception as exc:  # the failing episode is already in outcomes
                self._problems.append(f"desk {env}: {type(exc).__name__}: {exc}")
                return outcomes
            self._check_means(env, outcomes, text)
            return outcomes

        return unit

    def _check_means(self, env: str, outcomes: list[Outcome], text: str):
        """The report's mean per system must equal the mean computed from
        the episodes the benchmark itself observed."""
        for r in json.loads(text)["results"]:
            counts = [o for o in outcomes if o.system == r["system"]]
            if not counts:
                self._problems.append(f"desk {env} {r['system']}: no episode reached the benchmark")
                continue
            size = counts[0].world_size
            chunks = [counts[i:i + size] for i in range(0, len(counts), size)]
            own = statistics.fmean(statistics.fmean(o.questions for o in c) for c in chunks)
            self.means[f"{env}/{r['system']}"] = own
            if own != r["mean"]:
                self._problems.append(
                    f"desk {env} {r['system']}: report mean {r['mean']!r} != episodes' mean {own!r}"
                )


class Crowd:
    """One label over many entities: a large candidate set that runs the
    O(k^2 P) clause build and the exact min-set solve on every turn.

    How long the exact search runs depends on where the first hitting
    subset lies in its enumeration, which differs from world to world by
    tens of percent, so each seed makes several worlds and the figures
    average over them.
    """

    name = "crowd"
    n_entities, n_props, n_values = 200, 10, 4
    n_worlds, targets_per_world = 8, 2  # each target is run by all three systems

    def __init__(self, seed: int):
        self.seed = seed
        self.world_texts = [
            crowd_world_yaml(f"{self.name}-{seed}-{w}", self.n_entities, self.n_props, self.n_values)
            for w in range(self.n_worlds)
        ]
        rng = random.Random(f"{self.name}-{seed}-targets")
        self.targets = [
            [f"e{i + 1:03d}" for i in rng.sample(range(self.n_entities), self.targets_per_world)]
            for _ in range(self.n_worlds)
        ]

    def bind(self, worlds, problems: list[str]):
        import refquest.dialogue as dialogue

        self._dialogue = dialogue
        self._worlds = worlds

    def units(self):
        units = []
        for world, targets in zip(self._worlds, self.targets):
            for target in targets:
                for system in SYSTEMS:
                    units.append(self._episode_unit(world, target, system, len(units)))
        return units

    def _episode_unit(self, world, target: str, system: str, agent_seed: int):
        dialogue = self._dialogue

        def unit() -> list[Outcome]:
            if system == "baseline":
                agent = dialogue.BaselineAgent(seed=self.seed * 1_000 + agent_seed)
            else:
                agent = dialogue.ModelAgent(policy=system.removeprefix("model-"))
            t0 = time.perf_counter_ns()
            try:
                record = dialogue.run_episode(world, target, agent, max_questions=MAX_QUESTIONS)
            except Exception:
                return [Outcome(time.perf_counter_ns() - t0, False, 0, system, len(world.entities))]
            ns = time.perf_counter_ns() - t0
            return [Outcome(ns, record.resolved_id == target, record.question_count,
                            system, len(world.entities))]

        return unit


class Wide(Crowd):
    """More varying properties than EXACT_LIMIT_DEFAULT, so the min-set of
    the first turns is solved by the greedy cover, not the exact search."""

    name = "wide"
    n_entities, n_props, n_values = 100, 20, 4
    n_worlds, targets_per_world = 4, 8


WORKLOADS = {w.name: w for w in (Desk, Crowd, Wide)}
