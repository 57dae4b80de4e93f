"""Benchmark harness: systems x environments x iterations, with reports.

Each iteration builds one world (a fresh random world in the random
regimes; the fixed spacecraft layout otherwise), and every system runs
one episode per entity on that same world and records its mean question
count. Reported mean/SD are over the per-iteration means. Everything
derives deterministically from the base seed via a counter-based split,
so runs are reproducible and iterations are order-independent.

Every episode gets a fresh agent from `make_agent`. Model agents hold no
state: each world memoises its min-sets and model questions, so a world's
candidate set is solved once, whichever system or call asks.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field

from refquest.dialogue import MAX_QUESTIONS_DEFAULT, BaselineAgent, ModelAgent, run_episode
from refquest.world import World
from refquest.worlds import RandomWorldSpec, generate_random_world, spacecraft_world

SYSTEMS = ("model-entropy", "model-data", "baseline")
# varying properties (of RandomWorldSpec.n_properties) per random environment
_N_VARYING = {"random-low": 3, "random-high": 7}
ENVIRONMENTS = ("spacecraft", *_N_VARYING)

# Reference constant: mean questions per ambiguity resolution observed
# for human interlocutors in the source dialogue corpus. Reported for
# context in table footers; not reproducible here (the corpus itself is
# not shipped).
HUMAN_REFERENCE = {"mean": 1.72, "sd": 0.40}

_SPLIT = 1_000_003  # prime multiplier for the counter-based seed split


@dataclass(frozen=True)
class BenchmarkSpec:
    systems: tuple[str, ...] = SYSTEMS
    environment: str = "spacecraft"
    iterations: int = 100
    # entity count for random worlds; spacecraft uses all 18 tools
    trials: int = RandomWorldSpec.n_entities
    base_seed: int = 0

    def __post_init__(self):
        if not self.systems:
            raise ValueError("at least one system required")
        for s in self.systems:
            if s not in SYSTEMS:
                raise ValueError(f"unknown system {s!r}; expected one of {SYSTEMS}")
        if len(set(self.systems)) != len(self.systems):
            raise ValueError(f"duplicate systems in {self.systems}")
        if self.environment not in ENVIRONMENTS:
            raise ValueError(
                f"unknown environment {self.environment!r}; expected one of {ENVIRONMENTS}"
            )
        if min(self.iterations, self.trials) < 1:
            raise ValueError("iterations and trials must be at least 1")


@dataclass(frozen=True)
class SystemResult:
    system: str
    iteration_means: tuple[float, ...] = field(hash=False)

    @property
    def mean(self) -> float:
        return statistics.fmean(self.iteration_means)

    @property
    def sd(self) -> float:
        if len(self.iteration_means) < 2:
            return 0.0
        return statistics.stdev(self.iteration_means)


@dataclass(frozen=True)
class BenchmarkReport:
    spec: BenchmarkSpec
    results: tuple[SystemResult, ...] = field(hash=False)
    total_episodes: int = 0

    def result(self, system: str) -> SystemResult:
        for r in self.results:
            if r.system == system:
                return r
        raise KeyError(system)


def _iteration_seed(base_seed: int, iteration: int) -> int:
    return base_seed * _SPLIT + iteration


def make_agent(system: str, seed: int):
    """A fresh agent for a system; only the baseline reads `seed`."""
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}")
    if system == "baseline":
        return BaselineAgent(seed=seed)
    return ModelAgent(policy=system.removeprefix("model-"))  # the inverse of ModelAgent.name


def world_for(environment: str, seed: int, n_entities: int) -> World:
    """The world an environment presents at a seed: the fixed spacecraft
    layout, or a random world of `n_entities` entities."""
    if environment == "spacecraft":
        return spacecraft_world()
    if environment not in _N_VARYING:
        raise ValueError(f"unknown environment {environment!r}; expected one of {ENVIRONMENTS}")
    return generate_random_world(
        RandomWorldSpec(n_entities=n_entities, n_varying=_N_VARYING[environment], seed=seed)
    )


def run_benchmark(spec: BenchmarkSpec) -> BenchmarkReport:
    means: dict[str, list[float]] = {system: [] for system in spec.systems}
    total = 0
    for it in range(spec.iterations):
        it_seed = _iteration_seed(spec.base_seed, it)
        world = world_for(spec.environment, it_seed, spec.trials)
        for system, iteration_means in means.items():
            counts = []
            for t, entity in enumerate(world.entities):
                agent = make_agent(system, it_seed * _SPLIT + t)
                record = run_episode(world, entity.id, agent)
                counts.append(record.question_count)
            total += len(counts)
            iteration_means.append(statistics.fmean(counts))
    results = tuple(
        SystemResult(system, tuple(iteration_means))
        for system, iteration_means in means.items()
    )
    return BenchmarkReport(spec=spec, results=results, total_episodes=total)


def emit_report(report: BenchmarkReport, fmt: str = "table") -> str:
    if fmt not in FORMATS:
        raise ValueError(f"unknown report format {fmt!r}")
    return FORMATS[fmt](report)


def _emit_table(report: BenchmarkReport) -> str:
    # minimum mean per environment rendered in **bold**
    lines = []
    lines.append(f"environment: {report.spec.environment}")
    lines.append(
        f"iterations: {report.spec.iterations}  episodes: {report.total_episodes}"
        f"  base_seed: {report.spec.base_seed}"
    )
    lines.append(f"{'system':<16}{'M':>10}{'SD':>10}")
    best = min(r.mean for r in report.results)
    for r in report.results:
        mean = f"**{r.mean:.2f}**" if r.mean == best else f"{r.mean:.2f}"
        lines.append(f"{r.system:<16}{mean:>10}{r.sd:>10.2f}")
    lines.append(
        f"(reference: humans in the source corpus averaged "
        f"{HUMAN_REFERENCE['mean']:.2f} +/- {HUMAN_REFERENCE['sd']:.2f} "
        f"questions per instruction; SD over iteration means)"
    )
    return "\n".join(lines) + "\n"


def _emit_delimited(report: BenchmarkReport) -> str:
    lines = ["system,environment,mean_questions,sd,iterations,trials,base_seed"]
    for r in report.results:
        lines.append(
            f"{r.system},{report.spec.environment},{r.mean:.6f},{r.sd:.6f},"
            f"{report.spec.iterations},{report.spec.trials},{report.spec.base_seed}"
        )
    return "\n".join(lines) + "\n"


def _emit_structured(report: BenchmarkReport) -> str:
    doc = {
        "spec": {
            "systems": list(report.spec.systems),
            "environment": report.spec.environment,
            "iterations": report.spec.iterations,
            "trials": report.spec.trials,
            "base_seed": report.spec.base_seed,
            "max_questions": MAX_QUESTIONS_DEFAULT,
        },
        "sd_convention": "sample SD over per-iteration means",
        "human_reference": HUMAN_REFERENCE,
        "total_episodes": report.total_episodes,
        "iteration_seeds": [
            _iteration_seed(report.spec.base_seed, i) for i in range(report.spec.iterations)
        ],
        "results": [
            {
                "system": r.system,
                "environment": report.spec.environment,
                "mean": r.mean,
                "sd": r.sd,
                "iteration_means": list(r.iteration_means),
            }
            for r in report.results
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


FORMATS = {"table": _emit_table, "delimited": _emit_delimited, "structured": _emit_structured}
