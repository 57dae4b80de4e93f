"""Benchmark harness: systems x environments x iterations, with reports.

Each iteration runs one episode per entity in the world (fresh random
world per iteration in the random regimes; the fixed spacecraft layout
otherwise) and records the mean question count. Reported mean/SD are
over the per-iteration means. Everything derives deterministically from
the base seed via a counter-based split, so runs are reproducible and
iterations are order-independent.
"""

from __future__ import annotations

import json
import statistics
from dataclasses import dataclass, field, replace

from refquest.dialogue import BaselineAgent, ModelAgent, run_episode
from refquest.worlds import (
    generate_random_world,
    high_variance_spec,
    low_variance_spec,
    spacecraft_world,
)

SYSTEMS = ("model-entropy", "model-data", "baseline")
ENVIRONMENTS = ("spacecraft", "random-low", "random-high")

# Reference constant: mean questions per ambiguity resolution observed
# for human interlocutors in the source dialogue corpus. Reported for
# context in table footers; not reproducible here (the corpus itself is
# not shipped).
HUMAN_REFERENCE = {"mean": 1.72, "sd": 0.40}

_SPLIT = 1_000_003  # prime multiplier for the counter-based seed split


class InsufficientSampleError(Exception):
    """Too few observations (or zero variance throughout) for a t statistic."""


@dataclass(frozen=True)
class BenchmarkSpec:
    systems: tuple[str, ...] = SYSTEMS
    environment: str = "spacecraft"
    iterations: int = 100
    trials: int = 20  # entity count for random worlds; spacecraft uses all 18 tools
    base_seed: int = 0
    max_questions: int = 50

    def validate(self):
        if not self.systems:
            raise ValueError("at least one system required")
        for s in self.systems:
            if s not in SYSTEMS:
                raise ValueError(f"unknown system {s!r}; expected one of {SYSTEMS}")
        if self.environment not in ENVIRONMENTS:
            raise ValueError(
                f"unknown environment {self.environment!r}; expected one of {ENVIRONMENTS}"
            )
        if min(self.iterations, self.trials) < 1:
            raise ValueError("iterations and trials must be at least 1")


@dataclass(frozen=True)
class SystemResult:
    system: str
    environment: str
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


def _make_agent(system: str, episode_seed: int):
    if system == "model-entropy":
        return ModelAgent(policy="entropy")
    if system == "model-data":
        return ModelAgent(policy="data")
    if system == "baseline":
        return BaselineAgent(seed=episode_seed)
    raise ValueError(f"unknown system {system!r}")


def _world_for(spec: BenchmarkSpec, iteration_seed: int):
    if spec.environment == "spacecraft":
        return spacecraft_world()
    if spec.environment == "random-low":
        template = low_variance_spec(iteration_seed)
    else:
        template = high_variance_spec(iteration_seed)
    if spec.trials != template.n_entities:
        template = replace(template, n_entities=spec.trials)
    return generate_random_world(template)


def run_benchmark(spec: BenchmarkSpec) -> BenchmarkReport:
    spec.validate()
    results = []
    total = 0
    for system in spec.systems:
        iteration_means = []
        for it in range(spec.iterations):
            it_seed = _iteration_seed(spec.base_seed, it)
            world = _world_for(spec, it_seed)
            counts = []
            for t, entity in enumerate(world.entities):
                agent = _make_agent(system, it_seed * _SPLIT + t)
                record = run_episode(
                    world, entity.id, agent, max_questions=spec.max_questions
                )
                counts.append(record.question_count)
                total += 1
            iteration_means.append(statistics.fmean(counts))
        results.append(
            SystemResult(
                system=system,
                environment=spec.environment,
                iteration_means=tuple(iteration_means),
            )
        )
    return BenchmarkReport(spec=spec, results=tuple(results), total_episodes=total)


def welch_t(sample_a, sample_b) -> tuple[float, float]:
    """Welch's t statistic and degrees of freedom for two samples."""
    if len(sample_a) < 2 or len(sample_b) < 2:
        raise InsufficientSampleError("need at least 2 observations per sample")
    ma, mb = statistics.fmean(sample_a), statistics.fmean(sample_b)
    va, vb = statistics.variance(sample_a), statistics.variance(sample_b)
    na, nb = len(sample_a), len(sample_b)
    if va == 0 and vb == 0:
        if ma == mb:
            return 0.0, float(na + nb - 2)
        raise InsufficientSampleError("zero variance in both samples with unequal means")
    se2 = va / na + vb / nb
    t = (ma - mb) / se2 ** 0.5
    df = se2 ** 2 / ((va / na) ** 2 / (na - 1) + (vb / nb) ** 2 / (nb - 1))
    return t, df


def emit_report(report: BenchmarkReport, fmt: str = "table") -> str:
    if fmt == "table":
        return _emit_table(report)
    if fmt == "delimited":
        return _emit_delimited(report)
    if fmt == "structured":
        return _emit_structured(report)
    raise ValueError(f"unknown report format {fmt!r}")


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
            f"{r.system},{r.environment},{r.mean:.6f},{r.sd:.6f},"
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
            "max_questions": report.spec.max_questions,
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
                "environment": r.environment,
                "mean": r.mean,
                "sd": r.sd,
                "iteration_means": list(r.iteration_means),
            }
            for r in report.results
        ],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def load_structured_report(text: str) -> BenchmarkReport:
    """Rebuild a BenchmarkReport from its structured (JSON) form."""
    doc = json.loads(text)
    spec = BenchmarkSpec(
        systems=tuple(doc["spec"]["systems"]),
        environment=doc["spec"]["environment"],
        iterations=doc["spec"]["iterations"],
        trials=doc["spec"]["trials"],
        base_seed=doc["spec"]["base_seed"],
        max_questions=doc["spec"]["max_questions"],
    )
    results = tuple(
        SystemResult(
            system=r["system"],
            environment=r["environment"],
            iteration_means=tuple(r["iteration_means"]),
        )
        for r in doc["results"]
    )
    return BenchmarkReport(spec=spec, results=results, total_episodes=doc["total_episodes"])
