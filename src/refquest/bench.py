"""Benchmark harness: systems x environments x iterations, with reports.

Each iteration builds one world (a fresh random world in the random
regimes; the fixed spacecraft layout otherwise), and every system runs
one episode per entity on that same world and records its mean question
count. Reported mean/SD are over the per-iteration means. Everything
derives deterministically from the base seed via a counter-based split,
so runs are reproducible and iterations are order-independent.

Model agents hold no state, so one agent per model system serves every
episode of a call: each world memoises its min-sets and model questions,
so a world's candidate set is solved once, whichever system or call asks.
Each iteration seeds one `BaselineAgent` from its own seed, split at
counter 0, and that agent runs every target of the iteration in world
order, its random stream running on from one episode to the next.
"""

from __future__ import annotations

import json
import math
import statistics
import sys
from dataclasses import dataclass, field

from refquest.dialogue import MAX_QUESTIONS_DEFAULT, BaselineAgent, ModelAgent, run_episode
from refquest.world import World
from refquest.worlds import RandomWorldSpec, check_seed, generate_random_world, spacecraft_world

SYSTEMS = ("model-entropy", "model-data", "baseline")
# varying properties (of RandomWorldSpec.n_properties) per random environment
_N_VARYING = {"random-low": 3, "random-high": 7}
ENVIRONMENTS = ("spacecraft", *_N_VARYING)

# Reference constant: mean questions per ambiguity resolution observed
# for human interlocutors in the source dialogue corpus. Reported for
# context in table footers; not reproducible here (the corpus itself is
# not shipped).
HUMAN_REFERENCE = {"mean": 1.72, "sd": 0.40}

@dataclass(frozen=True)
class BenchmarkSpec:
    systems: tuple[str, ...] = SYSTEMS
    environment: str = "spacecraft"
    iterations: int = 100
    # entity count for random worlds; spacecraft uses all 18 tools and
    # refuses any other count than this default, which it would ignore
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
        check_seed(self.base_seed)
        if min(self.iterations, self.trials) < 1:
            raise ValueError("iterations and trials must be at least 1")
        if self.environment == "spacecraft" and self.trials != RandomWorldSpec.n_entities:
            raise ValueError(f"trials sets the size of a random world; spacecraft always"
                             f" runs its 18 tools, so leave trials at"
                             f" {RandomWorldSpec.n_entities}, got {self.trials}")


@dataclass(frozen=True, slots=True)
class SystemResult:
    system: str
    iteration_means: tuple[float, ...] = field(hash=False)

    @property
    def mean(self) -> float:
        return statistics.fmean(self.iteration_means)

    @property
    def sd(self) -> float:
        """The sample SD over the iteration means, exact and correctly
        rounded: their variance in integers, over the least common
        denominator of their ratios, and its square root rounded once. So a
        report prints the same bytes on Python 3.10 to 3.13, though
        `statistics.stdev`'s last bit differs between 3.10 and 3.11. 0.0 for
        fewer than two means, and for equal means."""
        n = len(self.iteration_means)
        if n < 2:
            return 0.0
        ratios = [m.as_integer_ratio() for m in self.iteration_means]
        common = math.lcm(*[d for _, d in ratios])
        xs = [a * (common // d) for a, d in ratios]
        total = sum(xs)
        return _sqrt_of_ratio(n * sum([x * x for x in xs]) - total * total,
                              n * (n - 1) * common * common)


@dataclass(frozen=True, slots=True)
class BenchmarkReport:
    spec: BenchmarkSpec
    results: tuple[SystemResult, ...] = field(hash=False)
    total_episodes: int = 0

    def result(self, system: str) -> SystemResult:
        for r in self.results:
            if r.system == system:
                return r
        raise KeyError(system)


# Bits of the root that _sqrt_of_ratio rounds to odd before its one float
# rounding: enough for that rounding to be correct for a 53-bit mantissa.
_SQRT_BITS = 2 * sys.float_info.mant_dig + 3


def _sqrt_of_ratio(n: int, m: int) -> float:
    """The float nearest sqrt(n / m), for ints n >= 0 and m > 0: the root in
    _SQRT_BITS bits, its last bit set when the root is inexact (round to odd),
    so that dividing by a power of two rounds it once and correctly."""
    q = (n.bit_length() - m.bit_length() - _SQRT_BITS) // 2
    if q >= 0:
        m <<= 2 * q
    else:
        n <<= -2 * q
    root = math.isqrt(n // m)
    root |= root * root * m != n
    return float(root << q) if q >= 0 else root / (1 << -q)


def _split_seed(seed: int, counter: int) -> int:
    """Iteration seeds from the base seed, and an iteration's baseline seed
    (counter 0) from the iteration's."""
    return seed * 1_000_003 + counter  # prime multiplier


def make_agent(system: str, seed: int):
    """An agent for a system, which serves any number of episodes in turn;
    only the baseline reads `seed`, but every system refuses a negative one."""
    if system not in SYSTEMS:
        raise ValueError(f"unknown system {system!r}")
    check_seed(seed)
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
    models = {system: make_agent(system, 0) for system in spec.systems if system != "baseline"}
    total = 0
    for it in range(spec.iterations):
        it_seed = _split_seed(spec.base_seed, it)
        world = world_for(spec.environment, it_seed, spec.trials)
        for system, iteration_means in means.items():
            agent = models.get(system) or BaselineAgent(_split_seed(it_seed, 0))
            counts = [run_episode(world, e.id, agent).question_count for e in world.entities]
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
            _split_seed(report.spec.base_seed, i) for i in range(report.spec.iterations)
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
