"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line (run pytest with -s or check captured output)."""

import itertools
import random
import time

import pytest

from refquest.belief import init_belief
from refquest.bench import BenchmarkSpec, emit_report, run_benchmark
from refquest.dialogue import BaselineAgent, ModelAgent, run_episode
from refquest.dnet import PropertyDistribution, wh_entropy, yn_expected_entropy
from refquest.minset import compute_min_set
from refquest.world import Entity, PropertySchema, World
from refquest.worlds import RandomWorldSpec, generate_random_world

BASE_SEED = 7


def criterion(n, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'}: criterion {n} - {detail}")
    assert ok, f"criterion {n}: {detail}"


@pytest.fixture(scope="module")
def reports():
    out = {}
    for env in ("spacecraft", "random-low", "random-high"):
        t0 = time.time()
        out[env] = run_benchmark(
            BenchmarkSpec(environment=env, iterations=100, base_seed=BASE_SEED)
        )
        out[env + ".elapsed"] = time.time() - t0
    return out


def test_criterion_1_spacecraft_model_efficiency(reports):
    rep = reports["spacecraft"]
    entropy, data = rep.result("model-entropy"), rep.result("model-data")
    elapsed = reports["spacecraft.elapsed"]
    ok = (
        abs(entropy.mean - 1.75) <= 0.25
        and abs(data.mean - 1.75) <= 0.25
        and entropy.sd == 0.0
        and data.sd == 0.0
        and elapsed < 5.0
    )
    criterion(
        1, ok,
        f"spacecraft model means {entropy.mean:.3f}/{data.mean:.3f} "
        f"(target 1.75 +/- 0.25), SDs {entropy.sd}/{data.sd} (must be 0), "
        f"runtime {elapsed:.2f}s (< 5s)",
    )


def test_criterion_2_spacecraft_baseline(reports):
    base = reports["spacecraft"].result("baseline")
    ok = abs(base.mean - 2.75) <= 0.6
    criterion(2, ok, f"spacecraft baseline mean {base.mean:.3f} (target 2.75 +/- 0.6)")


def test_criterion_3_random_low_variance(reports):
    rep = reports["random-low"]
    model, base = rep.result("model-entropy"), rep.result("baseline")
    elapsed = reports["random-low.elapsed"]
    ok = (
        abs(model.mean - 1.80) <= 0.35
        and abs(base.mean - 5.09) <= 1.2
        and base.mean / model.mean >= 2.0
        and elapsed < 30.0
    )
    criterion(
        3, ok,
        f"low variance: model {model.mean:.3f} (1.80 +/- 0.35), "
        f"baseline {base.mean:.3f} (5.09 +/- 1.2), "
        f"ratio {base.mean / model.mean:.2f} (>= 2.0), runtime {elapsed:.2f}s (< 30s)",
    )


def test_criterion_4_random_high_variance(reports):
    rep = reports["random-high"]
    model, base = rep.result("model-entropy"), rep.result("baseline")
    ok = abs(model.mean - 1.85) <= 0.35 and abs(base.mean - 2.66) <= 0.7
    criterion(
        4, ok,
        f"high variance: model {model.mean:.3f} (1.85 +/- 0.35), "
        f"baseline {base.mean:.3f} (2.66 +/- 0.7)",
    )


def test_criterion_5_ordering_properties(reports):
    checks = []
    for env in ("spacecraft", "random-low", "random-high"):
        rep = reports[env]
        checks.append(rep.result("model-entropy").mean < rep.result("baseline").mean)
        checks.append(rep.result("model-data").mean < rep.result("baseline").mean)
    checks.append(
        reports["random-low"].result("baseline").mean
        > reports["random-high"].result("baseline").mean
    )
    for env in ("random-low", "random-high"):
        rep = reports[env]
        checks.append(
            rep.result("model-entropy").mean <= rep.result("model-data").mean
        )
    criterion(5, all(checks), f"ordering checks {checks}")


def test_criterion_6_minset_oracle_equivalence():
    def brute_force_min_size(entities, names):
        for r in range(0, len(names) + 1):
            for subset in itertools.combinations(names, r):
                proj = [tuple(e.value(p) for p in subset) for e in entities]
                if len(set(proj)) == len(proj):
                    return r
        raise AssertionError

    rng = random.Random(101)
    t0 = time.time()
    agree = 0
    total = 0
    while total < 500:
        n_props = rng.randint(2, 5)
        n_ents = rng.randint(2, 6)
        schema = PropertySchema(
            tuple((f"p{i}", ("a", "b", "c")) for i in range(n_props))
        )
        seen, ents = set(), []
        for i in range(n_ents):
            a = {p: rng.choice("abc") for p in schema.names}
            key = tuple(a.values())
            if key in seen:
                continue
            seen.add(key)
            ents.append(Entity(f"e{i}", "w", "w", a))
        if len(ents) < 2:
            continue
        total += 1
        result = compute_min_set(World(schema, tuple(ents)), (1 << len(ents)) - 1)
        if len(result) == brute_force_min_size(ents, schema.names):
            agree += 1
    elapsed = time.time() - t0
    ok = agree == total == 500 and elapsed < 10.0
    criterion(6, ok, f"minset vs brute force: {agree}/{total} agree, {elapsed:.2f}s (< 10s)")


def test_criterion_7_entropy_units():
    checks = [
        abs(wh_entropy(PropertyDistribution("p", {"a": 0.25, "b": 0.25, "c": 0.25, "d": 0.25})) - 2.0) < 1e-9,
        wh_entropy(PropertyDistribution("p", {"red": 1.0})) == 0.0,
        abs(wh_entropy(PropertyDistribution("p", {"red": 2 / 3, "blue": 1 / 3})) - 0.9182958340544896) < 1e-9,
        abs(yn_expected_entropy(PropertyDistribution("p", {"a": 0.5, "b": 0.5})) - 1.0) < 1e-9,
        abs(yn_expected_entropy(PropertyDistribution("p", {"a": 0.25, "b": 0.25, "c": 0.25, "d": 0.25})) - 0.8112781244591328) < 1e-9,
        yn_expected_entropy(PropertyDistribution("p", {"a": 1.0})) == 0.0,
    ]
    rng = random.Random(77)
    dominated = 0
    for _ in range(10_000):
        n = rng.randint(1, 8)
        weights = [rng.random() + 1e-9 for _ in range(n)]
        s = sum(weights)
        d = PropertyDistribution("p", {f"v{i}": w / s for i, w in enumerate(weights)})
        if yn_expected_entropy(d) <= wh_entropy(d) + 1e-12:
            dominated += 1
    checks.append(dominated == 10_000)
    criterion(
        7, all(checks),
        f"entropy examples to 1e-9 and yn<=wh on {dominated}/10000 random distributions",
    )


def test_criterion_8_episode_safety():
    rng = random.Random(55)
    episodes = 0
    resolved = 0
    wh_bound_ok = True
    while episodes < 10_000:
        spec = RandomWorldSpec(
            n_entities=rng.randint(6, 16),
            n_properties=rng.randint(3, 7),
            n_varying=rng.randint(2, 3),
            values_per_property=rng.randint(3, 5),
            group_size=rng.randint(2, 8),
            seed=rng.getrandbits(32),
        )
        try:
            spec.validate()
        except Exception:
            continue
        world = generate_random_world(spec)
        for e in world.entities:
            if episodes >= 10_000:
                break
            kind = episodes % 3
            if kind == 0:
                agent = ModelAgent()
            elif kind == 1:
                agent = ModelAgent(policy="data")
            else:
                agent = BaselineAgent(seed=rng.getrandbits(32))
            belief = init_belief(world, e.label)
            bound = len(compute_min_set(world, belief.mask))
            # raises on any contradiction or budget overrun
            record = run_episode(world, e.id, agent)
            episodes += 1
            if record.resolved_id == e.id:
                resolved += 1
            if kind != 2:
                wh = sum(1 for q, _ in record.transcript if q.kind == "wh")
                if wh > bound:
                    wh_bound_ok = False
    ok = resolved == episodes == 10_000 and wh_bound_ok
    criterion(
        8, ok,
        f"{episodes} episodes, {resolved} resolved correctly, zero contradictions "
        f"or budget overruns, model WH counts within initial minset bound: {wh_bound_ok}",
    )


def test_criterion_9_reproducibility():
    ok = True
    for env in ("spacecraft", "random-low"):
        spec = BenchmarkSpec(environment=env, iterations=5, base_seed=31)
        a = emit_report(run_benchmark(spec), "structured")
        b = emit_report(run_benchmark(spec), "structured")
        ok = ok and a == b and a.encode() == b.encode()
    criterion(9, ok, "byte-identical structured reports for identical specs")
