import dataclasses
import hashlib

import pytest

import refquest.bench
import refquest.dialogue
import refquest.dnet
from refquest.bench import BenchmarkSpec, emit_report, run_benchmark
from refquest.worlds import spacecraft_world


def small_spec(**overrides):
    base = dict(environment="spacecraft", iterations=3, base_seed=11)
    base.update(overrides)
    return BenchmarkSpec(**base)


def test_spec_validation():
    with pytest.raises(ValueError):
        BenchmarkSpec(systems=())
    with pytest.raises(ValueError):
        BenchmarkSpec(systems=("warp-drive",))
    with pytest.raises(ValueError):
        BenchmarkSpec(environment="moonbase")
    with pytest.raises(ValueError):
        BenchmarkSpec(iterations=0)
    with pytest.raises(ValueError, match="duplicate systems"):
        BenchmarkSpec(systems=("model-entropy", "model-entropy"))


def test_report_counts_episodes():
    report = run_benchmark(small_spec(systems=("model-entropy",)))
    assert report.total_episodes == 3 * 18  # spacecraft has 18 tools


def test_model_sd_zero_on_fixed_world():
    report = run_benchmark(small_spec(systems=("model-entropy", "model-data")))
    for r in report.results:
        assert r.sd == 0.0


def test_reproducible_structured_report():
    a = emit_report(run_benchmark(small_spec()), "structured")
    b = emit_report(run_benchmark(small_spec()), "structured")
    assert a == b
    c = emit_report(run_benchmark(small_spec(base_seed=12)), "structured")
    assert a != c


# sha256 of the structured report at iterations=10, seed 7; a refactor that
# keeps behaviour keeps these bytes
REPORT_SHA256 = {
    "spacecraft": "2eaa1114ccd3ed539d0fd9490f852a1afff6528f7e9fd73705ad35f6e4bce2fc",
    "random-low": "7e2eb09aa687dc7e5571f4024db00eba76e630a20e8f4b5e162277938d99e2e0",
    "random-high": "5c81ee9271f137d788a90fed2fa3e52bbff15ddb113e6cac76a6676cc7b21038",
}


@pytest.mark.parametrize("environment", sorted(REPORT_SHA256))
def test_structured_report_bytes_are_pinned(environment):
    spec = BenchmarkSpec(environment=environment, iterations=10, base_seed=7)
    report = emit_report(run_benchmark(spec), "structured")
    assert hashlib.sha256(report.encode()).hexdigest() == REPORT_SHA256[environment]


def test_delimited_format():
    report = run_benchmark(small_spec(systems=("baseline",)))
    lines = emit_report(report, "delimited").splitlines()
    assert lines[0] == "system,environment,mean_questions,sd,iterations,trials,base_seed"
    fields = lines[1].split(",")
    assert fields[0] == "baseline" and fields[1] == "spacecraft"
    assert float(fields[2]) > 1


def test_table_format_bolds_minimum():
    report = run_benchmark(small_spec())
    text = emit_report(report, "table")
    assert text.count("**") == 4  # entropy and data tie at the minimum
    assert "1.72" in text  # human reference footnote


def test_unknown_format_rejected():
    report = run_benchmark(small_spec(systems=("model-entropy",)))
    with pytest.raises(ValueError):
        emit_report(report, "pdf")


def test_random_environment_uses_fresh_world_per_iteration():
    report = run_benchmark(
        BenchmarkSpec(systems=("baseline",), environment="random-low",
                      iterations=4, base_seed=2)
    )
    means = report.result("baseline").iteration_means
    assert len(set(means)) > 1


def test_trials_flag_controls_random_world_size():
    report = run_benchmark(
        BenchmarkSpec(systems=("model-entropy",), environment="random-high",
                      iterations=2, trials=6, base_seed=2)
    )
    assert report.total_episodes == 12


def test_every_system_shares_each_iteration_world(monkeypatch):
    generated = []
    real = refquest.bench.generate_random_world

    def counting(spec):
        generated.append(spec.seed)
        return real(spec)

    monkeypatch.setattr(refquest.bench, "generate_random_world", counting)
    report = run_benchmark(BenchmarkSpec(environment="random-low", iterations=3, base_seed=5))
    assert len(generated) == 3
    assert len(set(generated)) == 3
    assert report.total_episodes == 3 * 3 * 20


@pytest.fixture
def networks(monkeypatch):
    """Every (world, policy, candidate mask) a model agent builds a network for;
    holding the worlds keeps their ids distinct."""
    built = []
    real = refquest.dialogue.build_network

    def recording(belief, policy):
        built.append((belief.world, policy, belief.mask))
        return real(belief, policy)

    monkeypatch.setattr(refquest.dialogue, "build_network", recording)
    return built


def test_each_network_is_built_once_per_call(networks):
    run_benchmark(BenchmarkSpec(environment="random-high", iterations=3, base_seed=7))
    assert len(networks) == len({(id(w), policy, c) for w, policy, c in networks})


def test_each_candidate_set_is_solved_once(networks, monkeypatch):
    # both model systems share each world's min-sets, so fewer solves than networks
    solved = []
    real = refquest.dnet.compute_min_set

    def recording(world, mask):
        solved.append((world, mask))
        return real(world, mask)

    monkeypatch.setattr(refquest.dnet, "compute_min_set", recording)
    run_benchmark(BenchmarkSpec(environment="random-high", iterations=3, base_seed=7))
    assert len(solved) == len({(id(w), mask) for w, mask in solved}) < len(networks)


def test_spacecraft_networks_do_not_grow_with_iterations(networks, monkeypatch):
    # an equal world with a cold memo, not the cached one other tests have warmed
    world = dataclasses.replace(spacecraft_world())
    monkeypatch.setattr(refquest.bench, "spacecraft_world", lambda: world)
    run_benchmark(small_spec(iterations=1))
    assert len(networks) == 24  # both model systems together
    run_benchmark(small_spec(iterations=10))
    run_benchmark(small_spec())
    assert len(networks) == 24  # the world's memo serves every later call


@pytest.mark.parametrize("build, message", [
    (lambda: refquest.bench.make_agent("warp-drive", 0), "unknown system 'warp-drive'"),
    (lambda: refquest.bench.world_for("moonbase", 0, 20),
     "unknown environment 'moonbase'; expected one of "
     "('spacecraft', 'random-low', 'random-high')"),
], ids=["make_agent", "world_for"])
def test_unknown_names_rejected(build, message):
    with pytest.raises(ValueError) as exc:
        build()
    assert str(exc.value) == message


def test_one_iteration_has_zero_sd():
    report = run_benchmark(small_spec(environment="random-low", iterations=1))
    assert [r.sd for r in report.results] == [0.0] * 3


def test_agent_names_are_their_systems():
    # perfbench groups the episodes it times by agent.name
    systems = refquest.bench.SYSTEMS
    assert tuple(refquest.bench.make_agent(s, 0).name for s in systems) == systems
