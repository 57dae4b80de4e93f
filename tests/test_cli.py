import json
from pathlib import Path

import pytest

import refquest.cli
from refquest.bench import SYSTEMS, BenchmarkSpec, make_agent
from refquest.cli import main
from refquest.dialogue import BaselineAgent
from refquest.world import load_world
from refquest.worlds import InfeasibleSpecError, RandomWorldSpec, generate_random_world

import reference
from checks import run_python


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_bench_spacecraft_table(capsys):
    code, out, err = run_cli(
        capsys, "bench", "--env", "spacecraft",
        "--systems", "model-entropy,model-data,baseline",
        "--seed", "7", "--iterations", "5",
    )
    assert code == 0
    assert "model-entropy" in out and "baseline" in out
    assert "**" in out  # best result bolded
    assert "M" in out and "SD" in out


def test_bench_missing_env_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bench"])
    assert exc.value.code == 2
    assert "--env" in capsys.readouterr().err


def test_bench_structured_deterministic(capsys, tmp_path):
    args = ["bench", "--env", "random-low", "--iterations", "3",
            "--seed", "5", "--format", "structured"]
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_bench_out_file(capsys, tmp_path):
    out_path = tmp_path / "report.csv"
    code, out, _ = run_cli(
        capsys, "bench", "--env", "spacecraft", "--systems", "model-entropy",
        "--iterations", "2", "--format", "delimited", "--out", str(out_path),
    )
    assert code == 0
    assert out == ""
    assert out_path.read_text().startswith("system,environment,")


def test_episode_sim(capsys):
    code, out, _ = run_cli(
        capsys, "episode", "--world", "spacecraft", "--target", "emitter_2",
        "--agent", "model-entropy",
    )
    assert code == 0
    assert "Q: " in out
    summary = json.loads(out[out.index("{"):])
    assert summary["resolved"] == "emitter_2"
    assert summary["question_count"] <= 3


def test_episode_on_a_world_file(capsys, tmp_path):
    path = tmp_path / "world.yaml"
    code, _, _ = run_cli(capsys, "genworld", "--variance", "high", "--seed", "3",
                         "--out", str(path))
    assert code == 0
    code, out, _ = run_cli(capsys, "episode", "--world", str(path), "--target", "e05")
    assert code == 0
    assert json.loads(out[out.index("{"):])["resolved"] == "e05"


def test_episode_on_a_deeply_nested_world_file_exits_1(tmp_path):
    # a recursive composer, such as libyaml's, would overflow the C stack on
    # this 60 KB file, so it loads in a child process that a crash cannot
    # take pytest down with
    path = tmp_path / "deep.yaml"
    path.write_text("[" * 30_000 + "]" * 30_000)
    proc = run_python("-m", "refquest.cli", "episode", "--world", str(path), "--target", "a",
                      timeout=60)
    assert (proc.returncode, proc.stderr) == (
        1, "refquest: error: world config nests deeper than 256 levels on line 1\n"
    )


def test_a_child_interpreter_keeps_the_callers_path(tmp_path, monkeypatch):
    # an interpreter may find PyYAML only on the caller's PYTHONPATH, so the
    # child keeps it, behind the source it is to import
    monkeypatch.setenv("PYTHONPATH", str(tmp_path))
    proc = run_python("-c", "import json, sys, refquest; print(json.dumps(sys.path))", timeout=30)
    assert (proc.returncode, proc.stderr) == (0, "")
    path = json.loads(proc.stdout)
    src = str(Path(refquest.cli.__file__).parents[1])
    assert path.index(src) < path.index(str(tmp_path))


def test_episode_human_oracle(capsys, monkeypatch):
    from refquest.worlds import spacecraft_world
    target = spacecraft_world().by_id("optimizer_3")

    def fake_input(prompt):
        prop = prompt.split()[1]
        return target.value(prop)

    monkeypatch.setattr("builtins.input", fake_input)
    code, out, _ = run_cli(capsys, "episode", "--world", "spacecraft",
                           "--target", "optimizer_3", "--oracle", "human")
    assert code == 0
    summary = json.loads(out[out.index("{"):])
    assert summary["resolved"] == "optimizer_3"


def test_episode_scripted_human_baseline_resolves_after_a_no(capsys, monkeypatch):
    # the CI step's script: at seed 5 the baseline asks "Is it +?" and then
    # "Is it medium?"; "maybe" is asked again
    replies = iter(["maybe", "no", "y"])
    monkeypatch.setattr("builtins.input", lambda prompt: next(replies))
    code, out, _ = run_cli(capsys, "episode", "--world", "spacecraft", "--target", "emitter_2",
                           "--agent", "baseline", "--oracle", "human", "--seed", "5")
    assert code == 0
    summary = json.loads(out[out.index("{"):])
    assert summary["resolved"] == "emitter_2"
    assert [t["answer"] for t in summary["transcript"]] == ["no", "yes"]


def test_episode_human_oracle_gives_a_value_written_with_a_trailing_space(
        capsys, monkeypatch, tmp_path):
    # the CI step's world: the reply is stripped, and so is the value it is matched to
    path = tmp_path / "spaced.yaml"
    path.write_text(
        "schema:\n- {name: color, values: ['red ', blue]}\n"
        "entities:\n"
        "- {id: a, label: block, type: block, assignment: {color: 'red '}}\n"
        "- {id: b, label: block, type: block, assignment: {color: blue}}\n"
    )
    replies = iter(["red"])
    monkeypatch.setattr("builtins.input", lambda prompt: next(replies))
    code, out, _ = run_cli(capsys, "episode", "--world", str(path), "--target", "a",
                           "--oracle", "human")
    assert code == 0
    summary = json.loads(out[out.index("{"):])
    assert summary["resolved"] == "a"
    assert [t["answer"] for t in summary["transcript"]] == ["red "]


def test_genworld_round_trips(capsys):
    code, out, _ = run_cli(capsys, "genworld", "--variance", "low", "--seed", "3")
    assert code == 0
    world = load_world(out)
    assert len(world.entities) == 20
    varying = [
        p for p in world.schema.names
        if len({e.value(p) for e in world.entities}) > 1
    ]
    assert len(varying) == 3


def test_genworld_high_variance(capsys):
    code, out, _ = run_cli(capsys, "genworld", "--variance", "high", "--seed", "3")
    world = load_world(out)
    varying = [
        p for p in world.schema.names
        if len({e.value(p) for e in world.entities}) > 1
    ]
    assert len(varying) >= 6


def test_genworld_seed_env_var(capsys, monkeypatch):
    monkeypatch.setenv("REFQUEST_SEED", "3")
    _, out_env, _ = run_cli(capsys, "genworld", "--variance", "low")
    _, out_flag, _ = run_cli(capsys, "genworld", "--variance", "low", "--seed", "3")
    assert out_env == out_flag


def test_genworld_seed_defaults_to_0(capsys, monkeypatch):
    monkeypatch.delenv("REFQUEST_SEED", raising=False)
    _, out_default, _ = run_cli(capsys, "genworld", "--variance", "low")
    _, out_0, _ = run_cli(capsys, "genworld", "--variance", "low", "--seed", "0")
    _, out_1, _ = run_cli(capsys, "genworld", "--variance", "low", "--seed", "1")
    assert out_default == out_0 != out_1


def test_every_seed_entry_refuses_a_negative_seed(capsys, monkeypatch):
    # random.Random seeds from abs(seed), so seed -1 would silently draw
    # what seed 1 draws; each entry refuses it in one message, raising the
    # type it raises for its other bad inputs
    refused = "seed must be 0 or more, got -1"
    entries = [
        (ValueError, lambda: BenchmarkSpec(base_seed=-1)),
        (InfeasibleSpecError, lambda: RandomWorldSpec(seed=-1).validate()),
        (InfeasibleSpecError, lambda: generate_random_world(RandomWorldSpec(seed=-1))),
        (InfeasibleSpecError, lambda: reference.random_world(RandomWorldSpec(seed=-1))),
        (ValueError, lambda: BaselineAgent(-1)),
        *((ValueError, lambda system=system: make_agent(system, -1)) for system in SYSTEMS),
    ]
    for error, enter in entries:
        with pytest.raises(error) as exc:
            enter()
        assert str(exc.value) == refused
    commands = [("bench", "--env", "spacecraft"), ("episode", "--target", "emitter_2"),
                ("genworld", "--variance", "low")]
    monkeypatch.delenv("REFQUEST_SEED", raising=False)
    for command in commands:
        assert run_cli(capsys, *command, "--seed", "-1") == (1, "", f"refquest: error: {refused}\n")
    monkeypatch.setenv("REFQUEST_SEED", "-1")
    for command in commands:
        assert run_cli(capsys, *command) == (1, "", f"refquest: error: {refused}\n")


def typed(text):
    """Stands in for input(): each call returns the next line of `text`,
    with the prompt unechoed, and once they run out raises EOFError, as
    input() does when stdin ends."""
    lines = iter(text.splitlines())

    def reply(prompt):
        for line in lines:
            return line
        raise EOFError

    return reply


# each refused command: (argv, environment, stdin or None, the one stderr
# line), under an id as `refusals` names its rows
REFUSED = {
    "test_bench_unknown_system_exits_1": (
        "bench --env spacecraft --systems oracle-cheat", {}, None,
        "unknown system 'oracle-cheat'; expected one of ('model-entropy', 'model-data',"
        " 'baseline')"),
    "test_bench_spacecraft_with_trials_exits_1": (
        "bench --env spacecraft --trials 3", {}, None,
        "trials sets the size of a random world; spacecraft always runs its 18 tools, so leave"
        " trials at 20, got 3"),
    "test_episode_unknown_target_exits_1": (
        "episode --world spacecraft --target flux_widget_9", {}, None,
        "no entity with id 'flux_widget_9'"),
    "test_episode_human_oracle_eof_exits_1": (
        "episode --world spacecraft --target optimizer_3 --oracle human", {}, "",
        "input ended before the referent was resolved"),
    "test_genworld_infeasible_exits_1": (
        "genworld --variance low --seed 1 --entities 100", {}, None,
        "4^3 < 100: not enough combinations for unique entities"),
    "test_non_integer_seed_env_var_exits_1": (
        "genworld --variance low", {"REFQUEST_SEED": "abc"}, None,
        "REFQUEST_SEED must be an integer, got 'abc'"),
}


@pytest.mark.parametrize("argv, env, stdin, line", list(REFUSED.values()), ids=list(REFUSED))
def test_refused_commands_exit_1_in_one_line(capsys, monkeypatch, argv, env, stdin, line):
    monkeypatch.delenv("REFQUEST_SEED", raising=False)
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    if stdin is not None:
        monkeypatch.setattr("builtins.input", typed(stdin))
    assert run_cli(capsys, *argv.split()) == (1, "", f"refquest: error: {line}\n")


def test_help_available(capsys):
    for sub in ("bench", "episode", "genworld"):
        with pytest.raises(SystemExit) as exc:
            main([sub, "--help"])
        assert exc.value.code == 0
        assert "usage" in capsys.readouterr().out
