"""refquest benchmark: closed-loop, single-process, stdlib only.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload desk|crowd|wide --seed N --seconds S --trace 0|1

One caller runs each workload's units of work back to back; a unit starts
only after the previous one has returned. The program is imported from
`src/` of the checkout and receives only the inputs the benchmark generates
from `--seed`. Every episode is checked to resolve to its target, and its
question count to repeat exactly in every round.

`--trace 0` measures the end-to-end metrics with tracing off. `--trace 1`
is a separate run that wraps each layer's public functions (see tracer.py)
and reports the per-layer metrics, including the tracing overhead. Both
print every metric by name and unit, then, as the last line of standard
output, one JSON object with `correct`, `attempted`, `failed` and
`metrics`. A fuller record, with raw (uncalibrated) times and sample
counts, is written to `perfbench/out/`.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

from calibrate import Calibrator, Unit, calibration_s, scale
from tracer import MINSET_SPANS, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120


def declared_units(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this kind of run."""
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        sys.exit(f"perfbench: {path} is missing")
    spec = json.loads(path.read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def locate_program():
    """Put the checkout's `src/` first on the import path, or stop."""
    if not (SRC / "refquest" / "__init__.py").is_file():
        sys.exit(f"perfbench: no refquest package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import refquest

    if Path(refquest.__file__).resolve().parent != SRC / "refquest":
        sys.exit(f"perfbench: imported refquest from {refquest.__file__}, not from {SRC}")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


# -- set-up -------------------------------------------------------------------


def measure_setup(workload: str, seed: int) -> tuple[list[float], list[float]]:
    """Cold set-ups in fresh interpreters: (calibrated s, raw s) per probe."""

    calibrated, raw = [], []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
            capture_output=True, text=True, timeout=PROBE_TIMEOUT_S, cwd=ROOT,
        )
        if proc.returncode != 0:
            sys.exit(f"perfbench: set-up probe failed:\n{proc.stderr}")
        probe = json.loads(proc.stdout.splitlines()[-1])
        ns, cal = probe["ns"], probe["cal"]
        raw.append(sum(ns) / 1e9)
        calibrated.append(
            sum(n * scale((cal[i] + cal[i + 1]) / 2) for i, n in enumerate(ns)) / 1e9
        )
    return calibrated, raw


def set_up_in_process(workload):
    import refquest.world
    import refquest.worlds

    refquest.worlds.spacecraft_world()
    return [refquest.world.load_world(text) for text in workload.world_texts]


# -- rounds -------------------------------------------------------------------


class Checker:
    """Counts attempted and failed episodes and checks that each unit's
    question counts repeat exactly from round to round."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        self.attempted = 0
        self.failed = 0
        self.repeated = True
        self.reference: list[tuple[int, ...]] | None = None

    def round(self, units) -> None:
        counts = []
        for unit in units:
            self.attempted += len(unit.episodes)
            self.failed += sum(1 for o in unit.episodes if not o.ok)
            counts.append(tuple(o.questions for o in unit.episodes))
        if self.reference is None:
            self.reference = counts
        elif counts != self.reference and self.repeated:
            self.repeated = False
            self.problems.append("question counts did not repeat between rounds of one plan")


def run_round(plan, calibrator):

    done = []
    for work in plan:
        t0 = time.perf_counter_ns()
        episodes = work()
        unit = Unit(time.perf_counter_ns() - t0, episodes)
        calibrator.add(unit)
        done.append(unit)
    calibrator.flush()
    return done


def plan_rate(rounds, calibrated: bool = True) -> float:
    """Correct episodes of one round per second of the plan, where each
    unit of the plan takes its median time over the rounds. A transient
    slowdown of the host then moves only the units it hit, and only if it
    hit them in most rounds."""
    ns = sum(
        statistics.median(r[i].cal_ns if calibrated else r[i].raw_ns for r in rounds)
        for i in range(len(rounds[0]))
    )
    ok = min(sum(1 for u in r for o in u.episodes if o.ok) for r in rounds)
    return ok / (ns / 1e9)


def questions_mean(units) -> float:
    episodes = [o for u in units for o in u.episodes]
    return sum(o.questions for o in episodes) / len(episodes)


def percentile_us(values_ns: list[float], q: int) -> float:
    return statistics.quantiles(values_ns, n=100)[q - 1] / 1e3


# -- the two kinds of run -----------------------------------------------------


def end_to_end(args, workload, problems, record):

    setup_cal, setup_raw = measure_setup(args.workload, args.seed)
    workload.bind(set_up_in_process(workload), problems)
    plan = workload.units()
    checker = Checker(problems)
    calibrator = Calibrator()

    # First round: untimed warm-up; it fixes the reference question counts.
    first = run_round(plan, calibrator)
    checker.round(first)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    rounds = []
    start = time.perf_counter()
    while not rounds or time.perf_counter() - start < args.seconds:
        units = run_round(plan, calibrator)
        checker.round(units)
        rounds.append(units)

    cal_ns = [o.ns * u.factor for r in rounds for u in r for o in u.episodes]
    raw_ns = [o.ns for r in rounds for u in r for o in u.episodes]
    metrics = {
        "episodes_per_s": plan_rate(rounds),
        "episode_us_p50": statistics.median(cal_ns) / 1e3,
        "episode_us_p90": percentile_us(cal_ns, 90),
        "questions_mean": questions_mean(first),
        "setup_s": statistics.median(setup_cal),
        "peak_rss_mb": peak_rss_mb,
    }
    record.update(
        rounds=len(rounds),
        episode_samples=len(cal_ns),
        samples_beyond_p90=sum(1 for v in cal_ns if v / 1e3 > metrics["episode_us_p90"]),
        raw={
            "episodes_per_s": plan_rate(rounds, calibrated=False),
            "episode_us_p50": statistics.median(raw_ns) / 1e3,
            "episode_us_p90": percentile_us(raw_ns, 90),
            "setup_s": statistics.median(setup_raw),
        },
        setup_probes_s={"calibrated": setup_cal, "raw": setup_raw},
        calibration_s=summary(calibrator.samples),
    )
    return metrics, checker


def traced(args, workload, problems, record):
    import refquest.minset

    tracer = Tracer()
    before = calibration_s()
    tracer.install()
    try:
        worlds = set_up_in_process(workload)
    finally:
        tracer.uninstall()
    setup_factor = scale(statistics.fmean([before, calibration_s()]))
    load_world_ns = tracer.stats["world.load_world"][1] * setup_factor
    tracer.reset_totals()
    tracer.recording = False

    workload.bind(worlds, problems)
    plan = workload.units()
    checker = Checker(problems)
    calibrator = Calibrator()
    first = run_round(plan, calibrator)
    checker.round(first)
    q_mean = questions_mean(first)

    passes = {"traced": [], "untraced": []}  # (units, stats, counts)
    start = time.perf_counter()
    while (
        not passes["untraced"]
        or time.perf_counter() - start < args.seconds
        or len(passes["traced"]) > len(passes["untraced"])
    ):
        if len(passes["traced"]) == len(passes["untraced"]):
            tracer.reset_totals()
            tracer.recording = not passes["traced"]
            tracer.install()
            try:
                units = run_round(plan, calibrator)
            finally:
                tracer.uninstall()
            stats = {k: list(v) for k, v in tracer.stats.items()}
            passes["traced"].append((units, stats, dict(tracer.counts)))
        else:
            units = run_round(plan, calibrator)
            passes["untraced"].append((units, None, None))
        checker.round(units)

    _, _, counts = passes["traced"][0]
    if any(c != counts for _, _, c in passes["traced"][1:]):
        problems.append("per-layer counts differ between traced passes of one plan")
    episodes, turns = counts.get("dialogue.episodes", 0), counts.get("dialogue.turns", 0)
    if episodes and turns / episodes != q_mean:
        problems.append(f"traced turns/episodes {turns}/{episodes} != questions_mean {q_mean!r}")

    def per_pass_ns(name: str, field: int) -> float:
        values = []
        for units, stats, _ in passes["traced"]:
            factor = sum(u.cal_ns for u in units) / sum(u.raw_ns for u in units)
            values.append(stats.get(name, [0, 0, 0])[field] * factor)
        return statistics.fmean(values)

    def calls(name):
        return passes["traced"][0][1].get(name, [0, 0, 0])[0]

    def ns(name):
        return per_pass_ns(name, 1)

    def self_ns(name):
        return per_pass_ns(name, 2)

    minset_self = sum(self_ns(n) for n in MINSET_SPANS)
    episode_ns = ns("dialogue.run_episode")
    traced_rate = plan_rate([u for u, _, _ in passes["traced"]])
    untraced_rate = plan_rate([u for u, _, _ in passes["untraced"]])
    answers = counts.get("belief.answers", 0)
    compared = counts.get("minset.pairs_compared", 0)
    metrics = {
        "world.by_id.calls": calls("world.by_id"),
        "world.by_id.ns": ns("world.by_id"),
        "world.schema_names.calls": counts.get("world.schema_names.calls", 0),
        "world.load_world.ns": load_world_ns,
        "worlds.generate_random_world.ns": ns("worlds.generate_random_world"),
        "minset.compute_min_set.calls": calls("minset.compute_min_set"),
        "minset.compute_min_set.ns": ns("minset.compute_min_set"),
        "minset.pairwise_clauses.ns": ns("minset.pairwise_clauses"),
        "minset.pairs_compared": compared,
        "minset.clauses_kept": counts.get("minset.clauses_kept", 0),
        "minset.clause_keep_ratio": counts.get("minset.clauses_kept", 0) / compared if compared else 0.0,
        "minset.solve.ns": ns("minset.solve"),
        "minset.exact_solves": counts.get("minset.exact_solves", 0),
        "minset.greedy_solves": counts.get("minset.greedy_solves", 0),
        "minset.self_share": minset_self / episode_ns if episode_ns else 0.0,
        "belief.candidates.calls": calls("belief.candidates"),
        "belief.candidates.ns": ns("belief.candidates"),
        "belief.distribution.calls": calls("belief.distribution"),
        "belief.distribution.ns": ns("belief.distribution"),
        "belief.apply_answer.calls": calls("belief.apply_answer"),
        "belief.apply_answer.ns": ns("belief.apply_answer"),
        "belief.eliminated_ratio": counts.get("belief.eliminated_sum", 0) / answers if answers else 0.0,
        "dnet.build_network.calls": calls("dnet.build_network"),
        "dnet.build_network.self_ns": self_ns("dnet.build_network"),
        "dnet.questions_scored": counts.get("dnet.questions_scored", 0),
        "dnet.select_question.ns": ns("dnet.select_question"),
        "dialogue.episodes": episodes,
        "dialogue.turns": turns,
        "dialogue.choose.ns": ns("dialogue.choose"),
        "dialogue.oracle.ns": ns("dialogue.oracle"),
        "dialogue.run_episode.ns": episode_ns,
        "dialogue.run_episode.self_ns": self_ns("dialogue.run_episode"),
        "bench.run_benchmark.self_ns": self_ns("bench.run_benchmark"),
        "bench.emit_report.ns": ns("bench.emit_report"),
        "trace.traced_episodes_per_s": traced_rate,
        "trace.untraced_episodes_per_s": untraced_rate,
        "trace.overhead_ratio": untraced_rate / traced_rate,
    }
    spans_path = OUT / f"{args.workload}-seed{args.seed}.spans.jsonl"
    tracer.write_spans(spans_path)
    record.update(
        traced_passes=len(passes["traced"]),
        untraced_passes=len(passes["untraced"]),
        minset_exact_limit=refquest.minset.EXACT_LIMIT_DEFAULT,
        spans_written=len(tracer.spans),
        spans_dropped=tracer.dropped,
        spans_file=str(spans_path.relative_to(ROOT)),
        calibration_s=summary(calibrator.samples),
    )
    return metrics, checker


def summary(values: list[float]) -> dict:
    q = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    return {"n": len(values), "q1": q[0], "median": q[1], "q3": q[2]}


def main(argv=None) -> int:
    args = parse_args(argv)
    units = declared_units(args.trace)
    locate_program()

    workload = WORKLOADS[args.workload](args.seed)
    problems: list[str] = []
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace}
    run = traced if args.trace else end_to_end
    metrics, checker = run(args, workload, problems, record)
    if set(metrics) != set(units):
        sys.exit(f"perfbench: measured {sorted(set(metrics) ^ set(units))} "
                 "differ from the metrics BENCHMARK.json declares")

    problems = list(dict.fromkeys(problems))  # the same check fails once per round
    result = {
        "correct": checker.failed == 0 and not problems,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    if getattr(workload, "means", None):
        record["questions_mean_by_env_system"] = workload.means
    record.update(result=result, problems=problems,
                  failed_ratio=checker.failed / checker.attempted)
    OUT.mkdir(exist_ok=True)
    (OUT / f"{args.workload}-trace{args.trace}-seed{args.seed}.json").write_text(
        json.dumps(record, indent=2) + "\n", encoding="utf-8"
    )

    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"attempted {checker.attempted}  failed {checker.failed}  "
          f"failed_ratio {checker.failed / checker.attempted:g}")
    for k, v in metrics.items():
        print(f"  {k:<34} {v:>16.6g} {units[k]}")
    for k, v in record.get("raw", {}).items():
        print(f"  raw {k:<30} {v:>16.6g} {units[k]}")
    if "episode_samples" in record:
        print(f"  episode samples {record['episode_samples']} in {record['rounds']} rounds, "
              f"{record['samples_beyond_p90']} beyond p90")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
