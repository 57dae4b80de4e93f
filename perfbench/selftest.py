"""Self-test of the benchmark. Run from the root of a checkout:

    python3 perfbench/selftest.py [--seed N] [--seconds S]

1. Runs every workload with tracing off and prints its end-to-end metrics.
2. Runs every workload traced twice and checks that each count metric
   repeats exactly, so that later changes can cite them as counts.
3. Checks the split the workloads were chosen for: min-set self time is
   most of episode time on crowd and wide and a minority on desk; greedy
   solves are 0 on desk and crowd and most solves on wide; loading the
   world costs more on crowd and wide than on desk.
4. Checks that desk's question mean per environment and system, computed
   from the benchmark's own episodes, equals the `mean` that
   `refquest bench --format structured` prints at the same seed and
   iterations.

Exits 1 if any check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, Desk  # noqa: E402


def bench(workload: str, seed: int, seconds: float, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=600,
    )
    if proc.returncode != 0:
        sys.exit(f"run.py failed on {workload}:\n{proc.stderr}")
    print(proc.stdout.rsplit("\n", 2)[0])
    result = json.loads(proc.stdout.splitlines()[-1])
    record = json.loads((HERE / "out" / f"{workload}-trace{trace}-seed{seed}.json").read_text())
    return result, record


def main() -> int:
    parser = argparse.ArgumentParser(description="self-test of the refquest benchmark")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=1.0)
    args = parser.parse_args()
    failures = []

    def check(ok: bool, what: str):
        print(("ok    " if ok else "FAIL  ") + what)
        if not ok:
            failures.append(what)

    desk_means = None
    for name in WORKLOADS:
        result, record = bench(name, args.seed, args.seconds, 0)
        check(result["correct"] and result["failed"] == 0, f"{name}: every episode resolved to its target")
        if name == "desk":
            desk_means = record["questions_mean_by_env_system"]

    traced = {}
    for name in WORKLOADS:
        first, _ = bench(name, args.seed, args.seconds, 1)
        second, _ = bench(name, args.seed, args.seconds, 1)
        check(first["correct"] and second["correct"], f"{name}: traced runs are correct")
        counts = {k for k, v in first["metrics"].items() if v["unit"] == "count"}
        differ = sorted(k for k in counts
                        if first["metrics"][k]["value"] != second["metrics"][k]["value"])
        check(not differ, f"{name}: {len(counts)} count metrics repeat exactly {differ or ''}")
        traced[name] = {k: v["value"] for k, v in first["metrics"].items()}

    desk, crowd, wide = traced["desk"], traced["crowd"], traced["wide"]
    share = {k: round(v["minset.self_share"], 3) for k, v in traced.items()}
    check(crowd["minset.self_share"] > 0.5 and wide["minset.self_share"] > 0.5
          and desk["minset.self_share"] < 0.5,
          f"minset self time is most of episode time on crowd and wide only {share}")
    check(desk["minset.greedy_solves"] == 0 and crowd["minset.greedy_solves"] == 0,
          "no greedy solves on desk and crowd")
    check(wide["minset.greedy_solves"] > wide["minset.exact_solves"],
          f"greedy solves are most solves on wide ({wide['minset.greedy_solves']} of "
          f"{wide['minset.greedy_solves'] + wide['minset.exact_solves']})")
    check(min(crowd["world.load_world.ns"], wide["world.load_world.ns"]) > desk["world.load_world.ns"],
          "world.load_world.ns is larger on crowd and wide than on desk")

    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    for key, own in sorted(desk_means.items()):
        environment, system = key.split("/")
        proc = subprocess.run(
            [sys.executable, "-m", "refquest.cli", "bench", "--env", environment,
             "--systems", system, "--iterations", str(Desk.iterations),
             "--seed", str(args.seed), "--format", "structured"],
            capture_output=True, text=True, cwd=ROOT, env=env, timeout=600,
        )
        cli_mean = json.loads(proc.stdout)["results"][0]["mean"] if proc.returncode == 0 else None
        check(cli_mean == own, f"desk {key}: episodes' mean {own!r} == refquest bench mean {cli_mean!r}")

    print(f"{len(failures)} check(s) failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
