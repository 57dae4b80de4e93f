"""Time one cold set-up of refquest in a fresh interpreter.

Usage: python3 perfbench/setup_probe.py <workload> <seed>

Set-up is what a user pays before the first episode: importing the
package, loading the shipped spacecraft world and, for workloads that
bring their own worlds, loading their config texts. The workload's input
is generated before the clock starts. Each step is timed on its own, with
the calibration loop run before the first step and after every step, so
a step is scaled by the calibrations around it. Prints one JSON line:
the raw nanoseconds of each step and the calibration seconds between.
"""

import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from calibrate import calibration_s  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def import_and_load_spacecraft():
    import refquest.worlds

    refquest.worlds.spacecraft_world()


def loader(text):
    def load():
        import refquest.world

        refquest.world.load_world(text)

    return load


steps = [import_and_load_spacecraft]
steps += [loader(text) for text in WORKLOADS[sys.argv[1]](int(sys.argv[2])).world_texts]
calibration_s()
cals = [calibration_s()]
step_ns = []
for step in steps:
    t0 = time.perf_counter_ns()
    step()
    step_ns.append(time.perf_counter_ns() - t0)
    cals.append(calibration_s())
print(json.dumps({"ns": step_ns, "cal": cals}))
