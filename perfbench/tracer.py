"""Traced run: spans around the calls into each layer of refquest.

Every wrapper is installed from the benchmark's files at the name the
caller looks the function up under (modules import by name, so
`refquest.dialogue.build_network`, not `refquest.dnet.build_network`), and
removed again after each traced pass. A name the program no longer has is
skipped, and its metrics read 0.

A span is (id, name, start ns, end ns, parent id, episode id). Per-name
calls, inclusive time and self time are aggregated as spans close: self
time is a span's duration minus the time its child spans cover, because
`Belief.distribution` calls `candidates`, which calls `World.by_id`, and
their inclusive times overlap. Only the first SPAN_CAP spans are kept
in memory; they are written out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from collections import defaultdict
from pathlib import Path

# (module, attribute path, span name)
SPANS = (
    ("refquest.world", "World.by_id", "world.by_id"),
    ("refquest.world", "load_world", "world.load_world"),
    ("refquest.worlds", "load_world", "world.load_world"),
    ("refquest.bench", "generate_random_world", "worlds.generate_random_world"),
    ("refquest.dnet", "compute_min_set", "minset.compute_min_set"),
    ("refquest.minset", "pairwise_clauses", "minset.pairwise_clauses"),
    ("refquest.minset", "solve_min_hitting_set", "minset.solve"),
    ("refquest.belief", "Belief.candidates", "belief.candidates"),
    ("refquest.belief", "Belief.distribution", "belief.distribution"),
    ("refquest.belief", "Belief.apply_wh_answer", "belief.apply_answer"),
    ("refquest.belief", "Belief.apply_yn_answer", "belief.apply_answer"),
    ("refquest.dialogue", "build_network", "dnet.build_network"),
    ("refquest.dialogue", "select_question", "dnet.select_question"),
    ("refquest.dialogue", "ModelAgent.choose", "dialogue.choose"),
    ("refquest.dialogue", "BaselineAgent.choose", "dialogue.choose"),
    ("refquest.dialogue", "SimOracle.answer", "dialogue.oracle"),
    ("refquest.dialogue", "run_episode", "dialogue.run_episode"),
    ("refquest.bench", "run_episode", "dialogue.run_episode"),
    ("refquest.bench", "run_benchmark", "bench.run_benchmark"),
    ("refquest.bench", "emit_report", "bench.emit_report"),
)
MINSET_SPANS = ("minset.compute_min_set", "minset.pairwise_clauses", "minset.solve")
SPAN_CAP = 200_000  # spans kept in memory, about 20 MB


def _resolve(module: str, path: str):
    owner = importlib.import_module(module)
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part, None)
        if owner is None:
            return None, attr
    return owner, attr


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.dropped = 0
        self.recording = True
        self.stats: dict[str, list[int]] = defaultdict(lambda: [0, 0, 0])  # calls, ns, self ns
        self.counts: dict[str, float] = defaultdict(int)
        self.episode = -1
        self._next_episode = 0
        self._stack: list[list[int]] = []  # [start, child ns, span id]
        self._next_id = 0
        self._undo: list[tuple] = []

    def reset_totals(self):
        """Start new totals. Wrappers bind their totals when installed, so
        call this before install(), never while installed."""
        self.stats.clear()
        self.counts.clear()

    # -- installation -------------------------------------------------------

    def install(self):
        for module, path, name in SPANS:
            owner, attr = _resolve(module, path)
            fn = vars(owner).get(attr) if owner is not None else None
            if not callable(fn):
                continue
            self._undo.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(name, fn, _AFTER.get(name)))
        owner, _ = _resolve("refquest.world", "PropertySchema.names")
        names = vars(owner).get("names") if owner is not None else None
        if isinstance(names, property):
            counts = self.counts

            def counted(schema, _fget=names.fget):
                counts["world.schema_names.calls"] += 1
                return _fget(schema)

            self._undo.append((owner, "names", names))
            owner.names = property(counted)

    def uninstall(self):
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, fn, after):
        stats = self.stats[name]
        stack = self._stack
        clock = time.perf_counter_ns
        episode_boundary = name == "dialogue.run_episode"
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1][2] if stack else -1
            if episode_boundary:
                tracer.episode = tracer._next_episode
                tracer._next_episode += 1
            frame = [clock(), 0, span_id]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - frame[0]
                stats[0] += 1
                stats[1] += dur
                stats[2] += dur - frame[1]
                if stack:
                    stack[-1][1] += dur
                if tracer.recording:
                    if len(tracer.spans) < SPAN_CAP:
                        tracer.spans.append((span_id, name, frame[0], end, parent, tracer.episode))
                    else:
                        tracer.dropped += 1
                if episode_boundary:
                    tracer.episode = -1
            if after is not None:
                after(tracer.counts, args, kwargs, result)
            return result

        return wrapper

    # -- output -------------------------------------------------------------

    def write_spans(self, path: Path):
        """One JSON array per line; the first line names the fields."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as f:
            f.write(json.dumps(["id", "name", "start_ns", "end_ns", "parent", "episode"]) + "\n")
            for span in self.spans:
                f.write(json.dumps(span) + "\n")


# -- counts taken from a layer's arguments and results ------------------------


def _after_pairwise(counts, args, kwargs, clauses):
    entities = args[0] if args else kwargs["entities"]
    counts["minset.pairs_compared"] += math.comb(len(entities), 2)
    counts["minset.clauses_kept"] += len(clauses)


def _after_solve(counts, args, kwargs, result):
    import refquest.minset as minset

    clauses = args[0] if args else kwargs["clauses"]
    if not clauses:
        return
    limit = args[2] if len(args) > 2 else kwargs.get("exact_limit", minset.EXACT_LIMIT_DEFAULT)
    universe = set().union(*clauses)
    counts["minset.exact_solves" if len(universe) <= limit else "minset.greedy_solves"] += 1


def _after_answer(counts, args, kwargs, belief):
    before = len(args[0].candidate_ids)
    counts["belief.answers"] += 1
    counts["belief.eliminated_sum"] += (before - len(belief.candidate_ids)) / before


def _after_network(counts, args, kwargs, net):
    counts["dnet.questions_scored"] += len(net.questions)


def _after_episode(counts, args, kwargs, record):
    counts["dialogue.episodes"] += 1
    counts["dialogue.turns"] += record.question_count


_AFTER = {
    "minset.pairwise_clauses": _after_pairwise,
    "minset.solve": _after_solve,
    "belief.apply_answer": _after_answer,
    "dnet.build_network": _after_network,
    "dialogue.run_episode": _after_episode,
}
