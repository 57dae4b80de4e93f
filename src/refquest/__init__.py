"""Decision-theoretic clarification questions for reference resolution.

An agent is told to fetch an ambiguously named object ("pick up the
temporal emitter") and must narrow the candidate set to a single entity
by asking property questions. Questions are scored either by Shannon
entropy of the property's value distribution over surviving candidates
or by a fixed question-type preference (color first), and the question
alphabet is restricted to a minimum disambiguating property set
recomputed each turn. A slot-filling baseline, a truthful oracle, and a seedable
benchmark harness round out the simulation apparatus.
"""

from refquest.world import Entity, PropertySchema, World, load_world, serialize_world, validate_world
from refquest.minset import compute_min_set
from refquest.belief import Belief, PropertyDistribution, init_belief
from refquest.dnet import (
    DecisionNetwork,
    Question,
    build_network,
    select_question,
    wh_entropy,
    yn_expected_entropy,
)
from refquest.dialogue import BaselineAgent, EpisodeRecord, ModelAgent, SimOracle, run_episode
from refquest.worlds import RandomWorldSpec, generate_random_world, spacecraft_world
from refquest.bench import BenchmarkSpec, run_benchmark, welch_t

__version__ = "0.1.0"

__all__ = [
    "Belief",
    "BenchmarkSpec",
    "BaselineAgent",
    "DecisionNetwork",
    "Entity",
    "EpisodeRecord",
    "ModelAgent",
    "PropertyDistribution",
    "PropertySchema",
    "Question",
    "RandomWorldSpec",
    "SimOracle",
    "World",
    "build_network",
    "compute_min_set",
    "generate_random_world",
    "init_belief",
    "load_world",
    "run_benchmark",
    "run_episode",
    "select_question",
    "serialize_world",
    "spacecraft_world",
    "validate_world",
    "welch_t",
    "wh_entropy",
    "yn_expected_entropy",
]
