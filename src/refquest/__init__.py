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

__version__ = "0.1.0"
