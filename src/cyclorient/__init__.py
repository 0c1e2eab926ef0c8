"""Orientation-preserving and orientation-reversing maps on a finite cycle.

The package provides the orientation of sequences over [n] = {0, ..., n-1}
(``orientation`` and the properties of ``Orientation``), the full
transformation monoid acting on them, four membership routes for the
orientation classes (definitional scan, triple test, quadruple test,
chord-preservation test), constructive counterexample witnesses, exact
chord geometry, and exhaustive small-n verification suites.  The suites'
names load :mod:`cyclorient.verification` on first use, so per-map
callers never compile it.
"""

from .chords import (
    Chord,
    ChordPropertyResult,
    chords_intersect,
    has_chord_property,
    image_chord,
)
from .claims import ConsistencyReport, Disagreement, cross_check
from .mappings import (
    Mapping,
    compose,
    enumerate_all,
    identity,
    reversal,
    rotation,
)
from .membership import (
    MembershipReport,
    classify,
    quad_test,
    triple_test,
)
from .sequences import (
    Orientation,
    Seq,
    orientation,
)
from .witnesses import QuadWitness, TripleWitness, witness_quad, witness_triple

__version__ = "0.1.0"

__all__ = [
    "Chord",
    "ChordPropertyResult",
    "ClaimResult",
    "ClassCounts",
    "ConsistencyReport",
    "Disagreement",
    "Mapping",
    "MembershipReport",
    "Orientation",
    "QuadWitness",
    "SanctionedException",
    "Seq",
    "SuiteReport",
    "TripleWitness",
    "Violation",
    "chords_intersect",
    "classify",
    "compose",
    "count_classes",
    "cross_check",
    "enumerate_all",
    "equivalence_suite",
    "format_machine",
    "format_text",
    "has_chord_property",
    "identity",
    "identity_suite",
    "image_chord",
    "lemma_suite",
    "orientation",
    "quad_test",
    "reversal",
    "rotation",
    "run_verify",
    "triple_test",
    "witness_quad",
    "witness_triple",
]


def __getattr__(name: str):
    # Every public name not imported above is a verification name (PEP 562).
    if name in __all__:
        from . import verification

        return getattr(verification, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
