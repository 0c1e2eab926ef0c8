"""Orientation-preserving and orientation-reversing maps on a finite cycle.

The package provides the orientation predicates for sequences over
[n] = {0, ..., n-1}, the full transformation monoid acting on them, four
membership routes for the orientation classes (definitional scan, triple
test, quadruple test, chord-preservation test), constructive
counterexample witnesses, exact chord geometry, and exhaustive small-n
verification suites.
"""

from .chords import (
    Chord,
    ChordPropertyResult,
    chords_intersect,
    has_chord_property,
    image_chord,
)
from .mappings import (
    Mapping,
    apply_seq,
    compose,
    enumerate_all,
    identity,
    image_size,
    mapping_count,
    reversal,
    rotation,
)
from .membership import (
    MembershipReport,
    classify,
    image_sequence,
    quad_test,
    triple_test,
)
from .sequences import (
    Orientation,
    Seq,
    circular_ascents,
    circular_descents,
    cyclic_variant,
    distinct_count,
    is_anti_cyclic,
    is_cyclic,
    orientation,
    reverse,
    same_orientation,
)
from .verification import (
    ClaimResult,
    ClassCounts,
    ConsistencyReport,
    Disagreement,
    SanctionedException,
    SuiteReport,
    Violation,
    count_classes,
    cross_check,
    equivalence_suite,
    format_machine,
    format_text,
    identity_suite,
    lemma_suite,
    run_verify,
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
    "apply_seq",
    "chords_intersect",
    "circular_ascents",
    "circular_descents",
    "classify",
    "compose",
    "count_classes",
    "cross_check",
    "cyclic_variant",
    "distinct_count",
    "enumerate_all",
    "equivalence_suite",
    "format_machine",
    "format_text",
    "has_chord_property",
    "identity",
    "identity_suite",
    "image_chord",
    "image_sequence",
    "image_size",
    "is_anti_cyclic",
    "is_cyclic",
    "lemma_suite",
    "mapping_count",
    "orientation",
    "quad_test",
    "reversal",
    "reverse",
    "rotation",
    "run_verify",
    "same_orientation",
    "triple_test",
    "witness_quad",
    "witness_triple",
]
