"""The contract every public record type keeps: frozen value classes built
positionally or by keyword, compared and hashed by exact type and field
values, with a stable repr and pickle and deepcopy round trips."""

import copy
import pickle

import pytest

from cyclorient import (
    Chord,
    ChordPropertyResult,
    ClaimResult,
    ClassCounts,
    ConsistencyReport,
    Disagreement,
    Mapping,
    MembershipReport,
    Orientation,
    QuadWitness,
    SanctionedException,
    Seq,
    SuiteReport,
    TripleWitness,
    Violation,
)

_REPORT = MembershipReport(True, False, True, 3, Orientation.CYCLIC_ONLY)
_REPORT_REPR = (
    "MembershipReport(in_op=True, in_or=False, in_p=True, image_size=3,"
    " image_orientation=<Orientation.CYCLIC_ONLY: 'cyclic-only'>)"
)
_CLAIM = ClaimResult("quad-vs-definitional", 27, 0)

# (type, field names in order, positional values, repr of the record)
RECORDS = [
    (Seq, ("n", "items"), (3, (0, 1, 2)), "Seq(n=3, items=(0, 1, 2))"),
    (Mapping, ("n", "images"), (3, (0, 2, 1)), "Mapping(n=3, images=(0, 2, 1))"),
    (Chord, ("n", "p", "q"), (5, 1, 3), "Chord(n=5, p=1, q=3)"),
    (
        ChordPropertyResult,
        ("holds", "counterexample"),
        (False, (Chord(4, 0, 2), Chord(4, 1, 3))),
        "ChordPropertyResult(holds=False,"
        " counterexample=(Chord(n=4, p=0, q=2), Chord(n=4, p=1, q=3)))",
    ),
    (
        MembershipReport,
        ("in_op", "in_or", "in_p", "image_size", "image_orientation"),
        (True, False, True, 3, Orientation.CYCLIC_ONLY),
        _REPORT_REPR,
    ),
    (
        TripleWitness,
        ("points", "case_label"),
        ((0, 1, 2), "3.1"),
        "TripleWitness(points=(0, 1, 2), case_label='3.1')",
    ),
    (
        QuadWitness,
        ("points", "case_label"),
        ((0, 1, 2, 3), "case2"),
        "QuadWitness(points=(0, 1, 2, 3), case_label='case2')",
    ),
    (
        Violation,
        ("claim", "witness", "detail", "count"),
        ("quad-vs-definitional", "0,2,1,3", "quad = True", 2),
        "Violation(claim='quad-vs-definitional', witness='0,2,1,3',"
        " detail='quad = True', count=2)",
    ),
    (
        SanctionedException,
        ("claim", "witness"),
        ("triple-preserve-literal", "0,1,0,1"),
        "SanctionedException(claim='triple-preserve-literal', witness='0,1,0,1')",
    ),
    (
        Disagreement,
        ("claim", "detail", "sanctioned"),
        ("triple-preserve-vs-definitional", "rank 2", True),
        "Disagreement(claim='triple-preserve-vs-definitional', detail='rank 2',"
        " sanctioned=True)",
    ),
    (
        ConsistencyReport,
        (
            "definitional",
            "triple_op",
            "triple_or",
            "quad_p",
            "chord_p",
            "discrepancies",
            "claims",
            "gaps",
        ),
        (_REPORT, True, False, True, True, (), (("quad-vs-definitional", True),), ()),
        f"ConsistencyReport(definitional={_REPORT_REPR}, triple_op=True,"
        " triple_or=False, quad_p=True, chord_p=True, discrepancies=(),"
        " claims=(('quad-vs-definitional', True),), gaps=())",
    ),
    (
        ClaimResult,
        ("claim", "checks", "violations"),
        ("quad-vs-definitional", 27, 0),
        "ClaimResult(claim='quad-vs-definitional', checks=27, violations=0)",
    ),
    (
        SuiteReport,
        (
            "suite",
            "n",
            "checks_run",
            "claims",
            "violations",
            "sanctioned_exceptions",
            "elapsed",
        ),
        ("equivalence", 3, 27, (_CLAIM,), (), (), 0.5),
        "SuiteReport(suite='equivalence', n=3, checks_run=27, claims=(ClaimResult("
        "claim='quad-vs-definitional', checks=27, violations=0),), violations=(),"
        " sanctioned_exceptions=(), elapsed=0.5)",
    ),
    (
        ClassCounts,
        ("n", "total", "op", "or_", "p", "op_and_or", "low_rank_in_p"),
        (3, 27, 24, 24, 27, 21, 21),
        "ClassCounts(n=3, total=27, op=24, or_=24, p=27, op_and_or=21, low_rank_in_p=21)",
    ),
]

IDS = [kind.__name__ for kind, *_ in RECORDS]

# A valid last field that differs from the sample's; None for the others.
OTHER_LAST = {Seq: (0, 1, 1), Mapping: (0, 1, 2), Chord: 4}


@pytest.mark.parametrize("kind, names, values, text", RECORDS, ids=IDS)
def test_positional_and_keyword_construction_agree(kind, names, values, text):
    by_position = kind(*values)
    by_keyword = kind(**dict(zip(names, values)))
    mixed = kind(*values[:1], **dict(zip(names[1:], values[1:])))
    assert by_position == by_keyword == mixed
    assert tuple(getattr(by_keyword, name) for name in names) == values


def test_a_class_level_value_is_the_default():
    assert ChordPropertyResult(True).counterexample is None
    assert ChordPropertyResult(holds=True) == ChordPropertyResult(True, None)


def test_normalisation_runs_on_every_construction_path():
    assert Chord(5, 3, 1) == Chord(n=5, p=3, q=1) == Chord(5, 1, 3)
    assert Mapping(n=3, images=[0, 2, 1]).images == (0, 2, 1)
    assert Seq(3, items=[True, 0]).items == (1, 0)
    with pytest.raises(ValueError, match="outside"):
        Mapping(n=3, images=(0, 1, 3))


@pytest.mark.parametrize("kind, names, values, text", RECORDS, ids=IDS)
def test_wrong_arguments_raise_type_error(kind, names, values, text):
    with pytest.raises(TypeError):
        kind(*values[:-2])  # a required field missing
    with pytest.raises(TypeError):
        kind(*values, values[0])  # one positional too many
    with pytest.raises(TypeError):
        kind(*values, unknown=1)
    with pytest.raises(TypeError):
        kind(*values, **{names[0]: values[0]})  # a field given twice


@pytest.mark.parametrize("kind, names, values, text", RECORDS, ids=IDS)
def test_equality_and_hash_follow_the_field_values(kind, names, values, text):
    record = kind(*values)
    twin = kind(*values)
    assert record == twin and not record != twin
    assert hash(record) == hash(twin)
    assert record != values
    changed = kind(*values[:-1], OTHER_LAST.get(kind))
    assert record != changed


def test_equal_fields_of_different_types_are_unequal():
    assert Seq(3, (0, 1, 2)) != Mapping(3, (0, 1, 2))
    assert TripleWitness((0, 1, 2), "1") != QuadWitness((0, 1, 2), "1")
    assert SanctionedException("c", "w") != TripleWitness("c", "w")
    assert len({Seq(3, (0, 1, 2)), Mapping(3, (0, 1, 2))}) == 2


@pytest.mark.parametrize("kind, names, values, text", RECORDS, ids=IDS)
def test_fields_can_be_neither_assigned_nor_deleted(kind, names, values, text):
    record = kind(*values)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, values[0])
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.unknown = 1
    assert record == kind(*values)


@pytest.mark.parametrize("kind, names, values, text", RECORDS, ids=IDS)
def test_repr_names_each_field(kind, names, values, text):
    assert repr(kind(*values)) == text


@pytest.mark.parametrize("kind, names, values, text", RECORDS, ids=IDS)
def test_pickle_and_deepcopy_round_trips(kind, names, values, text):
    record = kind(*values)
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    copies = [pickle.loads(pickle.dumps(record, protocol)) for protocol in protocols]
    copies += [copy.deepcopy(record), copy.copy(record)]
    for twin in copies:
        assert type(twin) is kind
        assert twin == record and hash(twin) == hash(record)
        assert repr(twin) == text
        with pytest.raises(AttributeError):
            setattr(twin, names[0], values[0])


def test_fields_match_positionally_in_a_case_pattern():
    match Mapping(3, (0, 2, 1)):
        case Mapping(n, images):
            assert (n, images) == (3, (0, 2, 1))
        case _:
            pytest.fail("Mapping(n, images) did not match")
