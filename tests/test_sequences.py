"""Orientation predicates on sequences, cross-checked against a rotation oracle."""

import itertools

import pytest

from cyclorient import Orientation, Seq, orientation


def rotations(items):
    t = len(items)
    return [items[r:] + items[:r] for r in range(t)]


def oracle_cyclic(items):
    """Independent definition: some rotation is non-decreasing."""
    return any(all(rot[i] <= rot[i + 1] for i in range(len(rot) - 1)) for rot in rotations(items))


def oracle_anti_cyclic(items):
    return any(all(rot[i] >= rot[i + 1] for i in range(len(rot) - 1)) for rot in rotations(items))


def all_seqs(n, max_len, min_len=1):
    for length in range(min_len, max_len + 1):
        yield from itertools.product(range(n), repeat=length)


def test_seq_validation():
    with pytest.raises(ValueError):
        Seq(0, ())
    with pytest.raises(ValueError):
        Seq(3, (0, 3))
    with pytest.raises(ValueError):
        Seq(3, (-1,))
    s = Seq(4, [0, 1, 2])  # lists are accepted and frozen
    assert s.items == (0, 1, 2)
    assert len(s) == 3 and list(s) == [0, 1, 2] and s[1] == 1
    # Sizes and entries must be integers, refused by name.
    with pytest.raises(ValueError, match=r"values \(0, 2\.0\) must be integers"):
        Seq(3, (0, 2.0))
    with pytest.raises(ValueError, match=r"values \('0',\) must be integers"):
        Seq(3, ("0",))
    with pytest.raises(ValueError, match=r"values \(None,\) must be integers"):
        Seq(3, (None,))
    with pytest.raises(ValueError, match=r"cycle size 3\.0 and values"):
        Seq(3.0, (0,))

    class Index:
        def __init__(self, value):
            self.value = value

        def __index__(self):
            return self.value

    t = Seq(Index(3), (True, Index(2)))
    assert (t.n, t.items) == (3, (1, 2)) and type(t.n) is int
    assert all(type(v) is int for v in t.items)


def test_seq_parse():
    assert Seq.parse("0,1,0,1").n == 2
    assert Seq.parse("0,1,0,1", n=4).items == (0, 1, 0, 1)
    assert Seq.parse("").items == ()
    assert str(Seq.parse("3,1,4,1")) == "3,1,4,1"
    with pytest.raises(ValueError):
        Seq.parse("2", n=2)


def test_seq_parse_names_a_negative_value_not_the_size():
    # The default size counts from 0, so a negative value is the one refused.
    for text in ("-1", "-3,-1"):
        with pytest.raises(ValueError, match=r"value -[13] outside \[0, 1\)"):
            Seq.parse(text)
    assert Seq.parse("").n == 1


def test_orientation_examples():
    assert orientation(Seq.parse("0,1")) is Orientation.BOTH
    assert orientation(Seq.parse("0,1,0,1")) is Orientation.NEITHER
    assert orientation(Seq.parse("1,2,0")) is Orientation.CYCLIC_ONLY
    assert orientation(Seq.parse("2,1,0")) is Orientation.ANTI_CYCLIC_ONLY
    assert orientation(Seq(5, (3,))) is Orientation.BOTH
    assert orientation(Seq(2, (0, 1))) is Orientation.BOTH
    with pytest.raises(ValueError):
        orientation(Seq(1, ()))


def test_orientation_matches_rotation_oracle_exhaustively():
    # Every sequence of length <= 6 over [5]: the descent-count definition
    # agrees with "some rotation is monotone".
    for items in all_seqs(5, 6):
        tag = orientation(Seq(5, items))
        assert tag.admits_cyclic == oracle_cyclic(items), items
        assert tag.admits_anti_cyclic == oracle_anti_cyclic(items), items


def test_low_distinct_forces_both_or_neither():
    for items in all_seqs(3, 6):
        if len(set(items)) <= 2:
            assert orientation(Seq(3, items)) in (Orientation.BOTH, Orientation.NEITHER)


def test_three_distinct_triples_are_uniquely_oriented():
    for items in itertools.product(range(5), repeat=3):
        if len(set(items)) == 3:
            assert orientation(Seq(5, items)).uniquely_oriented


def test_cyclic_variant_preserves_orientation():
    for items in all_seqs(4, 5):
        tag = orientation(Seq(4, items))
        for rotated in rotations(items):
            assert orientation(Seq(4, rotated)) is tag


def test_reverse_involution_and_swap_law():
    for items in all_seqs(4, 5):
        tag = orientation(Seq(4, items))
        assert tag.swapped().swapped() is tag
        assert orientation(Seq(4, items[::-1])) is tag.swapped()


def test_subsequence_inheritance_exhaustive():
    # Orientation admitted by a sequence is admitted by every nonempty
    # subsequence; exhaustive over [5] up to length 6.
    for items in all_seqs(5, 6):
        tag = orientation(Seq(5, items))
        if not tag.oriented:
            continue
        t = len(items)
        for mask in range(1, 1 << t):
            sub = tuple(items[b] for b in range(t) if mask >> b & 1)
            sub_tag = orientation(Seq(5, sub))
            if tag.admits_cyclic:
                assert sub_tag.admits_cyclic, (items, sub)
            if tag.admits_anti_cyclic:
                assert sub_tag.admits_anti_cyclic, (items, sub)


def test_seq_parse_names_a_bad_entry():
    with pytest.raises(ValueError, match="sequence entry 'x' is not an integer"):
        Seq.parse("0,x")


def test_seq_parse_reads_only_ascii_digits():
    for entry in ("1_2", "１"):
        with pytest.raises(ValueError, match=f"sequence entry '{entry}' is not an integer"):
            Seq.parse(f"0,{entry}")
    assert Seq.parse("+1,0").items == (1, 0)
