"""Orientation predicates on sequences, cross-checked against a rotation oracle."""

import itertools

import pytest

from cyclorient import (
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


def test_circular_descents_examples():
    assert circular_descents(Seq.parse("0,1,0,1")) == 2
    assert circular_ascents(Seq.parse("0,1,0,1")) == 2
    assert circular_descents(Seq.parse("0,1")) == 1
    assert circular_descents(Seq(6, (5, 5, 5))) == 0
    with pytest.raises(ValueError):
        circular_descents(Seq(3, ()))
    with pytest.raises(ValueError):
        circular_ascents(Seq(3, ()))


def test_ascents_are_descents_of_reverse():
    for items in all_seqs(4, 5):
        s = Seq(4, items)
        assert circular_ascents(s) == circular_descents(reverse(s))


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
        s = Seq(5, items)
        assert is_cyclic(s) == oracle_cyclic(items), items
        assert is_anti_cyclic(s) == oracle_anti_cyclic(items), items
        tag = orientation(s)
        assert tag.admits_cyclic == oracle_cyclic(items)
        assert tag.admits_anti_cyclic == oracle_anti_cyclic(items)


def test_low_distinct_forces_both_or_neither():
    for items in all_seqs(3, 6):
        s = Seq(3, items)
        if distinct_count(s) <= 2:
            assert orientation(s) in (Orientation.BOTH, Orientation.NEITHER)


def test_three_distinct_triples_are_uniquely_oriented():
    for items in itertools.product(range(5), repeat=3):
        if len(set(items)) == 3:
            assert orientation(Seq(5, items)).uniquely_oriented


def test_cyclic_variant_examples():
    assert cyclic_variant(Seq(3, (0, 1, 2)), 1).items == (2, 0, 1)
    assert cyclic_variant(Seq(7, (4,)), 0).items == (4,)
    rotated = cyclic_variant(Seq(2, (0, 1, 0, 1)), 0)
    assert rotated.items == (1, 0, 1, 0)
    assert orientation(rotated) is Orientation.NEITHER
    with pytest.raises(IndexError):
        cyclic_variant(Seq(3, (0, 1)), 2)
    with pytest.raises(IndexError):
        cyclic_variant(Seq(3, (0, 1)), -1)


def test_cyclic_variant_preserves_orientation():
    for items in all_seqs(4, 5):
        s = Seq(4, items)
        tag = orientation(s)
        for i in range(len(items)):
            assert orientation(cyclic_variant(s, i)) is tag


def test_reverse_examples():
    assert reverse(Seq.parse("1,2,0")).items == (0, 2, 1)
    assert orientation(reverse(Seq.parse("1,2,0"))) is Orientation.ANTI_CYCLIC_ONLY
    assert reverse(Seq.parse("0,1")).items == (1, 0)
    assert orientation(reverse(Seq.parse("0,1"))) is Orientation.BOTH


def test_reverse_involution_and_swap_law():
    for items in all_seqs(4, 5):
        s = Seq(4, items)
        assert reverse(reverse(s)) == s
        assert orientation(reverse(s)) is orientation(s).swapped()


def test_distinct_count():
    assert distinct_count(Seq.parse("0,1,0,1")) == 2
    assert distinct_count(Seq(3, (2, 2, 2))) == 1
    assert distinct_count(Seq.parse("3,1,4,1")) == 3
    assert distinct_count(Seq(3, ())) == 0


def test_same_orientation():
    assert same_orientation(Seq.parse("1,2,0"), Seq.parse("0,1,2"))
    assert not same_orientation(Seq.parse("1,2,0"), Seq.parse("2,1,0"))
    with pytest.raises(ValueError):
        same_orientation(Seq.parse("0,1"), Seq.parse("1,2,0"))
    with pytest.raises(ValueError):
        same_orientation(Seq.parse("1,2,0"), Seq.parse("0,1,0,1", n=4))


def test_same_orientation_under_rotation():
    for items in all_seqs(4, 5):
        s = Seq(4, items)
        if not orientation(s).uniquely_oriented:
            continue
        for i in range(len(items)):
            assert same_orientation(s, cyclic_variant(s, i))


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
