"""Construction, composition and enumeration of the transformation monoid."""

import itertools
import random

import pytest

from cyclorient import (
    Mapping,
    Seq,
    apply_seq,
    compose,
    enumerate_all,
    identity,
    image_size,
    mapping_count,
    reversal,
    rotation,
)


class Index:
    """An integer-like object: not an int, but usable as an index."""

    def __init__(self, value):
        self.value = value

    def __index__(self):
        return self.value


def test_mapping_validation():
    assert Mapping(4, [0, 1, 3, 2]).images == (0, 1, 3, 2)
    with pytest.raises(ValueError):
        Mapping(4, (0, 1, 3, 4))
    with pytest.raises(ValueError):
        Mapping(3, (0, 1))
    with pytest.raises(ValueError):
        Mapping(0, ())
    with pytest.raises(ValueError):
        Mapping(2, (0, -1))
    # Sizes and entries must be integers, refused at construction by name.
    with pytest.raises(ValueError, match=r"images \(0, 1, 2\.0\) must be integers"):
        Mapping(3, (0, 1, 2.0))
    with pytest.raises(ValueError, match=r"images \('0', 1, 2\) must be integers"):
        Mapping(3, ("0", 1, 2))
    with pytest.raises(ValueError, match=r"images \(0, None, 2\) must be integers"):
        Mapping(3, (0, None, 2))
    with pytest.raises(ValueError, match=r"cycle size 3\.0 and images"):
        Mapping(3.0, (0, 1, 2))
    m = Mapping(3, (True, Index(2), 0))
    assert m.images == (1, 2, 0) and all(type(v) is int for v in m.images)
    sized = Mapping(Index(2), (0, 1))
    assert sized.n == 2 and type(sized.n) is int


def test_mapping_parse_and_str():
    m = Mapping.parse("0,1,3,2")
    assert m.n == 4 and m.images == (0, 1, 3, 2)
    assert str(m) == "0,1,3,2"
    assert m(2) == 3


def test_apply_seq():
    m = Mapping.parse("0,1,3,2")
    assert apply_seq(m, Seq(4, (0, 1, 2, 3))).items == (0, 1, 3, 2)
    s = Seq(4, (2, 0, 2))
    assert apply_seq(identity(4), s) == s
    assert apply_seq(reversal(4), Seq(4, (0, 1, 2, 3))).items == (3, 2, 1, 0)
    with pytest.raises(ValueError):
        apply_seq(m, Seq(5, (0, 1)))


def test_special_maps():
    assert reversal(5).images == (4, 3, 2, 1, 0)
    assert rotation(4).images == (1, 2, 3, 0)
    assert identity(3).images == (0, 1, 2)


def test_compose():
    for n in range(1, 7):
        assert compose(reversal(n), reversal(n)) == identity(n)
    beta = Mapping.parse("2,0,1")
    assert compose(identity(3), beta) == beta
    assert compose(beta, identity(3)) == beta
    assert compose(Mapping.parse("0,1,3,2"), reversal(4)).images == (3, 2, 0, 1)
    with pytest.raises(ValueError):
        compose(identity(3), identity(4))


def test_compose_is_left_to_right():
    a = Mapping.parse("1,2,0")
    b = Mapping.parse("0,0,2")
    c = compose(a, b)
    for j in range(3):
        assert c(j) == b(a(j))


def test_compose_associative_exhaustive_n3():
    maps = list(enumerate_all(3))
    for a, b, c in itertools.product(maps, repeat=3):
        assert compose(compose(a, b), c) == compose(a, compose(b, c))


def test_apply_distributes_over_composition():
    rng = random.Random(20240)
    for _ in range(300):
        n = rng.randrange(2, 7)
        a = Mapping(n, tuple(rng.randrange(n) for _ in range(n)))
        b = Mapping(n, tuple(rng.randrange(n) for _ in range(n)))
        s = Seq(n, tuple(rng.randrange(n) for _ in range(rng.randrange(1, 7))))
        assert apply_seq(compose(a, b), s) == apply_seq(b, apply_seq(a, s))


def test_image_size():
    assert image_size(identity(6)) == 6
    assert image_size(Mapping(4, (2, 2, 2, 2))) == 1
    assert image_size(Mapping(4, (0, 1, 0, 1))) == 2


def test_image_size_shrinks_under_composition():
    maps3 = list(enumerate_all(3))
    for a, b in itertools.product(maps3, repeat=2):
        assert image_size(compose(a, b)) <= image_size(b)
        assert image_size(compose(a, b)) <= image_size(a)
    rng = random.Random(77)
    for _ in range(200):
        a = Mapping(5, tuple(rng.randrange(5) for _ in range(5)))
        b = Mapping(5, tuple(rng.randrange(5) for _ in range(5)))
        assert image_size(compose(a, b)) <= min(image_size(a), image_size(b))


def test_enumerate_all_small():
    assert [m.images for m in enumerate_all(1)] == [(0,)]
    maps = list(enumerate_all(3))
    assert len(maps) == mapping_count(3) == 27
    assert len(set(maps)) == 27
    assert maps == sorted(maps, key=lambda m: m.images)


def test_enumerate_all_bounds_n6():
    first = next(enumerate_all(6))
    assert first.images == (0, 0, 0, 0, 0, 0)
    last = list(enumerate_all(6, mapping_count(6) - 1))
    assert len(last) == 1 and last[0].images == (5, 5, 5, 5, 5, 5)


def test_enumerate_all_index_is_base_n():
    # The map at lexicographic index k has k's base-n digits as images.
    maps = list(enumerate_all(3))
    assert maps[7].images == (0, 2, 1)  # 7 = 0*9 + 2*3 + 1
    assert maps[26].images == (2, 2, 2)
    for k in (0, 5, 13, 22):
        digits = ((k // 9) % 3, (k // 3) % 3, k % 3)
        assert maps[k].images == digits


def test_enumerate_all_splits_into_ranges():
    full = list(enumerate_all(3))
    pieces = []
    for start, stop in ((0, 5), (5, 20), (20, 27)):
        pieces.extend(enumerate_all(3, start, stop))
    assert pieces == full
    with pytest.raises(ValueError):
        list(enumerate_all(3, 5, 30))
    with pytest.raises(ValueError):
        list(enumerate_all(0))


def test_mapping_parse_names_a_bad_entry():
    for text, entry in (("a,b", "'a'"), ("0,,1", "''"), ("", "''")):
        with pytest.raises(ValueError, match=f"map entry {entry} is not an integer"):
            Mapping.parse(text)
