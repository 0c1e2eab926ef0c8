"""Construction, composition and enumeration of the transformation monoid."""

import itertools
import random
import re
import sys
import time

import pytest

from cyclorient import (
    Mapping,
    Seq,
    classify,
    compose,
    enumerate_all,
    identity,
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


def test_mapping_call_refuses_points_off_the_cycle():
    m = Mapping(3, (0, 1, 2))
    for bad in (-1, 3):
        with pytest.raises(ValueError, match=rf"point {bad} outside \[0, 3\)"):
            m(bad)
    with pytest.raises(ValueError, match="must be integers"):
        m(1.0)


def test_special_maps():
    assert reversal(5).images == (4, 3, 2, 1, 0)
    assert rotation(4).images == (1, 2, 3, 0)
    assert identity(3).images == (0, 1, 2)
    # Sizes must be integers, refused before any image is built.
    for special in (identity, rotation, reversal):
        with pytest.raises(ValueError, match=r"cycle size 3\.0 and images"):
            special(3.0)
        with pytest.raises(ValueError, match="cycle size must be positive"):
            special(0)
    assert rotation(Index(3)).images == (1, 2, 0)


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
        assert tuple(map(compose(a, b), s)) == tuple(map(b, map(a, s)))


def test_image_size_shrinks_under_composition():
    maps3 = list(enumerate_all(3))
    for a, b in itertools.product(maps3, repeat=2):
        rank = classify(compose(a, b)).image_size
        assert rank <= classify(b).image_size
        assert rank <= classify(a).image_size
    rng = random.Random(77)
    for _ in range(200):
        a = Mapping(5, tuple(rng.randrange(5) for _ in range(5)))
        b = Mapping(5, tuple(rng.randrange(5) for _ in range(5)))
        rank = classify(compose(a, b)).image_size
        assert rank <= min(classify(a).image_size, classify(b).image_size)


def test_enumerate_all_small():
    assert [m.images for m in enumerate_all(1)] == [(0,)]
    maps = list(enumerate_all(3))
    assert len(maps) == 3**3
    assert len(set(maps)) == 27
    assert maps == sorted(maps, key=lambda m: m.images)


def test_enumerate_all_bounds_n6():
    first = next(enumerate_all(6))
    assert first.images == (0, 0, 0, 0, 0, 0)
    last = list(enumerate_all(6, 6**6 - 1))
    assert len(last) == 1 and last[0].images == (5, 5, 5, 5, 5, 5)


def test_enumerate_all_past_sys_maxsize():
    # 16**16 exceeds sys.maxsize, the largest index islice takes: the end of
    # the range still works, and an index past sys.maxsize is refused in the
    # library's words.
    assert next(enumerate_all(16)).images == (0,) * 16
    within = rf"must be within 0\.\.{sys.maxsize}, got {2**63}$"
    with pytest.raises(ValueError, match="range start " + within):
        enumerate_all(16, 2**63)
    with pytest.raises(ValueError, match="range stop " + within):
        enumerate_all(16, 0, 2**63)


def test_enumerate_all_at_a_large_n_does_not_compute_n_to_the_n():
    # Its bounds need at most n**16: computing 1000000**1000000 took seconds.
    started = time.perf_counter()
    enumerate_all(10**6)
    assert time.perf_counter() - started < 0.5


def test_enumerate_all_builds_no_product_at_the_call():
    # itertools.product copies its n pools at construction, ~53 MiB at
    # n = 10**6; the call must leave that to the first next().
    import tracemalloc

    tracemalloc.start()
    try:
        enumerate_all(10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1024 * 1024, peak


def test_enumerate_all_checks_its_arguments_at_the_call():
    # No next() here: a bad size or range is refused before any iteration.
    for args in ((2, 5), (2.5,), (0,)):
        with pytest.raises(ValueError):
            enumerate_all(*args)


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
    # Range ends must be integers within 0..n^n, refused in the library's words.
    with pytest.raises(ValueError, match=r"range start must be an integer, got 1\.5"):
        list(enumerate_all(3, 1.5))
    with pytest.raises(ValueError, match=r"range stop must be an integer, got 1\.5"):
        list(enumerate_all(3, 0, 1.5))
    with pytest.raises(ValueError, match=r"range stop must be within 5\.\.27, got 30"):
        list(enumerate_all(3, 5, 30))
    assert list(enumerate_all(3, Index(25))) == full[25:]


def test_mapping_parse_names_a_bad_entry():
    for text, entry in (("a,b", "'a'"), ("0,,1", "''"), ("", "''")):
        with pytest.raises(ValueError, match=f"map entry {entry} is not an integer"):
            Mapping.parse(text)


def test_mapping_parse_reads_only_ascii_digits():
    # Bare int() would read 1_0 as 10 and accept full-width digits.
    for entry in ("1_0", "０", "²", "+-1", "1 0"):
        with pytest.raises(ValueError, match=re.escape(f"map entry '{entry}' is not an integer")):
            Mapping.parse(f"0,{entry}")
    assert Mapping.parse(" +1 , 0 ") == Mapping(2, (1, 0))
    with pytest.raises(ValueError, match=r"image -1 outside \[0, 2\)"):
        Mapping.parse("0,-1")
