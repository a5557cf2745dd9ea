import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from arithdyn.degrees import heights_from_values
from arithdyn.errors import ContractViolation, NotAPoint
from arithdyn.heights import (ProjPointQ, format_down, format_float,
                              format_point, format_radius, format_up,
                              normalize, parse_point, weil_height)


def height_subvector_check(full, prefix_len) -> bool:
    """True iff dropping trailing coordinates cannot raise the height.

    Exact: compares the integer height arguments of the normalized full
    vector and its prefix.  A test oracle that must always hold.
    """
    if prefix_len < 1 or prefix_len > len(full):
        raise ContractViolation("prefix length out of range")
    prefix = list(full)[:prefix_len]
    full_arg = weil_height(normalize(full)).exact_arg
    prefix_arg = weil_height(normalize(prefix)).exact_arg
    return full_arg >= prefix_arg


def test_normalize_integers():
    assert normalize([4, 6]).coords == (2, 3)


def test_normalize_clears_denominators():
    assert normalize([Fraction(1, 2), Fraction(1, 3)]).coords == (3, 2)


def test_normalize_sign():
    assert normalize([-2, -4]).coords == (1, 2)


def test_normalize_idempotent():
    pt = normalize([Fraction(-3, 7), Fraction(9, 14), 0])
    assert normalize(pt.coords).coords == pt.coords


def test_normalize_rejects_zero():
    with pytest.raises(NotAPoint):
        normalize([0, 0, 0])


def test_weil_height_values():
    assert weil_height(normalize([1, 1])) == (0.0, 1)
    h = weil_height(normalize([2, 1]))
    assert h.exact_arg == 2 and h.value == math.log(2)
    assert weil_height(normalize([3, 2])).exact_arg == 3


def test_hplus_clamps():
    hs = heights_from_values(weil_height(normalize(p)).value
                             for p in ([1, 1], [2, 1], [100, 1]))
    assert hs.hplus_values[0] == 1.0
    assert hs.hplus_values[1] == 1.0  # log 2 < 1
    assert hs.hplus_values[2] == pytest.approx(math.log(100))


def test_subvector_examples():
    assert height_subvector_check([2, 1, 7], 2)
    assert height_subvector_check([2, 1, 0], 2)


def test_subvector_random_rationals():
    rng = random.Random(7)
    for _ in range(1000):
        n = rng.randint(2, 5)
        full = [Fraction(rng.randint(-40, 40), rng.randint(1, 30))
                for _ in range(n)]
        k = rng.randint(1, n - 1)
        if all(c == 0 for c in full[:k]):
            continue
        assert height_subvector_check(full, k)


def test_point_text_forms():
    assert parse_point("2,1") == [2, 1]
    assert parse_point("1/2,3,−4") == [Fraction(1, 2), 3, -4]
    assert format_point(ProjPointQ((2, 3))) == "[2 : 3]"


rationals = st.fractions(min_value=-50, max_value=50).map(
    lambda f: Fraction(f).limit_denominator(40))


@settings(max_examples=80, deadline=None)
@given(st.lists(rationals, min_size=2, max_size=5),
       st.fractions(min_value=Fraction(1, 20), max_value=20))
def test_height_scaling_invariance(coords, lam):
    if all(c == 0 for c in coords):
        return
    base = weil_height(normalize(coords))
    scaled = weil_height(normalize([lam * c for c in coords]))
    assert scaled == base


@settings(max_examples=80, deadline=None)
@given(st.lists(rationals, min_size=2, max_size=5), st.randoms())
def test_height_permutation_invariance(coords, rng):
    if all(c == 0 for c in coords):
        return
    shuffled = list(coords)
    rng.shuffle(shuffled)
    assert weil_height(normalize(shuffled)) == weil_height(normalize(coords))


@settings(max_examples=80, deadline=None)
@given(st.lists(rationals, min_size=2, max_size=5))
def test_height_nonnegative_zero_case(coords):
    if all(c == 0 for c in coords):
        return
    pt = normalize(coords)
    h = weil_height(pt)
    assert h.value >= 0.0 and h.exact_arg >= 1
    if h.value == 0.0:
        assert all(abs(c) <= 1 for c in pt.coords)


def test_directed_formats_enclose_the_float():
    assert [format_up(x) for x in (2.0, 1.0, 0.5, 5.0, 0.0)] == \
        ["2", "1", "0.5", "5", "0"]
    assert format_up(2 ** 0.5) == "1.41421357"
    assert format_down((3 + 5 ** 0.5) / 2) == "2.61803398"
    rng = random.Random(1919)
    for _ in range(2000):
        x = rng.choice((-1, 1)) * rng.random() * 10.0 ** rng.randint(-20, 20)
        up, down, near = (Fraction(f(x))
                          for f in (format_up, format_down, format_float))
        assert down <= Fraction(x) <= up
        assert near in (down, up)
        assert len(format_up(x).replace("-", "").replace(".", "")
                   .split("e")[0].lstrip("0")) <= 9
        radius = rng.random() * 10.0 ** rng.randint(-20, 0)
        printed = Fraction(format_radius(x, radius))
        assert near - printed <= Fraction(x) - Fraction(radius)
        assert Fraction(x) + Fraction(radius) <= near + printed
