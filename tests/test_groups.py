"""The one group type of the difference method, Z_m1 x ... x Z_mk, against
coordinate-wise arithmetic on element tuples."""

from collections import Counter
from itertools import permutations, product
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonseq_sts import AbelianGroup, CyclicGroup, ProductGroup, develop, difference_coverage
from nonseq_sts.designs import canonical_block

moduli_lists = st.lists(st.integers(2, 6), min_size=1, max_size=3).map(tuple).filter(lambda m: prod(m) >= 3)


def notation(coords: tuple) -> object:
    """Element notation: an int for one factor, a tuple otherwise."""
    return coords[0] if len(coords) == 1 else coords


def point(moduli, coords) -> int:
    """Mixed radix: (x1, ..., xk) is x1*m2*...*mk + ... + xk."""
    i = 0
    for x, m in zip(coords, moduli):
        i = i * m + x
    return i


def shift(moduli, x, y, sign=1) -> tuple:
    return tuple((a + sign * b) % m for a, b, m in zip(x, y, moduli))


def coordinates(moduli):
    return st.tuples(*(st.integers(0, m - 1) for m in moduli))


def test_points_are_mixed_radix():
    assert AbelianGroup((3, 4, 5)).index((1, 2, 3)) == 1 * 20 + 2 * 5 + 3
    assert AbelianGroup((3, 4, 5)).element(33) == (1, 2, 3)
    assert ProductGroup(5, 5).index((2, 3)) == 13 and ProductGroup(5, 5).element(13) == (2, 3)
    assert list(CyclicGroup(7).elements()) == list(range(7))
    assert CyclicGroup(13).index(-1) == 12
    assert ProductGroup(5, 5) == AbelianGroup((5, 5))


@pytest.mark.parametrize("moduli", [(), (2,), (1, 5), (5, 1)])
def test_degenerate_groups_rejected(moduli):
    with pytest.raises(ValueError):
        AbelianGroup(moduli)


def test_index_needs_one_coordinate_per_factor():
    with pytest.raises(ValueError):
        ProductGroup(5, 5).index((1, 2, 3))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(data=st.data())
def test_arithmetic_on_points_is_coordinatewise(data):
    moduli = data.draw(moduli_lists)
    group = AbelianGroup(moduli)
    x, y = data.draw(coordinates(moduli)), data.draw(coordinates(moduli))
    sign = data.draw(st.sampled_from([1, -1]))
    assert group.index(notation(x)) == point(moduli, x)
    assert group.element(point(moduli, x)) == notation(x)
    assert group.add(point(moduli, x), point(moduli, y), sign) == point(moduli, shift(moduli, x, y, sign))


@settings(max_examples=100, deadline=None, derandomize=True)
@given(data=st.data())
def test_develop_and_coverage_agree_with_coordinates(data):
    moduli = data.draw(moduli_lists)
    group = AbelianGroup(moduli)
    starter = data.draw(st.lists(coordinates(moduli), min_size=3, max_size=3, unique=True))
    base = [tuple(notation(c) for c in starter)]
    translates = list(product(*(range(m) for m in moduli)))
    orbit = [canonical_block(point(moduli, shift(moduli, c, t)) for c in starter) for t in translates]
    if len(set(orbit)) < group.order:
        with pytest.raises(ValueError, match="short orbit"):
            develop(base, group)
    else:
        assert develop(base, group).blocks == tuple(sorted(orbit))
    expected = Counter(notation(shift(moduli, a, b, -1)) for a, b in permutations(starter, 2))
    assert difference_coverage(base, group) == expected
