"""Solver correctness against exhaustive enumeration, plus the design searches."""

import random
import sys
import threading
import time
from functools import partial
from itertools import combinations, permutations
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonseq_sts import (
    AlmostParallelClass,
    BudgetExceededError,
    Design,
    ExactCoverInstance,
    SegmentOracle,
    certified_psts,
    certified_sts,
    certify_nonsequenceable,
    exists_cover,
    find_apc,
    segment_partitionable,
    solve,
    verify_apc,
    verify_certificate,
)

from nonseq_sts import designs, exact_cover
from nonseq_sts.exact_cover import _first_partition
from oracles import (
    brute_force_apcs,
    exhaustive_cover_sets,
    fresh_first_partition,
    partitionable_by_enumeration,
    plain_first_partition,
    recursive_mask_partitionable,
)
from reference_systems import BASES, STS7_BLOCKS

from test_designs import develop_cyclic


def inst(universe, subsets):
    return ExactCoverInstance.build(universe, list(enumerate(subsets)))


class TestSolve:
    def test_identity_cover(self):
        sols = solve(inst(3, [(0, 1, 2)]), 10)
        assert [s.chosen for s in sols] == [frozenset({0})]

    def test_two_covers(self):
        sols = solve(inst(2, [(0,), (0, 1), (1,)]), 10)
        assert {s.chosen for s in sols} == {frozenset({0, 2}), frozenset({1})}

    def test_no_cover(self):
        assert solve(inst(3, [(0, 1), (1, 2)]), 10) == []

    def test_limit_respected(self):
        assert len(solve(inst(2, [(0,), (0, 1), (1,)]), 1)) == 1

    def test_empty_universe_has_empty_cover(self):
        sols = solve(inst(0, []), 5)
        assert [s.chosen for s in sols] == [frozenset()]

    def test_deterministic(self):
        subsets = [(0, 2), (1, 3), (0, 1), (2, 3), (0, 3), (1, 2)]
        a = [s.chosen for s in solve(inst(4, subsets), 100)]
        b = [s.chosen for s in solve(inst(4, subsets), 100)]
        assert a == b and len(a) == 3

    def test_budget_trips_and_is_distinct_from_no_solution(self):
        subsets = [(0,), (1,), (0, 1)]
        with pytest.raises(BudgetExceededError):
            solve(inst(2, subsets), 10, node_budget=0)
        with pytest.raises(BudgetExceededError) as info:
            solve(inst(2, subsets), 10, node_budget=1)
        assert (info.value.used, info.value.budget) == (1, 1)
        assert str(info.value) == "exact-cover search exceeded its budget of 1 nodes"
        # no-solution instances return [], they do not raise
        assert solve(inst(3, [(0, 1), (1, 2)]), 10, node_budget=1000) == []

    def test_bad_limit(self):
        with pytest.raises(ValueError):
            solve(inst(1, [(0,)]), 0)

    def test_instance_validation(self):
        with pytest.raises(ValueError):
            ExactCoverInstance.build(2, [(0, ())])  # empty subset
        with pytest.raises(ValueError):
            ExactCoverInstance.build(2, [(0, (0, 2))])  # out of range
        with pytest.raises(ValueError):
            ExactCoverInstance.build(2, [(0, (1, 1))])  # repeated element
        with pytest.raises(ValueError):
            ExactCoverInstance.build(2, [(0, (0,)), (0, (1,))])  # duplicate id


def random_instance(rng):
    universe = rng.randint(1, 12)
    n_cands = rng.randint(1, 18)
    subsets = []
    for _ in range(n_cands):
        size = rng.randint(1, min(4, universe))
        subsets.append(tuple(sorted(rng.sample(range(universe), size))))
    return universe, subsets


def test_solver_agrees_with_exhaustive_enumeration():
    """500 random instances, solver versus the 2^k subset oracle."""
    rng = random.Random(12345)
    for _ in range(500):
        universe, subsets = random_instance(rng)
        expected = exhaustive_cover_sets(universe, subsets)
        got = solve(inst(universe, subsets), limit=len(expected) + 5)
        assert {s.chosen for s in got} == expected
        for s in got:  # solution invariant, checked post hoc
            covered = set()
            for idx in s.chosen:
                elems = set(subsets[idx])
                assert not covered & elems
                covered |= elems
            assert covered == set(range(universe))
        assert exists_cover(inst(universe, subsets)) == bool(expected)


def test_exists_cover_edges():
    assert exists_cover(inst(0, []))
    assert not exists_cover(inst(1, []))


class TestFindApc:
    def test_order13_every_point(self):
        d = develop_cyclic(13, BASES[13])
        for x in range(13):
            apc = find_apc(d, x)
            assert apc is not None and apc.missed == x
            assert verify_apc(d, apc)

    def test_order7_has_none_and_brute_force_agrees(self):
        d = Design.from_blocks(7, STS7_BLOCKS)
        for x in range(7):
            assert find_apc(d, x) is None
            assert brute_force_apcs(7, d.blocks, x) == []

    def test_single_block(self):
        d = Design.from_blocks(4, [(0, 1, 2)])
        apc = find_apc(d, 3)
        assert apc == AlmostParallelClass.from_blocks([(0, 1, 2)], 3)
        assert find_apc(d, 0) is None

    def test_missed_out_of_range(self):
        with pytest.raises(ValueError):
            find_apc(Design.from_blocks(4, [(0, 1, 2)]), 4)

    @pytest.mark.parametrize("missed", [1.5, 1.0, True, False], ids=["1.5", "1.0", "True", "False"])
    def test_missed_that_is_not_an_int(self, missed):
        """A float or a bool is refused as an out-of-range point is, not
        searched: 1.5 would answer None, a false "no class", and True a
        class that misses True."""
        with pytest.raises(ValueError, match=f"missed point {missed} outside 0..12"):
            find_apc(develop_cyclic(13, BASES[13]), missed)


@pytest.fixture(scope="module")
def sts7():
    return Design.from_blocks(7, STS7_BLOCKS)


class TestSegmentPartitionable:
    def test_single_block_segment(self, sts7):
        assert segment_partitionable(sts7, {0, 1, 3})  # the block abd

    def test_size_not_multiple_of_three(self, sts7):
        assert not segment_partitionable(sts7, {0, 1, 2, 3})

    def test_non_block_triple(self, sts7):
        assert not segment_partitionable(sts7, {0, 1, 2})

    def test_empty_segment(self, sts7):
        assert segment_partitionable(sts7, ())

    def test_a_block_outside_the_points_cannot_be_made(self):
        with pytest.raises(ValueError):
            Design.from_blocks(7, [(-1, 0, 1), (2, 3, 4)])
        d = Design.from_blocks(7, [(2, 3, 4)])
        assert not segment_partitionable(d, [-1, 0, 1])  # no block covers the stray point
        assert not segment_partitionable(d, [-1, 0, 1, 2, 3, 4])

    def test_three_points_are_a_lookup(self):
        """Every 3-point set over the points and the strays -1 and n, blocks
        and non-blocks alike, agrees with enumeration and links no matrix."""
        n = 8
        d = Design.from_blocks(n, [(0, 1, 2), (0, 3, 4), (1, 3, 5), (2, 6, 7)])
        assert d not in exact_cover._design_matrices
        for seg in combinations(range(-1, n + 1), 3):
            assert segment_partitionable(d, seg) == partitionable_by_enumeration(d.blocks, seg), seg
        assert d not in exact_cover._design_matrices

    @pytest.mark.parametrize("point", [True, 1.0, 2.0], ids=["True", "1.0", "2.0"])
    def test_points_that_are_not_ints(self, point):
        """``True == 1`` and ``1.0 == 1`` would otherwise pass for point 1,
        and the segment would partition."""
        d = Design.from_blocks(3, [(0, 1, 2)])
        others = [p for p in (0, 1, 2) if p != point]
        with pytest.raises(ValueError, match=f"segment point {point!r} is not an int"):
            segment_partitionable(d, [point, *others])

    def test_agrees_with_enumeration_on_all_order7_segments(self, sts7):
        for perm in permutations(range(7)):
            for i in range(7):
                for j in range(i, 7):
                    seg = perm[i : j + 1]
                    assert segment_partitionable(sts7, seg) == partitionable_by_enumeration(
                        STS7_BLOCKS, seg
                    ), (perm, seg)


@pytest.mark.parametrize(
    "n, blocks",
    [
        (9, ((0, 0, 1), (2, 2, 3), (4, 4, 5))),
        (7, ((0, 1), (2, 3, 4))),
        (7, ((0, 1, 2, 3), (4, 5, 6))),
    ],
    ids=["repeated-point", "pair", "quadruple"],
)
def test_designs_with_malformed_rows_cannot_be_made(n, blocks):
    """A block that is not 3 distinct points never reaches either engine:
    the design is refused when it is made."""
    with pytest.raises(ValueError):
        Design(n, blocks)
    with pytest.raises(ValueError):
        Design.from_blocks(n, blocks)


# Full systems of orders 7 and 13, and a 9-point partial system that is
# not maximal: every design below is one of these minus drawn blocks.
ORACLE_BASES = (
    Design.from_blocks(7, STS7_BLOCKS),
    develop_cyclic(13, BASES[13]),
    Design.from_blocks(9, [(0, 1, 2), (3, 4, 5), (0, 3, 6), (1, 4, 7)]),
)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_segment_oracle_agrees_with_segment_partitionable(data):
    """The memoized bitmask oracle of the sequence search and the
    dancing-links path must be interchangeable on arbitrary point sets of
    a PSTS, the whole point set included, and the subset-enumeration
    oracle agrees on every proper subset of the points (the whole set of
    13 points would mean enumerating 2^26 block subsets).  Each example
    asks each base system and a drawn subsystem of it the same questions,
    through one oracle per design: a drawn point set, then every segment
    of a drawn ordering whose size is a multiple of 3, as the sequence
    search would, so most questions meet a warm memo."""
    for base in ORACLE_BASES:
        n = base.n
        removed = data.draw(st.sets(st.sampled_from(base.blocks)))
        reduced = Design.from_blocks(n, (blk for blk in base.blocks if blk not in removed))
        oracles = [(d, SegmentOracle(d, lambda: None)) for d in (base, reduced)]
        for _ in range(data.draw(st.integers(1, 3))):
            size = data.draw(st.integers(0, n))
            order = data.draw(st.permutations(range(n)))
            points = order[:size]
            for d, oracle in oracles:
                expected = segment_partitionable(d, points)
                mask = sum(1 << p for p in points)
                assert (size % 3 == 0 and oracle.mask_partitionable(mask)) == expected, points
                if size < n:
                    assert partitionable_by_enumeration(d.blocks, points) == expected, points
                for i in range(n):
                    for j in range(i + 3, n + 1, 3):
                        seg = order[i:j]
                        mask = sum(1 << p for p in seg)
                        assert oracle.mask_partitionable(mask) == segment_partitionable(d, seg), seg


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_segment_oracle_misses_as_the_recursion_does(data):
    """The oracle's explicit stack meets the memo misses of the plain
    recursion in the same order: question for question, both give the same
    answer after the same number of ``on_miss`` calls, trip on the same
    drawn miss, and leave the same decisions in their memos in the same
    order."""
    base = data.draw(st.sampled_from(ORACLE_BASES))
    removed = data.draw(st.sets(st.sampled_from(base.blocks)))
    d = Design.from_blocks(base.n, (blk for blk in base.blocks if blk not in removed))
    trip = data.draw(st.one_of(st.none(), st.integers(1, 30)))

    def counter(misses):
        def on_miss():
            misses.append(1)
            if len(misses) == trip:
                raise BudgetExceededError("tripped")

        return on_miss

    got_misses, ref_misses = [], []
    oracle = SegmentOracle(d, on_miss=counter(got_misses))
    ref_memo = {0: True}
    for points in data.draw(st.lists(st.sets(st.integers(0, d.n - 1)), min_size=1, max_size=6)):
        mask = sum(1 << p for p in sorted(points)[: len(points) - len(points) % 3])
        answers = []
        for ask in (
            oracle.mask_partitionable,
            partial(recursive_mask_partitionable, oracle._blocks_at, ref_memo, counter(ref_misses)),
        ):
            try:
                answers.append(ask(mask))
            except BudgetExceededError:
                answers.append("tripped")
        assert answers[0] == answers[1], sorted(points)
        assert len(got_misses) == len(ref_misses)
        assert list(oracle._memo.items()) == list(ref_memo.items())


def test_segment_oracle_answers_past_the_recursion_limit():
    """Points 0..2999 of the order-3001 design with blocks {3i, 3i+1,
    3i+2} take 1000 nested decisions, one miss each; a call per decision
    passed Python's recursion limit."""
    d = Design.from_blocks(3001, [(3 * i, 3 * i + 1, 3 * i + 2) for i in range(1000)])
    misses = []
    oracle = SegmentOracle(d, on_miss=lambda: misses.append(1))
    assert oracle.mask_partitionable((1 << 3000) - 1)
    assert len(misses) == 1000


def test_find_apc_matches_brute_force_on_reduced_designs():
    """Counts agree with exhaustive enumeration when blocks are deleted."""
    d = develop_cyclic(13, BASES[13])
    rng = random.Random(7)
    blocks = list(d.blocks)
    for _ in range(5):
        keep = [b for b in blocks if rng.random() > 0.15]
        reduced = Design.from_blocks(13, keep)
        for x in range(0, 13, 3):
            got = find_apc(reduced, x)
            expected = brute_force_apcs(13, reduced.blocks, x)
            assert (got is not None) == bool(expected)
            if got is not None:
                assert verify_apc(reduced, got)


# The order-13 and order-19 starter systems; drawn blocks are deleted.
STARTERS = (develop_cyclic(13, BASES[13]), develop_cyclic(19, BASES[19]))


def greedy_partial_system(draw, n: int) -> Design:
    """Drawn triples on n points, each kept if it shares no pair with one
    kept before it."""
    triples = list(combinations(range(n), 3))
    drawn = draw(st.lists(st.sampled_from(triples), unique=True, max_size=60)) if triples else []
    blocks, pairs = [], set()
    for blk in drawn:
        bp = set(combinations(blk, 2))
        if not pairs & bp:
            pairs |= bp
            blocks.append(blk)
    return Design.from_blocks(n, blocks)


@st.composite
def shared_matrix_designs(draw):
    """A greedy partial system on up to 13 points, or a starter system with
    drawn blocks deleted."""
    if draw(st.booleans()):
        return greedy_partial_system(draw, draw(st.integers(0, 13)))
    base = draw(st.sampled_from(STARTERS))
    removed = draw(st.sets(st.sampled_from(base.blocks), max_size=12))
    return Design.from_blocks(base.n, (blk for blk in base.blocks if blk not in removed))


@st.composite
def partition_questions(draw, n: int):
    """A point set and a node budget.  The point sets are drawn subsets,
    complements of one point (the question of ``find_apc``), the empty and
    the full set, and sets with a point outside 0..n-1; one budget in three
    is small enough to trip."""
    kind = draw(st.sampled_from(["subset", "complement", "empty", "full", "stray"]))
    if kind == "subset" or (kind == "complement" and n == 0):
        points = draw(st.sets(st.integers(0, n - 1))) if n else set()
    elif kind == "complement":
        points = set(range(n)) - {draw(st.integers(0, n - 1))}
    elif kind == "empty":
        points = set()
    elif kind == "full":
        points = set(range(n))
    else:
        points = draw(st.sets(st.integers(0, n - 1))) if n else set()
        points.add(draw(st.sampled_from([-1, n, n + 4])))
    budget = draw(st.one_of(st.none(), st.none(), st.integers(0, 6)))
    return points, budget


def partition_answer(first_partition, d, points, budget):
    """(chosen, rows), or ("budget", budget, budget) for the answer of a
    question stopped by its budget: no partition and one row past it."""
    chosen, rows = first_partition(d, points, budget)
    if budget is not None and rows > budget:
        assert (chosen, rows) == (None, budget + 1), (chosen, rows)
        return "budget", budget, budget
    return chosen, rows


def linked_now(d):
    """The shared matrix of d as its links stand: per column, left to
    right, its index, size and row ids top to bottom and bottom to top.
    Walks at most one lap more than an intact matrix has, so a damaged
    one cannot loop forever."""
    matrix = exact_cover._design_matrices[d]
    laps = len(d.blocks) + 2
    walked = []
    col = matrix.header.right
    while col is not matrix.header and len(walked) <= d.n:
        down, up = [], []
        node = col.down
        while node is not col and len(down) < laps:
            down.append(node.row_id)
            node = node.down
        node = col.up
        while node is not col and len(up) < laps:
            up.append(node.row_id)
            node = node.up
        walked.append((col.index, col.size, down, up[::-1]))
        col = col.right
    return walked


def intact(d):
    blocks = sorted(d.block_set)
    return [
        (i, len(through), through, through)
        for i in range(d.n)
        for through in [[blk for blk in blocks if i in blk]]
    ]


@settings(max_examples=150, deadline=None, derandomize=True)
@given(data=st.data())
def test_shared_matrix_agrees_with_a_fresh_instance(data):
    """A drawn series of questions on one design object gets, answer for
    answer, the first partition and row count of a freshly linked instance
    that replays the restart schedule, or the same stop at its budget.
    After every question the shared matrix is linked as it was before the
    first one, whether the question found a partition, exhausted its
    search or ran out of budget.  Questions on these designs stay under
    the real first cap, so two examples in three lower it and cross
    restarts."""
    d = data.draw(shared_matrix_designs())
    cap = data.draw(st.sampled_from([exact_cover._FIRST_CAP, 1, 5]))
    try:
        with mock.patch.object(exact_cover, "_FIRST_CAP", cap):
            for _ in range(data.draw(st.integers(1, 10))):
                points, budget = data.draw(partition_questions(d.n))
                got = partition_answer(_first_partition, d, points, budget)
                fresh = partition_answer(partial(fresh_first_partition, first_cap=cap), d, points, budget)
                assert got == fresh, (sorted(points), budget)
                if d in exact_cover._design_matrices:  # a stray point links nothing
                    assert linked_now(d) == intact(d), (sorted(points), budget)
    finally:
        # Equal designs share a matrix, and the starters live on; a matrix
        # damaged here must not hang the examples replayed after a failure.
        exact_cover._design_matrices.pop(d, None)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(d=shared_matrix_designs(), data=st.data())
def test_first_attempt_is_the_plain_search(d, data):
    """A question the plain search decides within the first cap gets its
    partition and row count, as before restarts; one it does not gets the
    same verdict after more rows than the cap."""
    points, _ = data.draw(partition_questions(d.n))
    if any(not 0 <= p < d.n for p in points):
        return  # answered before any search
    chosen, rows = _first_partition(d, points)
    plain_chosen, plain_rows = plain_first_partition(d, points)
    if plain_rows <= exact_cover._FIRST_CAP:
        assert (chosen, rows) == (plain_chosen, plain_rows)
    else:
        assert rows > exact_cover._FIRST_CAP and (chosen is None) == (plain_chosen is None)


def test_a_capped_search_stops_one_row_past_its_cap_and_unwinds():
    """The row that would pass the cap is counted but not applied: the
    search returns no cover and a count of cap + 1, and leaves the matrix
    as it found it.  All 13 points of the order-13 starter have no cover,
    which the uncapped search decides in 35 rows."""
    d = develop_cyclic(13, BASES[13])
    matrix = exact_cover._design_matrix(d)
    assert matrix.search(1, None) == ([], 35)
    for cap in range(35):
        assert matrix.search(1, cap) == ([], cap + 1), cap
        assert linked_now(d) == intact(d), cap
    assert matrix.search(1, 35) == ([], 35)


@st.composite
def apc_designs(draw):
    """A greedy partial system on 10 or 13 points, or the order-13 starter
    with drawn blocks deleted: small enough for ``brute_force_apcs``."""
    if draw(st.booleans()):
        return greedy_partial_system(draw, draw(st.sampled_from([10, 13])))
    base = STARTERS[0]
    removed = draw(st.sets(st.sampled_from(base.blocks)))
    return Design.from_blocks(base.n, (blk for blk in base.blocks if blk not in removed))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(d=apc_designs(), cap=st.sampled_from([1, 2, 3, 8]))
def test_find_apc_past_the_cap_is_none_iff_no_class_exists(d, cap):
    """With the first cap lowered until the questions cross restarts,
    ``find_apc`` still returns None exactly when exhaustive enumeration
    finds no almost parallel class, and a valid class otherwise."""
    with mock.patch.object(exact_cover, "_FIRST_CAP", cap):
        for x in range(d.n):
            apc = find_apc(d, x)
            assert (apc is None) == (brute_force_apcs(d.n, d.blocks, x) == []), x
            assert apc is None or verify_apc(d, apc)


@pytest.fixture(scope="module")
def sts37():
    return certified_sts(37).design


def test_restarts_at_the_real_cap_agree_with_a_fresh_instance(sts37):
    """On order 37 many ``find_apc`` questions cross the real first cap.
    Each gets the fresh instance's answer, the plain search's when it stays
    under the cap; a budget equal to its rows gives the same answer, and
    one row less stops undecided, one row past the budget."""
    crossed = 0
    for x in range(37):
        points = set(range(37)) - {x}
        chosen, rows = _first_partition(sts37, points)
        assert (chosen, rows) == fresh_first_partition(sts37, points)
        plain = plain_first_partition(sts37, points)
        if plain[1] <= exact_cover._FIRST_CAP:
            assert (chosen, rows) == plain
        assert _first_partition(sts37, points, rows) == (chosen, rows)
        assert _first_partition(sts37, points, rows - 1) == (None, rows)
        assert fresh_first_partition(sts37, points, rows - 1) == (None, rows)
        crossed += rows > exact_cover._FIRST_CAP
    assert crossed > 0
    assert linked_now(sts37) == intact(sts37)


def test_heavy_tail_points_of_order_109_finish_in_few_rows():
    """Points 14, 90 and 105 of the seed-0 order-109 system took 18-20 s
    (14, 105) and 3.7 s (90) for one plain search.  With restarts each
    finds a class in under 20 000 rows and leaves the matrix intact."""
    d = certified_sts(109, seed=0).design
    for x in (14, 90, 105):
        chosen, rows = _first_partition(d, set(range(109)) - {x})
        assert chosen is not None and rows < 20_000, (x, rows)
        assert verify_apc(d, AlmostParallelClass(chosen, x))
        assert linked_now(d) == intact(d), x


def test_certifying_the_37_2_design_searches_few_rows(monkeypatch):
    """``certify_nonsequenceable`` on the ``certified_psts(37, 2)`` design,
    with no known classes, searched 659 968 rows (4 s) before restarts;
    it now needs under 20 000."""
    d = certified_psts(37, 2).design
    spent = []

    def counted(d, points, node_budget=None):
        chosen, rows = _first_partition(d, points, node_budget)
        spent.append(rows)
        return chosen, rows

    monkeypatch.setattr(exact_cover, "_first_partition", counted)
    assert verify_certificate(d, certify_nonsequenceable(d))
    assert len(spent) == 37 and sum(spent) < 20_000, sum(spent)


def test_equal_designs_hash_once_and_share_a_matrix(monkeypatch):
    """A design's hash visits its blocks once, however often the per-design
    tables look it up; an equal design built apart hashes equal and finds
    the same matrix."""
    hashed = []
    monkeypatch.setattr(designs, "hash", lambda value: hashed.append(value) or hash(value), raising=False)
    d = Design(4, ((0, 1, 2),))
    assert hash(d) == hash(d) == hash((4, ((0, 1, 2),)))
    assert hashed == [(4, ((0, 1, 2),))]
    blocks = list(develop_cyclic(13, BASES[13]).blocks)
    a, b = Design.from_blocks(13, blocks), Design.from_blocks(13, blocks[::-1])
    assert a is not b and a == b and hash(a) == hash(b)
    assert find_apc(a, 0) == find_apc(b, 0)
    assert exact_cover._design_matrix(a) is exact_cover._design_matrix(b)


def test_shared_matrix_under_four_threads():
    """Four threads, more than the cores of a small host, interleave
    questions on one design; each gets the answers of a fresh instance."""
    d = develop_cyclic(31, BASES[31])
    questions = [(set(range(31)) - {x}, None) for x in range(31)]
    questions += [(set(range(31)) - {x, (x + 5) % 31, (x + 11) % 31, (x + 17) % 31}, 40) for x in range(31)]
    expected = [partition_answer(fresh_first_partition, d, pts, budget) for pts, budget in questions]
    forward = list(range(len(questions)))
    orders = [forward, forward[::-1], forward[20:] + forward[:20], forward[45:] + forward[:45]]
    start = threading.Barrier(len(orders))
    answers: dict[int, list] = {}

    def ask(k: int) -> None:
        start.wait()
        answers[k] = [(i, partition_answer(_first_partition, d, *questions[i])) for i in orders[k] * 3]

    old_interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=ask, args=(k,), daemon=True) for k in range(len(orders))]
        for thread in threads:
            thread.start()
        deadline = time.monotonic() + 60  # a corrupted matrix can loop forever
        for thread in threads:
            thread.join(timeout=max(0.0, deadline - time.monotonic()))
    finally:
        sys.setswitchinterval(old_interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(answers) == len(orders)
    for got in answers.values():
        for i, answer in got:
            assert answer == expected[i], sorted(questions[i][0])
