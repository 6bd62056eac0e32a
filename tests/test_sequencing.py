"""Admissibility, exhaustive sequencing, certification, explanations."""

import random
import re
import time
from itertools import combinations, permutations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nonseq_sts import (
    AlmostParallelClass,
    BudgetExceededError,
    CertificationError,
    Design,
    SegmentOracle,
    SegmentPolicy,
    base_case,
    bose_sts,
    certified_psts,
    certified_sts,
    certify_nonsequenceable,
    explain_nonsequenceable,
    find_admissible_sequence,
    find_apc,
    is_admissible,
    segment_partitionable,
    verify_apc,
    verify_certificate,
)

from nonseq_sts import exact_cover, sequencing
from nonseq_sts.exact_cover import _first_partition
from oracles import admissible_by_enumeration, plain_sequence_search
from reference_systems import STS7_BLOCKS

BOTH_POLICIES = (SegmentPolicy.ALL_INTERVALS, SegmentPolicy.PREFIXES_AND_SUFFIXES)


@pytest.fixture(scope="module")
def sts7():
    return Design.from_blocks(7, STS7_BLOCKS)


@st.composite
def small_designs(draw, max_n: int = 8):
    """(n, blocks) on up to ``max_n`` points: a greedy partial system, or a
    sparse or dense set of distinct triples (the dense ones give most of
    the designs with no admissible sequence)."""
    n = draw(st.integers(0, max_n))
    triples = list(combinations(range(n), 3))
    drawn = draw(st.lists(st.sampled_from(triples), unique=True)) if triples else []
    kind = draw(st.sampled_from(["partial", "sparse", "dense"]))
    if kind == "sparse":
        return n, drawn
    if kind == "dense":
        return n, [blk for blk in triples if blk not in drawn]
    blocks, pairs = [], set()
    for blk in drawn:
        bp = set(combinations(blk, 2))
        if not pairs & bp:
            pairs |= bp
            blocks.append(blk)
    return n, blocks


class TestIsAdmissible:
    @pytest.mark.parametrize("policy", BOTH_POLICIES)
    def test_published_order7_sequence(self, sts7, policy):
        assert is_admissible(sts7, range(7), policy)  # a b c d e f g

    def test_block_as_interior_segment(self):
        d = Design.from_blocks(4, [(0, 1, 2)])
        assert not is_admissible(d, [3, 0, 1, 2][::-1])
        assert not is_admissible(d, [0, 1, 2, 3])
        assert is_admissible(d, [0, 1, 3, 2])

    def test_interleaved_blocks_without_a_block_window(self):
        """Two blocks interleaved as a 6-point prefix: no 3-point window is a
        block, so only the longer segments refuse the sequence."""
        d = Design.from_blocks(7, [(0, 1, 2), (3, 4, 5)])
        for policy in BOTH_POLICIES:
            assert not is_admissible(d, [0, 3, 1, 4, 2, 5, 6], policy)
            assert is_admissible(d, [0, 3, 1, 6, 4, 2, 5], policy)

    def test_whole_sequence_is_not_proper(self):
        d = Design.from_blocks(3, [(0, 1, 2)])
        assert is_admissible(d, [0, 1, 2])

    def test_not_a_permutation(self, sts7):
        with pytest.raises(ValueError):
            is_admissible(sts7, [0, 0, 1, 2, 3, 4, 5])

    @pytest.mark.parametrize("seq", [(True, 0, 2), (1.0, 0, 2), (0, 1, 2.0)], ids=["True", "1.0", "2.0"])
    def test_points_that_are_not_ints(self, seq):
        """True and 1.0 sort and compare as 1, yet they are not points: the
        sequence is refused as a non-permutation is."""
        with pytest.raises(ValueError, match="must be a permutation of 0..2"):
            is_admissible(Design.from_blocks(3, []), seq)

    @pytest.mark.parametrize("policy", BOTH_POLICIES)
    def test_agrees_with_enumeration_oracle(self, sts7, policy):
        """Random orderings of the STS(7) and of the sequenceable order-13
        removal design.  On the latter, the sequence the search finds and
        two adjacent transpositions of it add orderings of all 13 points that
        are admissible or are refuted only by a long segment."""
        all_intervals = policy is SegmentPolicy.ALL_INTERVALS
        rng = random.Random(11)
        _, d13 = removal_design(13, 2)
        found = list(find_admissible_sequence(d13, policy))
        swapped = [found[:i] + [found[i + 1], found[i]] + found[i + 2 :] for i in (4, 8)]
        admissible13 = 0
        for d, shuffles, extra in ((sts7, 40, []), (d13, 10, [found] + swapped)):
            seqs = []
            for _ in range(shuffles):
                seq = list(range(d.n))
                rng.shuffle(seq)
                seqs.append(seq)
            for seq in seqs + extra:
                expected = admissible_by_enumeration(d.n, d.blocks, seq, all_intervals=all_intervals)
                assert is_admissible(d, seq, policy) == expected, seq
                admissible13 += expected and d is d13
        assert admissible13

    def test_policy_monotonicity(self, sts7):
        """Admissible under all intervals implies admissible under
        prefixes-and-suffixes (the latter checks a subset of segments)."""
        rng = random.Random(13)
        designs = [Design.from_blocks(7, STS7_BLOCKS), base_case(13).design]
        for d in designs:
            for _ in range(100):
                seq = list(range(d.n))
                rng.shuffle(seq)
                if is_admissible(d, seq, SegmentPolicy.ALL_INTERVALS):
                    assert is_admissible(d, seq, SegmentPolicy.PREFIXES_AND_SUFFIXES)


    @pytest.mark.parametrize("last", [2, 108])
    def test_order109_refuted_by_its_prefix(self, last):
        """On the certified STS(109) the n-1 prefix is partitionable.  A
        memoised bitmask search over that 108-point segment exhausted 1 GB;
        one dancing-links search decides it in milliseconds."""
        d = certified_sts(109).design
        seq = [p for p in range(109) if p != last] + [last]
        # no 3-window is a block, so the refusal comes from the n-1 prefix
        assert not any(tuple(sorted(seq[i : i + 3])) in d.block_set for i in range(107))
        assert not is_admissible(d, seq)

    @pytest.mark.parametrize("policy", BOTH_POLICIES)
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(design=small_designs(), data=st.data())
    def test_agrees_with_enumeration_on_small_designs(self, policy, design, data):
        """Partial, sparse and dense designs, where a 3-point window may or
        may not be a block, on drawn orderings of their points."""
        n, blocks = design
        all_intervals = policy is SegmentPolicy.ALL_INTERVALS
        d = Design.from_blocks(n, blocks)
        memo: dict = {}
        for seq in data.draw(st.lists(st.permutations(range(n)), min_size=1, max_size=6)):
            expected = admissible_by_enumeration(n, d.blocks, seq, all_intervals, memo)
            assert is_admissible(d, seq, policy) == expected, seq

    @pytest.mark.parametrize("policy", BOTH_POLICIES)
    def test_a_block_window_refuses_without_dancing_links(self, monkeypatch, policy):
        """A sequence that opens with a block is refused by a lookup, before
        the n-1 prefix or any other segment reaches dancing links."""

        def unreachable(*args, **kwargs):
            raise AssertionError("a dancing-links question was asked")

        d = base_case(13).design
        blk = d.blocks[5]
        seq = [*blk, *(p for p in range(13) if p not in blk)]
        monkeypatch.setattr(exact_cover, "_first_partition", unreachable)
        assert not is_admissible(d, seq, policy)


class TestFindAdmissibleSequence:
    def test_order7_has_a_sequence(self, sts7):
        seq = find_admissible_sequence(sts7)
        assert seq is not None
        assert is_admissible(sts7, seq)

    def test_empty_design(self):
        assert find_admissible_sequence(Design(3, ())) == (0, 1, 2)
        assert find_admissible_sequence(Design(0, ())) == ()

    def test_single_block_design(self):
        seq = find_admissible_sequence(Design.from_blocks(4, [(0, 1, 2)]))
        assert seq == (0, 1, 3, 2)

    def test_long_one_block_design_has_a_sequence(self):
        """The prefix is the search's own stack, so 1100 places nest no
        calls; a recursion per place passed Python's limit."""
        seq = find_admissible_sequence(Design.from_blocks(1100, [(0, 1, 2)]))
        assert sorted(seq) == list(range(1100))
        first, _, last = sorted(seq.index(p) for p in (0, 1, 2))
        assert last - first > 2  # the block is not a segment

    def test_budget_exhaustion(self, sts7):
        with pytest.raises(BudgetExceededError) as info:
            find_admissible_sequence(sts7, node_budget=1)
        assert (info.value.used, info.value.budget) == (1, 1)
        assert str(info.value) == "sequence search exceeded its budget of 1 nodes"

    @pytest.mark.parametrize("budget", [13.0, True, -1, "13", None], ids=repr)
    def test_a_budget_that_is_not_an_int_of_at_least_0_is_refused_first(self, sts7, budget, monkeypatch):
        def no_search(*args, **kwargs):
            raise AssertionError("searched")

        monkeypatch.setattr(sequencing, "_first_partition", no_search)
        monkeypatch.setattr(sequencing, "_class_candidates", no_search)
        with pytest.raises(ValueError, match="node_budget must be an int >= 0"):
            find_admissible_sequence(sts7, node_budget=budget)

    def test_a_budget_of_0_is_accepted(self):
        assert find_admissible_sequence(Design.from_blocks(1, []), node_budget=0) == (0,)

    @pytest.mark.parametrize("policy", BOTH_POLICIES)
    def test_self_consistency(self, sts7, policy):
        seq = find_admissible_sequence(sts7, policy)
        assert is_admissible(sts7, seq, policy)

    @pytest.mark.parametrize("policy", BOTH_POLICIES)
    @settings(max_examples=150, deadline=None, derandomize=True)
    @given(design=small_designs())
    @example(design=(8, [(0, 1, 2), (3, 4, 5), (0, 3, 6), (1, 4, 7), (2, 5, 6)]))
    @example(design=(9, [(0, 1, 2), (3, 4, 5), (6, 7, 8), (0, 3, 6), (1, 4, 7), (2, 5, 8)]))
    def test_agrees_with_every_permutation_and_the_plain_search(self, policy, design):
        """The pruned search finds a sequence exactly when some permutation
        is admissible, and exactly when the plain backtracking search does;
        what it returns is admissible and starts below its end."""
        n, blocks = design
        all_intervals = policy is SegmentPolicy.ALL_INTERVALS
        d = Design.from_blocks(n, blocks)
        got = find_admissible_sequence(d, policy)
        memo: dict = {}
        exists = any(admissible_by_enumeration(n, d.blocks, perm, all_intervals, memo) for perm in permutations(range(n)))
        assert (got is not None) == exists
        assert (plain_sequence_search(n, d.blocks, all_intervals) is not None) == exists
        if got is not None:
            assert admissible_by_enumeration(n, d.blocks, got, all_intervals)
            assert is_admissible(d, got, policy)
            assert n < 2 or got[0] < got[-1]

    def test_all_triples_on_four_points_is_exhausted(self):
        d = Design.from_blocks(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])
        assert find_admissible_sequence(d) is None

    @pytest.mark.parametrize("policy", BOTH_POLICIES)
    @pytest.mark.parametrize("n", [13, 19, 25])
    def test_certified_starter_systems_are_decided(self, n, policy):
        """Every point's complement is partitionable, so the endpoint filter
        leaves no first point.  Without the prunings, the search used up 3
        million nodes on order 13 without a verdict."""
        assert find_admissible_sequence(base_case(n).design, policy, node_budget=2000) is None

    @pytest.mark.parametrize("n,total", [(13, 142), (25, 1464)])
    def test_endpoint_filter_rows_count_against_the_budget(self, n, total):
        """Every row of every restart attempt counts: at order 25 one
        question crosses the first cap, so a budget one row short trips."""
        d = base_case(n).design
        spent = [_first_partition(d, set(range(n)) - {x})[1] for x in range(n)]
        rows = sum(spent)
        assert rows == total and (max(spent) > exact_cover._FIRST_CAP) == (n == 25)
        assert find_admissible_sequence(d, node_budget=rows) is None
        with pytest.raises(BudgetExceededError) as info:
            find_admissible_sequence(d, node_budget=rows - 1)
        assert (info.value.used, info.value.budget) == (rows - 1, rows - 1)

    @pytest.mark.parametrize(
        "n,blocks,asked",
        [
            (7, [(0, 1, 2), (2, 3, 4)], []),  # 5 and 6 lie in no block
            (7, [(0, 1, 2), (3, 4, 5)], [6]),  # only 6 lies in no block
            (1003, [(0, 1, 2)], []),
        ],
        ids=["two-uncovered", "one-uncovered", "one-block-1003"],
    )
    def test_endpoint_filter_asks_only_points_that_can_carry_a_class(self, monkeypatch, n, blocks, asked):
        """A class missing x covers every other point, so only these points
        can have a partitionable complement, and a one-block design of any
        order asks nothing before its budget is first checked."""
        from nonseq_sts import sequencing

        calls = []

        def spy(d, points, node_budget=None):
            calls.extend(set(range(d.n)) - points)
            return _first_partition(d, points, node_budget)

        monkeypatch.setattr(sequencing, "_first_partition", spy)
        d = Design.from_blocks(n, blocks)
        try:
            seq = find_admissible_sequence(d, node_budget=1000)
            assert seq is not None and is_admissible(d, seq)
        except BudgetExceededError as exc:
            assert n == 1003 and (exc.used, exc.budget) == (1000, 1000)
        assert calls == asked

    def test_blocks_outside_the_points_cannot_be_made(self):
        """A block with a point outside 0..n-1 never reaches the search: the
        design is refused when it is made."""
        for blocks, stray in (([(2, 3, 4)], (-1, 0, 1)), ([(0, 1, 2), (3, 4, 5)], (5, 6, 7))):
            with pytest.raises(ValueError, match=re.escape(f"block {stray} is not")):
                Design.from_blocks(7, blocks + [stray])

    def test_oracle_misses_count_against_the_budget(self):
        """On a sparse order-55 design the segment oracle's recursion, not
        the prefix extensions, does most of the work.  Uncounted, it grew
        its memo to 341 MB under a budget of 2 million nodes; counted, the
        budget bounds the memo and the time."""
        d = Design.from_blocks(55, certified_sts(55).design.blocks[::4])
        start = time.monotonic()
        try:
            seq = find_admissible_sequence(d, node_budget=200_000)
            assert seq is not None and is_admissible(d, seq)
        except BudgetExceededError as exc:
            assert (exc.used, exc.budget) == (200_000, 200_000)
        assert time.monotonic() - start < 30

    def test_oracle_counts_each_memo_miss_once(self):
        d = Design.from_blocks(13, base_case(13).design.blocks[::2])
        misses = []
        oracle = SegmentOracle(d, on_miss=lambda: misses.append(1))
        rng = random.Random(5)
        for _ in range(40):
            points = rng.sample(range(13), 3 * rng.randint(1, 4))
            mask = sum(1 << p for p in points)
            assert oracle.mask_partitionable(mask) == segment_partitionable(d, points)
        assert len(misses) == len(oracle._memo) - 1  # the empty set is seeded

    def test_sparse_design_memo_stays_small(self, monkeypatch):
        """On one block among 1100 points nearly every segment's lowest
        point heads no block.  Such a segment is answered before the memo;
        stored, they made 201 850 decisions and +36 MB."""
        from nonseq_sts import sequencing

        oracles = []

        def keep(d, on_miss):
            oracles.append(SegmentOracle(d, on_miss))
            return oracles[-1]

        monkeypatch.setattr(sequencing, "SegmentOracle", keep)
        seq = find_admissible_sequence(Design.from_blocks(1100, [(0, 1, 2)]))
        assert seq == (0, 1, 3, 2, *range(4, 1100))
        assert len(oracles[0]._memo) < 5000

    def test_order109_is_bounded(self):
        """A few endpoint questions on the certified STS(109) take
        dancing links tens of seconds each; the budget cuts them short."""
        d = certified_sts(109).design
        start = time.monotonic()
        try:
            assert find_admissible_sequence(d, node_budget=50_000) is None
        except BudgetExceededError as exc:
            assert (exc.used, exc.budget) == (50_000, 50_000)
        assert time.monotonic() - start < 60


def test_policy_value_strings_read_as_their_members():
    """On the order-13 starter less four blocks the two policies find
    different sequences, and the prefixes-and-suffixes one fails under all
    intervals.  Both functions read each value string as its member."""
    d = Design.from_blocks(13, base_case(13).design.blocks[4:])
    found = {policy: find_admissible_sequence(d, policy) for policy in SegmentPolicy}
    assert not is_admissible(d, found[SegmentPolicy.PREFIXES_AND_SUFFIXES], SegmentPolicy.ALL_INTERVALS)
    for policy in SegmentPolicy:
        assert find_admissible_sequence(d, policy.value) == found[policy]
        for seq in found.values():
            assert is_admissible(d, seq, policy.value) == is_admissible(d, seq, policy)


def test_an_unknown_policy_string_raises(sts7):
    with pytest.raises(ValueError):
        find_admissible_sequence(sts7, "junk")
    with pytest.raises(ValueError):
        is_admissible(sts7, range(7), "junk")


def test_no_certifiable_design_below_order_13():
    """Orders 4 and 7 are the only ones under 13 where classes even have
    integral size, and there two classes with different missed points always
    collide on a pair; so no small design can carry a certificate.  Checked
    on greedy-random maximal partial systems."""
    from oracles import brute_force_apcs

    rng = random.Random(5150)
    for n in (4, 7):
        triples = [c for c in permutations(range(n), 3) if c[0] < c[1] < c[2]]
        for _ in range(30):
            blocks, pairs = [], set()
            for blk in rng.sample(triples, min(len(triples), n * 2)):
                bp = {(blk[0], blk[1]), (blk[0], blk[2]), (blk[1], blk[2])}
                if not pairs & bp:
                    pairs |= bp
                    blocks.append(blk)
            missed_points = {
                x for x in range(n) if brute_force_apcs(n, blocks, x)
            }
            assert len(missed_points) <= 1, (n, blocks)
            with pytest.raises(CertificationError):
                certify_nonsequenceable(Design.from_blocks(n, blocks))


class TestCertify:
    def test_order19(self):
        d = base_case(19).design
        cert = certify_nonsequenceable(d)
        assert len(cert) == 19
        assert verify_certificate(d, cert)

    def test_order7_fails_for_every_point(self, sts7):
        with pytest.raises(CertificationError) as exc:
            certify_nonsequenceable(sts7)
        assert exc.value.missing == tuple(range(7))

    def test_reduced_design_recertifies(self):
        d = certified_psts(13, 1).design
        cert = certify_nonsequenceable(d)
        assert len(cert) == 12
        assert verify_certificate(d, cert)

    def test_bose_order9_lists_every_point(self):
        with pytest.raises(CertificationError) as exc:
            certify_nonsequenceable(bose_sts(9))
        assert exc.value.missing == tuple(range(9))

    def test_one_point_in_no_block_is_the_only_one_searched(self, monkeypatch):
        from nonseq_sts import sequencing

        calls = []

        def spy(d, point):
            calls.append(point)
            return find_apc(d, point)

        monkeypatch.setattr(sequencing, "find_apc", spy)
        with pytest.raises(CertificationError) as exc:
            certify_nonsequenceable(Design.from_blocks(7, [(0, 1, 2), (3, 4, 5)]))
        assert calls == [6]
        assert exc.value.missing == (0, 1, 2, 3, 4, 5)

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_agrees_with_a_search_for_every_point(self, data):
        """Drawn partial systems: subsets of the order-13 starter system, or
        greedy ones on up to 13 points."""
        if data.draw(st.booleans()):
            n = 13
            blocks = data.draw(st.lists(st.sampled_from(base_case(13).design.blocks), unique=True))
        else:
            n = data.draw(st.integers(0, 13))
            blocks, pairs = [], set()
            triple = st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True).map(sorted)
            for blk in data.draw(st.lists(triple, max_size=30)) if n >= 3 else []:
                bp = {(blk[0], blk[1]), (blk[0], blk[2]), (blk[1], blk[2])}
                if not pairs & bp:
                    pairs |= bp
                    blocks.append(blk)
        d = Design.from_blocks(n, blocks)
        missing = tuple(x for x in range(n) if find_apc(d, x) is None)
        if len(missing) <= 1:
            assert set(certify_nonsequenceable(d).entries) == set(range(n)) - set(missing)
        else:
            with pytest.raises(CertificationError) as exc:
                certify_nonsequenceable(d)
            assert exc.value.missing == missing


def removal_design(n: int, a: int):
    """The certified STS(n) and what is left of it after deleting ``a``
    blocks of its class missing 0, least damage to the other entries
    first.  ``certified_psts`` deletes unused blocks first instead; this
    design damages entries, so it exercises the search from ``known=``."""
    parent = certified_sts(n)
    entries = parent.certificate.entries

    def damage(blk) -> int:
        return sum(1 for missed, apc in entries.items() if missed != 0 and blk in apc.blocks)

    removed = set(sorted(entries[0].blocks, key=lambda blk: (damage(blk), blk))[:a])
    return parent, Design.from_blocks(n, (blk for blk in parent.design.blocks if blk not in removed))


def certified_points(d, known=None):
    """The certified points, or the CertificationError's missing points."""
    try:
        return "certified", set(certify_nonsequenceable(d, known=known).entries)
    except CertificationError as exc:
        return "missing", exc.missing


RECERTIFY_CASES = [(n, a) for n in (13, 19, 31, 37) for a in range((n - 1) // 3 + 1)]


class TestRecertifyFromKnownClasses:
    @pytest.mark.parametrize("n,a", RECERTIFY_CASES, ids=[f"n{n}-a{a}" for n, a in RECERTIFY_CASES])
    def test_parent_certificate_changes_no_verdict(self, n, a):
        parent, d = removal_design(n, a)
        assert certified_points(d, known=parent.certificate.entries) == certified_points(d)

    @pytest.mark.parametrize("n", [19, 31])
    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_random_deletions_change_no_verdict(self, n, data):
        parent = base_case(n)
        blocks = parent.design.blocks
        removed = data.draw(st.sets(st.sampled_from(blocks), max_size=(n - 1) // 3 + 6))
        d = Design.from_blocks(n, (blk for blk in blocks if blk not in removed))
        assert certified_points(d, known=parent.certificate.entries) == certified_points(d)

    def test_surviving_entries_are_kept(self, monkeypatch):
        """A composed certificate builds each entry at its lookup, so a kept
        entry is equal to the parent's, not the same object; it is not
        searched."""
        parent, d = removal_design(37, 2)
        searched = []
        monkeypatch.setattr(sequencing, "find_apc", lambda d, p: searched.append(p) or exact_cover.find_apc(d, p))
        cert = certify_nonsequenceable(d, known=parent.certificate.entries)
        kept = {p for p, apc in parent.certificate.entries.items() if apc.blocks <= d.block_set}
        assert len(kept) == 34 and searched and not kept.intersection(searched)
        for p in kept:
            assert cert.entries[p] == parent.certificate.entries[p]
        assert verify_certificate(d, cert)

    def test_invalid_known_classes_are_searched_afresh(self):
        parent, d = removal_design(19, 1)
        entries = parent.certificate.entries
        # entry 0 used the deleted block; entry 3 is filed under the wrong point
        known = dict(entries)
        known[3] = entries[4]
        # entry 5 has two overlapping blocks: one of its blocks swapped for
        # another design block through the same point
        blk = min(entries[5].blocks)
        other = next(b for b in d.blocks if blk[0] in b and b not in entries[5].blocks)
        known[5] = AlmostParallelClass(entries[5].blocks - {blk} | {other}, 5)
        assert "meets another block" in verify_apc(d, known[5]).detail
        assert not entries[0].blocks <= d.block_set

        cert = certify_nonsequenceable(d, known=known)
        assert cert.entries[0] != entries[0]
        assert cert.entries[3] != entries[4] and cert.entries[3].missed == 3
        assert cert.entries[5] != known[5]
        for p in (0, 3, 5):
            assert verify_apc(d, cert.entries[p])
        assert verify_certificate(d, cert)

    def test_known_classes_for_other_points_are_ignored(self):
        d = base_case(13).design
        stray = AlmostParallelClass(frozenset(), 40)
        assert certified_points(d, known={40: stray}) == certified_points(d)


class TestOrder13RemovalsAreSequenceable:
    """The order-13 removal designs that fail certification have admissible
    sequences: they are sequenceable, not merely uncertified.  That holds
    for the class deletion and for ``certified_psts``' deletion of the
    first ``a`` blocks alike."""

    @pytest.mark.parametrize("a", [2, 3, 4])
    def test_search_finds_an_admissible_sequence(self, a):
        _, d = removal_design(13, a)
        seq = find_admissible_sequence(d)
        assert seq is not None
        assert admissible_by_enumeration(13, d.blocks, seq)

    @pytest.mark.parametrize("a", [2, 3, 4])
    def test_first_blocks_deleted_leave_an_admissible_sequence(self, a):
        """What ``certified_psts(13, a)`` deletes before it refuses."""
        d = Design(13, certified_sts(13).design.blocks[a:])
        seq = find_admissible_sequence(d)
        assert seq is not None
        assert admissible_by_enumeration(13, d.blocks, seq)


@pytest.fixture(scope="module")
def cd13():
    return base_case(13)


class TestExplain:
    def _check(self, cd, violation, seq):
        n = cd.design.n
        assert violation.end - violation.start + 1 == n - 1
        assert violation.segment == tuple(seq[violation.start : violation.end + 1])
        assert segment_partitionable(cd.design, violation.segment)
        covered = set()
        for blk in violation.apc.blocks:
            assert blk in cd.design.block_set
            covered |= set(blk)
        assert covered == set(violation.segment)

    def test_points_that_are_not_ints(self, cd13):
        seq = [True, 0] + list(range(2, 13))
        with pytest.raises(ValueError, match="must be a permutation of 0..12"):
            explain_nonsequenceable(cd13.design, cd13.certificate, seq)

    def test_suffix_case(self, cd13):
        seq = [0] + list(range(1, 13))
        v = explain_nonsequenceable(cd13.design, cd13.certificate, seq)
        assert v.kind == "suffix" and v.apc.missed == 0
        self._check(cd13, v, seq)

    def test_prefix_case(self, cd13):
        entries = dict(cd13.certificate.entries)
        del entries[12]  # force the prefix branch for sequences starting at 12
        from nonseq_sts import NonseqCertificate

        cert = NonseqCertificate(entries)
        assert verify_certificate(cd13.design, cert)
        seq = [12] + list(range(1, 12)) + [0]
        v = explain_nonsequenceable(cd13.design, cert, seq)
        assert v.kind == "prefix" and v.apc.missed == 0
        self._check(cd13, v, seq)

    def test_interior_anchor_is_fine(self, cd13):
        seq = list(range(1, 13)) + [0]  # 0 is last; suffix case still applies
        v = explain_nonsequenceable(cd13.design, cd13.certificate, seq)
        assert v.kind == "suffix" and v.apc.missed == 1
        self._check(cd13, v, seq)

    def test_unchecked_entries_are_not_used(self, cd13):
        """An endpoint's entry refutes only when it misses that point and
        is a verified class of the design; otherwise the other endpoint's
        entry is tried, and with neither a ValueError is raised."""
        from nonseq_sts import NonseqCertificate

        d, entries = cd13.design, cd13.certificate.entries
        seq = list(range(13))
        foreign = AlmostParallelClass(frozenset({(0, 1, 2)}), 5)
        for first in (foreign, AlmostParallelClass(foreign.blocks, 0), entries[1]):
            cert = NonseqCertificate({0: first, 12: entries[12]})
            v = explain_nonsequenceable(d, cert, seq)
            assert v.kind == "prefix" and v.apc is entries[12]
            self._check(cd13, v, seq)
            with pytest.raises(ValueError, match="either endpoint"):
                explain_nonsequenceable(d, NonseqCertificate({0: first, 12: entries[11]}), seq)

    def test_soundness_link_on_random_permutations(self, cd13):
        """1000 random permutations: all rejected under both policies, and
        the explanation always produces a verified partitioned proper segment."""
        rng = random.Random(2024)
        d, cert = cd13.design, cd13.certificate
        assert verify_certificate(d, cert)
        for i in range(1000):
            seq = list(range(13))
            rng.shuffle(seq)
            policy = BOTH_POLICIES[i % 2]
            assert not is_admissible(d, seq, policy)
            v = explain_nonsequenceable(d, cert, seq)
            assert len(v.segment) < d.n
            self._check(cd13, v, seq)
