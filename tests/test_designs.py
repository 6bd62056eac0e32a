"""Validators and verifiers on the core types."""

import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonseq_sts import (
    AlmostParallelClass,
    ComposedEntries,
    Design,
    DesignDocument,
    Gdd,
    GroupType,
    NonseqCertificate,
    base_case,
    certified_psts,
    certified_sts,
    validate_gdd,
    validate_psts,
    validate_sts,
    verify_apc,
    verify_certificate,
)

from nonseq_sts.designs import _pair_incidence
from oracles import (
    pair_count_verdicts,
    pair_incidence_by_loop,
    validate_gdd_by_loop,
    validate_psts_by_loop,
    validate_sts_by_loop,
    verify_apc_by_loop,
    verify_certificate_by_loop,
)
from reference_systems import BASES, STS7_BLOCKS, apc_point_blocks


def develop_cyclic(n, bases):
    """Inline cyclic development, independent of the package's version."""
    blocks = set()
    for base in bases:
        for t in range(n):
            blocks.add(tuple(sorted((p + t) % n for p in base)))
    return Design.from_blocks(n, blocks)


@pytest.fixture(scope="module")
def sts13():
    return develop_cyclic(13, BASES[13])


@pytest.fixture(scope="module")
def sts13_certificate(sts13):
    entries = {}
    for t in range(13):
        blocks = [tuple(sorted((p + t) % 13 for p in blk)) for blk in apc_point_blocks(13)]
        entries[t] = AlmostParallelClass.from_blocks(blocks, t)
    return NonseqCertificate(entries)


class TestDesignIsWellFormed:
    def test_order_must_be_an_int_at_least_0(self):
        for n in (-1, True, 3.0, "3"):
            with pytest.raises(ValueError, match="is not an int >= 0"):
                Design(n, ())
        assert Design(0, ()).size == 0

    def test_blocks_must_be_a_tuple(self):
        with pytest.raises(ValueError, match="must be a tuple, got list"):
            Design(3, [(0, 1, 2)])

    def test_the_first_bad_block_is_named(self):
        with pytest.raises(ValueError, match=re.escape("block (2, 1, 0) is not 3 increasing ints in 0..3")):
            Design(4, ((0, 1, 2), (2, 1, 0), (0, 1, 9)))
        with pytest.raises(ValueError, match=re.escape("block (1, 2, 4) is not")):
            Design(4, ((0, 1, 2), (1, 2, 4), (-1, 0, 1)))
        with pytest.raises(ValueError, match=re.escape("block (-1, 0, 1) is not")):
            Design(4, ((0, 1, 2), (-1, 0, 1)))


class TestValidatePsts:
    def test_order7_system_is_ok(self):
        assert validate_psts(Design.from_blocks(7, STS7_BLOCKS)).ok

    def test_empty_design_is_ok(self):
        assert validate_psts(Design(0, ())).ok

    def test_repeated_pair_is_named(self):
        rep = validate_psts(Design.from_blocks(4, [(0, 1, 2), (0, 1, 3)]))
        assert not rep.ok
        assert rep.category == "repeated-pair"
        assert "(0, 1)" in rep.detail

    def test_malformed_blocks(self):
        """A block that is not 3 distinct int points in range never reaches
        a validator or a save: the design cannot be made."""
        bad = ((0, 1), (0, 1, 1), (0, 1, 7), (True, 0, 2), (0, True, 2), (False, 1, 2), (0, 1, None))
        for blk in bad:
            with pytest.raises(ValueError, match=re.escape(f"block {blk!r} is not 3 increasing ints in 0..2")):
                Design(3, (blk,))

    def test_duplicate_block_caught_as_repeated_pair(self):
        rep = validate_psts(Design(5, ((0, 1, 2), (0, 1, 2))))
        assert rep.category == "repeated-pair"


class TestValidateSts:
    def test_order7_system(self):
        d = Design.from_blocks(7, STS7_BLOCKS)
        assert validate_sts(d).ok
        assert d.size == 7

    def test_developed_order13(self, sts13):
        assert validate_sts(sts13).ok
        assert sts13.size == 26

    def test_deleting_a_block_uncovers_a_pair(self):
        d = Design.from_blocks(7, STS7_BLOCKS[1:])
        rep = validate_sts(d)
        assert not rep.ok
        assert rep.category == "uncovered-pair"

    def test_wrong_order_congruence(self):
        assert validate_sts(Design(5, ())).category == "order"

    def test_tiny_valid_orders(self):
        assert validate_sts(Design(1, ())).ok
        assert validate_sts(Design.from_blocks(3, [(0, 1, 2)])).ok

    def test_pair_incidence_oracle(self, sts13):
        from oracles import pairs_covered_exactly_once

        assert pairs_covered_exactly_once(13, sts13.blocks)
        assert pairs_covered_exactly_once(7, STS7_BLOCKS)


class TestValidateGdd:
    def test_single_transverse_triangle(self):
        g = Gdd(GroupType.of((1, 3)), ((0,), (1,), (2,)), Design.from_blocks(3, [(0, 1, 2)]))
        assert validate_gdd(g).ok

    def test_k222_decomposition(self):
        blocks = [(0, 2, 4), (0, 3, 5), (1, 2, 5), (1, 3, 4)]
        g = Gdd(GroupType.of((2, 3)), ((0, 1), (2, 3), (4, 5)), Design.from_blocks(6, blocks))
        assert validate_gdd(g).ok

    def test_two_groups_never_valid(self):
        g = Gdd(GroupType.of((2, 2)), ((0, 1), (2, 3)), Design.from_blocks(4, [(0, 1, 2)]))
        rep = validate_gdd(g)
        assert not rep.ok

    def test_within_group_pair_rejected(self):
        g = Gdd(GroupType.of((2, 1), (1, 1)), ((0, 1), (2,)), Design.from_blocks(3, [(0, 1, 2)]))
        assert validate_gdd(g).category == "within-group-pair"

    def test_uncovered_cross_pair(self):
        g = Gdd(GroupType.of((2, 3)), ((0, 1), (2, 3), (4, 5)), Design.from_blocks(6, [(0, 2, 4)]))
        rep = validate_gdd(g)
        assert not rep.ok
        assert rep.category in ("uncovered-pair", "size")

    def test_groups_must_partition(self):
        g = Gdd(GroupType.of((1, 3)), ((0,), (1,), (1,)), Design(3, ()))
        assert validate_gdd(g).category == "groups"


class TestVerifyApc:
    def test_published_class(self, sts13):
        apc = AlmostParallelClass.from_blocks(apc_point_blocks(13), 0)
        assert verify_apc(sts13, apc)

    def test_wrong_missed_point(self, sts13):
        apc = AlmostParallelClass.from_blocks(apc_point_blocks(13), 1)
        assert not verify_apc(sts13, apc)

    def test_short_coverage(self, sts13):
        apc = AlmostParallelClass.from_blocks(apc_point_blocks(13)[:2], 0)
        assert not verify_apc(sts13, apc)

    def test_foreign_block_rejected(self, sts13):
        blocks = list(apc_point_blocks(13))
        blocks[0] = (7, 8, 12)  # not a block of the design
        apc = AlmostParallelClass.from_blocks(blocks, 0)
        assert not verify_apc(sts13, apc)

    def test_overlapping_blocks_rejected(self):
        d = Design.from_blocks(7, STS7_BLOCKS)
        apc = AlmostParallelClass.from_blocks([(0, 1, 3), (1, 2, 4)], 5)
        assert not verify_apc(d, apc)

    def test_a_missed_point_that_is_not_an_int(self):
        """``True == 1``, yet the class missing 1 does not miss ``True``."""
        cd = base_case(13)
        entry = cd.certificate.entries[1]
        assert verify_apc(cd.design, entry)
        rep = verify_apc(cd.design, AlmostParallelClass(entry.blocks, True))
        assert (rep.ok, rep.category, rep.detail) == (False, "apc", "missed point True is outside 0..12")


class TestVerifyCertificate:
    def test_translated_certificate(self, sts13, sts13_certificate):
        assert verify_certificate(sts13, sts13_certificate)

    def test_corrupted_entry_fails(self, sts13, sts13_certificate):
        entries = dict(sts13_certificate.entries)
        blocks = sorted(entries[3].blocks)
        blocks[0] = (0, 1, 2)  # not a design block
        entries[3] = AlmostParallelClass.from_blocks(blocks, 3)
        assert not verify_certificate(sts13, NonseqCertificate(entries))

    def test_too_few_entries_fail(self, sts13, sts13_certificate):
        entries = dict(sts13_certificate.entries)
        del entries[4], entries[9]  # n-2 entries left
        rep = verify_certificate(sts13, NonseqCertificate(entries))
        assert not rep
        assert rep.detail == "11 entries, need at least 12"

    def test_n_minus_one_entries_suffice(self, sts13, sts13_certificate):
        entries = dict(sts13_certificate.entries)
        del entries[4]
        assert verify_certificate(sts13, NonseqCertificate(entries))

    def test_mismatched_key_fails(self, sts13, sts13_certificate):
        entries = dict(sts13_certificate.entries)
        entries[0] = entries[1]  # missed point 1 filed under key 0
        rep = verify_certificate(sts13, NonseqCertificate(entries))
        assert not rep
        assert rep.detail == "entry 0: class misses 1"

    @pytest.mark.parametrize("key", ["5", 5.5, None, (5,)], ids=repr)
    def test_a_key_that_is_not_an_int_fails_as_a_report(self, sts13, sts13_certificate, key):
        """A certificate read from JSON by hand may be keyed by strings;
        the report names the entry instead of ``sorted`` raising."""
        entries = dict(sts13_certificate.entries)
        entries[key] = entries.pop(5)
        rep = verify_certificate(sts13, NonseqCertificate(entries))
        assert (rep.ok, rep.category, rep.detail) == (False, "certificate", f"entry {key!r}: key is not an int point")

    def test_lowest_failing_entry_is_named(self, sts13, sts13_certificate):
        entries = dict(reversed(sts13_certificate.entries.items()))  # entry 9 is checked before 3 unless sorted
        for missed in (9, 3):
            blocks = sorted(entries[missed].blocks)
            blocks[0] = (0, 1, 2)  # not a design block
            entries[missed] = AlmostParallelClass.from_blocks(blocks, missed)
        rep = verify_certificate(sts13, NonseqCertificate(entries))
        assert not rep
        assert rep.detail == "entry 3: (0, 1, 2) is not a block of the design"

    @pytest.mark.parametrize("n", [0, 1])
    def test_an_order_under_2_fails_in_either_form(self, n):
        """Every sequence of 0 or 1 points is admissible, so no certificate
        proves such a design nonsequenceable, not even an empty one."""
        flat = NonseqCertificate({})
        composed = NonseqCertificate(ComposedEntries(tuple(range(n)), (), (), {}))
        for cert in (flat, composed):
            rep = verify_certificate(Design(n, ()), cert)
            assert (rep.ok, rep.category, rep.detail) == (False, "certificate", f"order {n} < 2: every sequence is admissible")


# Every composed order up to 121: 1-point holes at 37, 49, 61, 73, 85, 97,
# 109, 121 and 7-point holes at 55, 67, 79, 91, 103, 115.
COMPOSED_ORDERS = [n for n in range(37, 122, 6) if n != 43]


def flat(cert: NonseqCertificate) -> NonseqCertificate:
    """The certificate with every entry expanded into a dict."""
    return NonseqCertificate(dict(cert.entries.items()))


def composed(n=37):
    built = certified_sts(n)
    return built.design, built.certificate.entries


def mutated(c: ComposedEntries, **fields) -> NonseqCertificate:
    parts = dict(hole=c.hole, groups=c.groups, parts=c.parts, own=c.own) | fields
    return NonseqCertificate(ComposedEntries(**parts))


class TestComposedCertificate:
    @pytest.mark.parametrize("n", COMPOSED_ORDERS)
    def test_the_structure_and_its_expansion_agree(self, n):
        """The structured check against ``verify_certificate`` on the flat
        expansion, on the STS and on its partial systems at a = 0, 1 and
        (n-1)/3, which keep the parent's structure."""
        for built in (certified_sts(n), *(certified_psts(n, a) for a in (0, 1, (n - 1) // 3))):
            cert = built.certificate
            assert type(cert.entries) is ComposedEntries and len(cert) == n
            assert verify_certificate(built.design, cert)
            assert verify_certificate(built.design, flat(cert))
            assert flat(cert) == cert

    def test_an_entry_is_its_own_class_and_every_other_part(self):
        d, c = composed(55)
        for y in (0, 11, 12, 48, 54):  # group 0, group 1, group 4 and hole points
            i, own = c.own[y]
            others = [p for j, p in enumerate(c.parts) if j != i]
            assert c[y] == AlmostParallelClass(own.union(*others), y) and verify_apc(d, c[y])
        assert c[48] is not c[48]  # built per lookup, kept by no one
        assert list(c) == list(c.own) and len(c) == 55 and c.get(55) is None

    def expect(self, d, cert, detail, expansion_fails=True):
        rep = verify_certificate(d, cert)
        assert (rep.ok, rep.category, rep.detail) == (False, "certificate", detail)
        assert bool(verify_certificate(d, flat(cert))) is not expansion_fails

    def test_a_block_moved_to_another_group(self):
        d, c = composed()
        moved = min(c.parts[1])
        parts = (c.parts[0] | {moved}, c.parts[1] - {moved}, c.parts[2])
        self.expect(d, mutated(c, parts=parts), f"part 0: it covers {moved[0]}, outside its points")

    def test_a_part_missing_a_point(self):
        d, c = composed()
        dropped = min(c.parts[2])
        parts = (*c.parts[:2], c.parts[2] - {dropped})
        self.expect(d, mutated(c, parts=parts), f"part 2: it misses {dropped[0]}")

    def test_a_class_covering_its_own_point(self):
        d, c = composed()
        own = dict(c.own)
        own[5] = c.own[6]  # misses 6 and covers 5
        self.expect(d, mutated(c, own=own), "entry 5: it covers 5, outside its points")

    def test_a_class_using_a_non_block(self):
        d, c = composed()
        (a, b, x), (p, q, r) = sorted(c.own[5][1])[:2]
        swapped = (c.own[5][1] - {(a, b, x), (p, q, r)}) | {tuple(sorted((a, b, r))), tuple(sorted((p, q, x)))}
        assert len(swapped) == 4 and not swapped <= d.block_set
        own = dict(c.own)
        own[5] = 0, frozenset(swapped)
        bad = min(blk for blk in swapped if blk not in d.block_set)
        rep = verify_certificate(d, mutated(c, own=own))
        assert not rep and rep.detail == f"entry 5: {bad} is not a block of the design"
        assert not verify_certificate(d, flat(mutated(c, own=own)))

    def test_a_class_filed_under_another_group(self):
        d, c = composed()
        own = dict(c.own)
        own[5] = 1, c.own[5][1]
        self.expect(d, mutated(c, own=own), "entry 5: 5 is in neither group 1 nor the hole")
        own[5] = 3, c.own[5][1]  # no group 3
        rep = verify_certificate(d, mutated(c, own=own))
        assert not rep and rep.detail == "entry 5: 5 is in neither group 3 nor the hole"

    def test_a_hole_point_listed_in_a_group(self):
        """The expansion reads no group, so it still verifies; the
        structure that claims it does not."""
        d, c = composed()
        groups = ((*c.groups[0], 36), *c.groups[1:])
        self.expect(d, mutated(c, groups=groups), "the hole and the groups do not partition 0..36", False)

    @pytest.mark.parametrize(
        "groups",
        [
            lambda g: (g[0][1:], g[1], g[2]),  # point 0 in no group
            lambda g: (g[0], (0, *g[1]), g[2]),  # point 0 in two groups
            lambda g: (g[0], g[1]),  # a whole group missing
            lambda g: (g[0], g[1], (*g[2][:-1], 37)),  # a point outside 0..36
        ],
        ids=["uncovered", "twice", "short", "outside"],
    )
    def test_groups_that_are_not_a_partition(self, groups):
        d, c = composed()
        rep = verify_certificate(d, mutated(c, groups=groups(c.groups)))
        assert (rep.ok, rep.detail) == (False, "the hole and the groups do not partition 0..36")

    def test_a_deleted_block_that_a_part_uses(self):
        d, c = composed()
        gone = min(c.parts[1])
        reduced = Design(d.n, tuple(blk for blk in d.blocks if blk != gone))
        self.expect(reduced, NonseqCertificate(c), f"part 1: {gone} is not a block of the design")

    def test_too_few_classes(self):
        d, c = composed()
        own = {y: c.own[y] for y in range(35)}
        self.expect(d, mutated(c, own=own), "35 entries, need at least 36")
        own[35] = c.own[35]
        assert verify_certificate(d, mutated(c, own=own))  # n - 1 entries suffice


def test_canonicalisation_never_changes_verdicts(sts13):
    """Shuffling block order leaves every verdict alone; shuffled members
    are refused when the design is made."""
    rng = random.Random(20240811)
    designs = {
        "sts13": sts13,
        "broken": Design.from_blocks(4, [(0, 1, 2), (0, 1, 3)]),
        "sts7-minus-one": Design.from_blocks(7, STS7_BLOCKS[:-1]),
    }
    for name, d in designs.items():
        base_psts, base_sts = validate_psts(d).ok, validate_sts(d).ok
        for _ in range(10):
            blocks = list(d.blocks)
            rng.shuffle(blocks)
            shuffled = Design(d.n, tuple(blocks))
            assert validate_psts(shuffled).ok == base_psts, name
            assert validate_sts(shuffled).ok == base_sts, name
            i = rng.randrange(len(blocks))
            blocks[i] = blocks[i][::-1]
            with pytest.raises(ValueError, match=re.escape(f"block {blocks[i]} ")):
                Design(d.n, tuple(blocks))


def test_group_type_canonical_key():
    assert GroupType.of((12, 5)).key() == "3:12^5"
    assert GroupType.of((18, 1), (12, 4)).key() == "3:12^4+18^1"
    assert GroupType.of((12, 2), (12, 3)).key() == "3:12^5"
    assert GroupType.of((12, 4), (18, 1)).total_points == 66
    assert GroupType.of((12, 4), (18, 1)).cross_pairs() == (66 * 65 // 2) - 4 * 66 - 153
    with pytest.raises(ValueError):
        GroupType.of((0, 3))


# Small valid systems (order, blocks, groups) that the differential test
# relabels and perturbs, so that passing verdicts are drawn too.
_SEED_SYSTEMS = (
    (3, ((0, 1, 2),), ((0,), (1,), (2,))),
    (6, ((0, 2, 4), (0, 3, 5), (1, 2, 5), (1, 3, 4)), ((0, 1), (2, 3), (4, 5))),
    (7, STS7_BLOCKS, tuple((p,) for p in range(7))),
)


@st.composite
def block_lists(draw):
    """An order, raw blocks and a partition of the points into groups.

    Blocks include repeats, out-of-range and boolean points, within-group
    triples and lists of the wrong length.
    """
    if draw(st.booleans()):
        n, blocks, groups = draw(st.sampled_from(_SEED_SYSTEMS))
        perm = draw(st.permutations(range(n)))
        blocks = [[perm[p] for p in blk] for blk in blocks]
        groups = [[perm[p] for p in grp] for grp in groups]
        for _ in range(draw(st.integers(0, 2))):
            i = draw(st.integers(0, len(blocks) - 1))
            move = draw(st.sampled_from(["drop", "repeat", "repoint"]))
            if move == "drop":
                del blocks[i]
            elif move == "repeat":
                blocks.append(list(blocks[i]))
            else:
                blocks[i] = list(blocks[i])
                blocks[i][draw(st.integers(0, 2))] = draw(st.integers(-1, n))
            if not blocks:
                break
    else:
        n = draw(st.integers(0, 8))
        point = st.one_of(st.integers(-1, n), st.booleans())
        blocks = draw(st.lists(st.lists(point, min_size=2, max_size=4), max_size=10))
        gids = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
        groups = [[p for p in range(n) if gids[p] == g] for g in sorted(set(gids))]
    return n, [tuple(blk) for blk in blocks], [tuple(grp) for grp in groups]


def malformed(n, blk) -> bool:
    """Whether the per-block loop of ``oracles`` calls ``blk`` malformed on
    its own in an order-``n`` design (n >= 0)."""
    return pair_incidence_by_loop(n, [blk])[0].category == "malformed-block"


def made_or_refused(n, blocks):
    """``Design(n, blocks)`` with every block's members sorted: the design,
    or None after asserting that it is refused exactly when the oracle
    calls a block malformed or the order is negative."""
    blocks = tuple(tuple(sorted(blk)) for blk in blocks)
    if n < 0 or any(malformed(n, blk) for blk in blocks):
        with pytest.raises(ValueError):
            Design(n, blocks)
        return None
    return Design(n, blocks)


@settings(max_examples=400, deadline=None, derandomize=True)
@given(block_lists())
def test_validators_agree_with_pair_count_oracle(case):
    n, blocks, groups = case
    d = made_or_refused(n, blocks)
    if d is None:
        return
    gdd = Gdd(GroupType.of(*((len(grp), 1) for grp in groups)), tuple(groups), d)
    psts, sts, gdd_ok = pair_count_verdicts(n, blocks, groups)
    assert validate_psts(d).ok == psts
    assert validate_sts(d).ok == sts
    assert validate_gdd(gdd).ok == gdd_ok


@st.composite
def canonical_block_lists(draw):
    """``block_lists`` with each block of 3 distinct ints sorted into a
    tuple and the rest dropped, so that most of them can be made.  Pairs
    may be repeated or uncovered and blocks duplicated or inside a group;
    now and then a point is out of range or the order negative, which the
    constructor refuses."""
    n, blocks, groups = draw(block_lists())
    blocks = [tuple(sorted(blk)) for blk in blocks if len(set(blk)) == len(blk) == 3 and set(map(type, blk)) == {int}]
    edit = draw(st.sampled_from(["none", "none", "stray-point", "negative-order"]))
    if edit == "stray-point" and blocks:
        i = draw(st.integers(0, len(blocks) - 1))
        a, b, c = blocks[i]
        blocks[i] = draw(st.sampled_from([(-1, b, c), (a, b, n), (a, b, n + 1)]))
    elif edit == "negative-order":
        n = draw(st.integers(-3, -1))
    return n, blocks, groups


@settings(max_examples=400, deadline=None, derandomize=True)
@given(st.one_of(block_lists(), canonical_block_lists()))
def test_validators_report_what_the_loop_reports(case):
    """Verdict, category and detail are the per-block loop's on every
    design that can be made; so is the covered-pair set."""
    n, blocks, groups = case
    d = made_or_refused(n, blocks)
    if d is None:
        return
    gdd = Gdd(GroupType.of(*((len(grp), 1) for grp in groups)), tuple(groups), d)
    assert _pair_incidence(d) == pair_incidence_by_loop(n, d.blocks)
    assert validate_psts(d) == validate_psts_by_loop(d)
    assert validate_sts(d) == validate_sts_by_loop(d)
    assert validate_gdd(gdd) == validate_gdd_by_loop(gdd)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=block_lists(), data=st.data())
def test_block_set_is_the_sorted_blocks(case, data):
    """Sorted and shuffled block lists give the sorted blocks; a raw block,
    unsorted or a list, is refused when the design is made."""
    n, blocks, _ = case
    blocks = [tuple(sorted(blk)) for blk in blocks]
    shape = data.draw(st.sampled_from(["sorted", "shuffled", "raw", "lists"]))
    if shape == "shuffled":
        blocks = data.draw(st.permutations(blocks))
    elif shape == "raw":
        blocks = [tuple(data.draw(st.permutations(blk))) for blk in blocks]
    elif shape == "lists":
        blocks = [list(blk) for blk in blocks]
    if n < 0 or any(malformed(n, blk) or blk != tuple(sorted(blk)) for blk in blocks):
        with pytest.raises(ValueError):
            Design(n, tuple(blocks))
    else:
        assert Design(n, tuple(blocks)).block_set == frozenset(tuple(sorted(blk)) for blk in blocks)


POINTS = st.integers(-1, 9) | st.booleans() | st.sampled_from([0.0, 1.0, 2.5])


@st.composite
def raw_block_lists(draw):
    """An order in -2..8 and raw blocks, tuples or lists: mostly 3 distinct
    points in range, sorted or not, or sorted with 0 and 1 written as
    False and True; otherwise 2 to 4 points, each an int near the range, a
    bool or a float."""
    n = draw(st.integers(-2, 8))
    members = st.lists(POINTS, min_size=2, max_size=4)
    if n >= 3:
        triple = st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True)
        as_bools = triple.map(sorted).map(lambda blk: [bool(p) if p < 2 else p for p in blk])
        members = triple.map(sorted) | triple | as_bools | members
    block = members.flatmap(lambda blk: st.sampled_from([tuple(blk), tuple(blk), blk]))
    return n, draw(st.lists(block, max_size=6))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(raw_block_lists())
def test_one_block_rule_at_every_entry(case):
    """The constructor refuses exactly what the loop oracle calls malformed,
    a negative order, and a block that is not an increasing tuple; the
    document reader accepts sorted int triples exactly when the constructor
    does; ``from_blocks`` accepts exactly lists of 3 distinct in-range
    ints."""
    n, blocks = case

    def made(build, *args) -> bool:
        try:
            build(*args)
        except ValueError:
            return False
        return True

    increasing = all(type(blk) is tuple and list(blk) == sorted(blk) for blk in blocks)
    well_formed = n >= 0 and not any(malformed(n, blk) for blk in blocks)
    assert made(Design, n, tuple(blocks)) == (well_formed and increasing)
    int_triples = [tuple(sorted(blk)) for blk in blocks if len(blk) == 3 and set(map(type, blk)) == {int}]
    doc = {"schema": 1, "n": n, "blocks": [list(blk) for blk in int_triples]}
    assert made(DesignDocument.from_dict, doc) == made(Design, n, tuple(int_triples))
    in_range = range(max(n, 0))
    distinct = all(len(set(blk)) == len(blk) == 3 for blk in blocks)
    ints = all(type(p) is int and p in in_range for blk in blocks for p in blk)
    assert made(Design.from_blocks, n, blocks) == (n >= 0 and distinct and ints)


@pytest.fixture(scope="module", params=[13, 19])
def certified_base(request):
    return base_case(request.param)


DAMAGE = ("none", "foreign", "overlap", "unsorted", "quadruple", "missed", "short", "missing-entry")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(data=st.data())
def test_verifiers_report_what_the_loop_reports(certified_base, data):
    """Certificates with drawn damage get the loop's reports, entry by entry
    and as a whole."""
    d, cert = certified_base.design, certified_base.certificate
    entries = dict(cert.entries)
    for _ in range(data.draw(st.integers(1, 3))):
        damage = data.draw(st.sampled_from(DAMAGE))
        key = data.draw(st.sampled_from(sorted(entries)))
        apc = entries[key]
        blocks = sorted(apc.blocks)
        i = data.draw(st.integers(0, len(blocks) - 1))
        if damage == "foreign":
            blocks[i] = data.draw(st.sampled_from([(0, 1, 2), (1, 2, 3), (0, 4, 8), (0, 1, d.n)]))
        elif damage == "overlap":
            blocks[i] = data.draw(st.sampled_from([blk for blk in d.blocks if set(blk) & set(blocks[i - 1])]))
        elif damage == "unsorted":
            blocks[i] = blocks[i][::-1]
        elif damage == "quadruple":
            blocks[i] = blocks[i] + (data.draw(st.integers(0, d.n - 1)),)
        elif damage == "short":
            del blocks[i]
        missed = data.draw(st.integers(-1, d.n)) if damage == "missed" else apc.missed
        if damage == "missing-entry":
            del entries[key]
            continue
        damaged = AlmostParallelClass(frozenset(blocks), missed)
        assert verify_apc(d, damaged) == verify_apc_by_loop(d, damaged)
        entries[key] = damaged
    damaged_cert = NonseqCertificate(entries)
    assert verify_certificate(d, damaged_cert) == verify_certificate_by_loop(d, damaged_cert)
