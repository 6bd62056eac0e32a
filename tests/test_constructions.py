"""Certified builders: starter systems, group-divisible composition, removals."""

from itertools import combinations

import pytest

from nonseq_sts import (
    CertificationError,
    CyclicGroup,
    ProductGroup,
    base_case,
    certified_psts,
    certified_sts,
    find_apc,
    translate_apc,
    validate_psts,
    validate_sts,
    verify_apc,
    verify_certificate,
)
from nonseq_sts.designs import AlmostParallelClass

from oracles import brute_force_apcs
from reference_systems import BASES, EXPECTED_SIZES, apc_point_blocks


def assert_canonical_classes(cd):
    for missed, apc in cd.certificate.entries.items():
        for blk in apc.blocks:
            assert type(blk) is tuple and len(blk) == 3 and blk[0] < blk[1] < blk[2], (missed, blk)
        assert apc.blocks <= cd.design.block_set, missed


class TestBaseCases:
    @pytest.mark.parametrize("n", sorted(EXPECTED_SIZES))
    def test_valid_certified_and_sized(self, n):
        cd = base_case(n)
        assert cd.design.size == EXPECTED_SIZES[n]
        assert validate_sts(cd.design).ok
        assert len(cd.certificate) == n
        assert verify_certificate(cd.design, cd.certificate)
        assert cd.provenance == f"base-case({n})"

    @pytest.mark.parametrize("n", sorted(EXPECTED_SIZES))
    def test_published_class_is_the_certificate_entry_for_zero(self, n):
        cd = base_case(n)
        published = AlmostParallelClass.from_blocks(apc_point_blocks(n), 0)
        assert verify_apc(cd.design, published)
        assert cd.certificate.entries[0] == published

    def test_order25_is_completed_development(self):
        cd = base_case(25)
        developed = {
            tuple(sorted(5 * ((x + t1) % 5) + (y + t2) % 5 for x, y in blk))
            for blk in BASES[25]
            for t1 in range(5)
            for t2 in range(5)
        }
        assert len(developed) == 75
        assert developed < cd.design.block_set
        assert len(cd.design.block_set - developed) == 25  # the completed orbit

    def test_order25_class_contains_a_completion_translate(self):
        # {(2,0),(2,3),(3,4)} is the completion block shifted by (2,3)
        group = ProductGroup(5, 5)
        completion = AlmostParallelClass.from_blocks(
            [tuple(group.index(e) for e in ((0, 0), (0, 2), (1, 1)))], 99
        )
        shifted = translate_apc(completion, (2, 3), group)
        target = tuple(sorted(group.index(e) for e in ((2, 0), (2, 3), (3, 4))))
        assert shifted.blocks == frozenset({target})

    def test_unknown_order_rejected(self):
        with pytest.raises(ValueError):
            base_case(7)


class TestCertifiedSts:
    def test_small_orders_come_from_starters(self):
        for n in (13, 19, 25, 31, 43):
            assert certified_sts(n).provenance == f"base-case({n})"

    def test_order37(self):
        cd = certified_sts(37)
        assert cd.design.size == 222 == 37 * 36 // 6
        assert validate_sts(cd.design).ok
        assert len(cd.certificate) == 37
        assert verify_certificate(cd.design, cd.certificate)

    # seed 10 hung in the hill climb before its moves were capped
    @pytest.mark.parametrize("seed", [0, 10])
    def test_order55_mixed_type(self, seed):
        cd = certified_sts(55, seed=seed)
        assert cd.design.size == 495 == 55 * 54 // 6
        assert validate_sts(cd.design).ok
        assert len(cd.certificate) == 55
        assert verify_certificate(cd.design, cd.certificate)
        assert "12^3+18^1" in cd.provenance

    @pytest.mark.parametrize(
        "n,provenance",
        [
            (37, "gdd-fill(n=37, type=3:12^3)"),
            (61, "gdd-fill(n=61, type=3:12^5)"),
            (49, "gdd-fill(n=49, type=3:12^4, seed=2)"),
        ],
    )
    def test_provenance_names_a_seed_only_when_the_climb_ran(self, n, provenance):
        """The Bose route (12^3, 12^5) uses no seed; the climb (12^4) does."""
        assert certified_sts(n, seed=2).provenance == provenance

    def test_order7_rejected(self):
        with pytest.raises(ValueError, match="order 7"):
            certified_sts(7)

    @pytest.mark.parametrize("n", [9, 12, 15, 1])
    def test_bad_orders_rejected(self, n):
        with pytest.raises(ValueError):
            certified_sts(n)

    def test_seed_determinism(self):
        a = certified_sts(49, seed=3)
        b = certified_sts(49, seed=3)
        assert a.design == b.design and a.certificate == b.certificate

    @pytest.mark.parametrize("n", [37, 61, 49, 73, 55])  # Bose 12^3 and 12^5, climbed 12^4 and 12^6, 12^3 18^1
    def test_certificate_classes_are_canonical(self, n):
        """The fill relabeling is increasing, so composed class blocks are
        sorted triples of the design without any re-sort.  ``verify_apc``
        sorts before it looks a block up and would not notice otherwise."""
        assert_canonical_classes(certified_sts(n))

    def test_filling_consistency(self):
        """Every block is either inside one group plus the new point, or
        transverse across three groups; pairs split accordingly."""
        n, u = 37, 3
        cd = certified_sts(n)
        x = n - 1
        groups = [set(range(12 * i, 12 * (i + 1))) for i in range(u)]
        fills = [grp | {x} for grp in groups]
        gid = {p: i for i, grp in enumerate(groups) for p in grp}
        for blk in cd.design.blocks:
            pts = set(blk)
            if any(pts <= fill for fill in fills):
                continue  # fill-system block
            assert x not in pts
            assert len({gid[p] for p in pts}) == 3  # transverse GDD block
        # cross-group pairs are covered only by transverse blocks
        for blk in cd.design.blocks:
            pts = sorted(blk)
            inside = any(set(pts) <= fill for fill in fills)
            for a, b in combinations(pts, 2):
                same_fill = any({a, b} <= fill for fill in fills)
                assert same_fill == inside


class TestCertifiedPsts:
    def test_a_zero_keeps_the_certificate(self):
        cd = certified_psts(13, 0)
        full = certified_sts(13)
        assert cd.design == full.design
        assert cd.certificate == full.certificate
        assert cd.provenance.startswith("block-removal(n=13, a=0")

    def test_removal_is_contained_in_one_class(self):
        for n, a in ((13, 1), (19, 4), (37, 6)):
            full = certified_sts(n)
            cd = certified_psts(n, a)
            removed = full.design.block_set - cd.design.block_set
            assert len(removed) == a
            assert removed <= full.certificate.entries[0].blocks
            assert cd.design.size == n * (n - 1) // 6 - a
            assert validate_psts(cd.design).ok
            assert verify_certificate(cd.design, cd.certificate)

    def test_certificates_never_reference_removed_blocks(self):
        cd = certified_psts(19, 5)
        for apc in cd.certificate.entries.values():
            assert apc.blocks <= cd.design.block_set

    def test_bound_is_enforced(self):
        with pytest.raises(ValueError, match=r"\(n-1\)/3"):
            certified_psts(13, 5)
        with pytest.raises(ValueError):
            certified_psts(13, -1)

    def test_alternative_anchor_point(self):
        cd = certified_psts(19, 2, x0=7)
        removed = certified_sts(19).design.block_set - cd.design.block_set
        assert removed <= certified_sts(19).certificate.entries[7].blocks
        assert verify_certificate(cd.design, cd.certificate)

    @pytest.mark.parametrize("a", range(7))
    def test_order19_every_a(self, a):
        cd = certified_psts(19, a)
        assert cd.design.size == 57 - a
        assert len(cd.certificate) >= 18

    @pytest.mark.parametrize("a", range(13))
    def test_order37_certificate_classes_are_canonical(self, a):
        """Kept parent classes and searched ones alike are sorted triples of
        the reduced design, so the damage ranking's ``blk in apc.blocks``
        compares like with like."""
        assert_canonical_classes(certified_psts(37, a))

    def test_order13_single_removal(self):
        cd = certified_psts(13, 1)
        assert cd.design.size == 25
        assert len(cd.certificate) == 12  # every point except the anchor

    @pytest.mark.parametrize(
        "a,missing",
        [(2, (0, 9, 10)), (3, (0, 3, 9, 10, 12)), (4, (0, 1, 3, 4, 9, 10, 12))],
        ids=["2", "3", "4"],
    )
    def test_order13_deeper_removals_surface_failure(self, a, missing):
        """The order-13 system is rigid (one class per point); deleting two
        or more of a class's blocks leaves under n-1 certifiable points, and
        the operation reports that instead of hiding it."""
        with pytest.raises(CertificationError) as exc:
            certified_psts(13, a)
        assert exc.value.missing == missing


def test_order13_removal_is_rigid():
    """Blocking analysis behind the red acceptance cases (see the ledger).

    Exhaustively: the order-13 starter system has exactly one almost
    parallel class missing each point, so deleting ANY two blocks always
    leaves at most 11 < 12 points certifiable.
    """
    design = certified_sts(13).design
    class_counts = {x: len(brute_force_apcs(13, design.blocks, x)) for x in range(13)}
    assert class_counts == {x: 1 for x in range(13)}

    # every block lies in 1 or 3 classes; removing any pair of blocks kills
    # classes for at least 2 distinct points
    classes = {x: brute_force_apcs(13, design.blocks, x)[0] for x in range(13)}
    hosting = {blk: {x for x, apc in classes.items() if blk in apc} for blk in design.blocks}
    assert {len(h) for h in hosting.values()} == {1, 3}
    for b1, b2 in combinations(design.blocks, 2):
        assert len(hosting[b1] | hosting[b2]) >= 2


def test_reduced_design_classes_match_brute_force():
    cd = certified_psts(13, 1)
    for x in range(13):
        got = find_apc(cd.design, x)
        expected = brute_force_apcs(13, cd.design.blocks, x)
        assert (got is not None) == bool(expected)
