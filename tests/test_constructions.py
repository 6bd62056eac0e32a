"""Certified builders: starter systems, group-divisible composition, removals."""

import os
from itertools import combinations

import pytest

from nonseq_sts import (
    CertificationError,
    CyclicGroup,
    DesignDocument,
    GroupType,
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
from nonseq_sts import constructions, exact_cover
from nonseq_sts import gdd as gdd_module
from nonseq_sts.constructions import BASE_ORDERS, _composed_type
from nonseq_sts.designs import AlmostParallelClass

from oracles import brute_force_apcs
from reference_systems import BASES, EXPECTED_SIZES, apc_point_blocks


ORDER19_CLASS = ((1, 13, 16), (2, 5, 9), (3, 12, 14), (4, 7, 11), (6, 15, 17), (8, 10, 18))


def no_search(*args, **kwargs):
    raise AssertionError("an exact-cover search ran")


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
        """The paper's class is a class of the design; it is entry 0 at
        every order but 19, whose entry avoids the orbit of (0, 1, 6)."""
        cd = base_case(n)
        published = AlmostParallelClass.from_blocks(apc_point_blocks(n), 0)
        assert verify_apc(cd.design, published)
        expected = AlmostParallelClass.from_blocks(ORDER19_CLASS, 0) if n == 19 else published
        assert cd.certificate.entries[0] == expected

    def test_order19_certificate_leaves_an_orbit_unused(self):
        cd = base_case(19)
        orbit = {tuple(sorted((x + t) % 19 for x in (0, 1, 6))) for t in range(19)}
        assert len(orbit) == 19 and orbit <= cd.design.block_set
        assert not any(orbit & apc.blocks for apc in cd.certificate.entries.values())

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

    @pytest.mark.parametrize("seed", [0, 10])
    def test_order67_mixed_type(self, seed):
        cd = certified_sts(67, seed=seed)
        assert cd.design.size == 737 == 67 * 66 // 6
        assert validate_sts(cd.design).ok
        assert len(cd.certificate) == 67
        assert verify_certificate(cd.design, cd.certificate)
        assert "12^4+18^1" in cd.provenance

    @pytest.mark.parametrize(
        "n,provenance",
        [
            (37, "gdd-fill(n=37, type=3:12^3)"),
            (61, "gdd-fill(n=61, type=3:12^5)"),
            (49, "gdd-fill(n=49, type=3:12^4)"),
            (73, "gdd-fill(n=73, type=3:12^6)"),
            (55, "gdd-fill(n=55, type=3:18^3)"),
            (97, "gdd-fill(n=97, type=3:24^4)"),
            (67, "gdd-fill(n=67, type=3:12^4+18^1, seed=2)"),
            (79, "gdd-fill(n=79, type=3:18^3+24^1, seed=2)"),
        ],
    )
    def test_provenance_names_a_seed_only_when_the_climb_ran(self, n, provenance):
        """The Bose route (12^3, 12^5, 18^3) and an STS minus a point (12^4,
        12^6, 24^4) use no seed; the master climbs (4^4 6^1 for 12^4 18^1,
        6^3 8^1 for 18^3 24^1) do."""
        assert certified_sts(n, seed=2).provenance == provenance

    def test_order7_rejected(self):
        with pytest.raises(ValueError, match="order 7"):
            certified_sts(7)

    @pytest.mark.parametrize("n", [9, 12, 15, 1])
    def test_bad_orders_rejected(self, n):
        with pytest.raises(ValueError):
            certified_sts(n)

    def test_seed_determinism(self):
        a = certified_sts(67, seed=3)
        b = certified_sts(67, seed=3)
        assert a.design == b.design and a.certificate == b.certificate
        assert a.design != certified_sts(67, seed=4).design

    # Bose 12^3, 12^5 and 18^3, STS minus a point 12^4, 12^6 and 24^4, climbed 12^4 18^1
    @pytest.mark.parametrize("n", [37, 61, 55, 49, 73, 97, 67])
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


CLIMBED_ORDERS = (
    67, 79, 103, 115, 139, 175, 187, 223, 247, 259, 283, 319, 355, 367, 403, 427, 439, 475, 499,
    535, 583, 607, 619, 643, 655, 679, 727, 763, 787, 823, 835, 859, 895, 907, 943, 979, 1003,
)


def test_each_order_takes_the_first_closed_uniform_starter_type():
    """Over every composed order up to 1009 the type is the first g^u,
    g + 1 a starter order, that is closed form, else the mixed type; only
    the listed 37 orders climb."""
    climbed = []
    for n in range(13, 1010, 6):
        if n in BASE_ORDERS:
            continue
        uniform = [GroupType.of((g, (n - 1) // g)) for g in (12, 18, 24, 30, 42) if (n - 1) % g == 0]
        closed = [t for t in uniform if not gdd_module.climbs(t)]
        if closed:
            assert _composed_type(n) == closed[0], n
        else:
            mixed = ((18, (n - 25) // 18), (24, 1)) if n % 36 == 7 else ((12, (n - 19) // 12), (18, 1))
            assert _composed_type(n) == GroupType.of(*mixed), n
            climbed.append(n)
        assert gdd_module.climbs(_composed_type(n)) == (not closed), n
    assert tuple(climbed) == CLIMBED_ORDERS
    assert [_composed_type(n).key() for n in (55, 97, 151, 295)] == ["3:18^3", "3:24^4", "3:30^5", "3:42^7"]


def test_only_the_listed_orders_climb(monkeypatch):
    """A spy on the hill climb over every composed order up to 300: a
    listed order asks only for its master, on (n - 1)/3 points, and every
    other order asks for nothing."""
    real_climb = gdd_module.hill_climb_gdd
    asked = []

    def climb(req):
        asked.append(req.group_type)
        return real_climb(req)

    monkeypatch.setattr(gdd_module, "hill_climb_gdd", climb)
    for n in range(13, 301, 6):
        if n in BASE_ORDERS:
            continue
        del asked[:]
        cd = certified_sts(n)
        assert validate_sts(cd.design) and verify_certificate(cd.design, cd.certificate), n
        if n in CLIMBED_ORDERS:
            assert asked and {t.total_points for t in asked} == {(n - 1) // 3}, n
        else:
            assert asked == [], n


@pytest.mark.skipif(os.environ.get("NONSEQ_STS_LONG") != "1", reason="long; set NONSEQ_STS_LONG=1 to run")
def test_large_closed_form_orders_name_no_seed():
    for n, key in ((985, "3:12^82"), (1009, "3:12^84"), (889, "3:24^37"), (961, "3:24^40")):
        cd = certified_sts(n)
        assert cd.provenance == f"gdd-fill(n={n}, type={key})"
        assert validate_sts(cd.design) and verify_certificate(cd.design, cd.certificate)
    cd = certified_psts(985, 328)
    assert cd.certificate == certified_sts(985).certificate
    assert cd.design.size == 985 * 984 // 6 - 328 and validate_psts(cd.design)


@pytest.mark.skipif(os.environ.get("NONSEQ_STS_LONG") != "1", reason="long; set NONSEQ_STS_LONG=1 to run")
def test_large_orders_7_mod_36_climb_a_master():
    for n, key in ((943, "3:18^51+24^1"), (979, "3:18^53+24^1")):
        cd = certified_sts(n)
        assert cd.provenance.startswith(f"gdd-fill(n={n}, type={key}, seed=")
        assert validate_sts(cd.design) and verify_certificate(cd.design, cd.certificate)


def count_climbs(monkeypatch) -> list:
    """Spy on the hill climb: the returned list collects every seed it is asked for."""
    real_climb = gdd_module.hill_climb_gdd
    seeds = []

    def climb(req):
        seeds.append(req.seed)
        return real_climb(req)

    monkeypatch.setattr(gdd_module, "hill_climb_gdd", climb)
    return seeds


def tree(root) -> list:
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*"))


class TestCacheDirIsIgnored:
    """``cache_dir`` is still accepted, because callers pass it, but no build
    reads or writes anything there: every call composes its design afresh."""

    @pytest.mark.parametrize("n", [67, 55, 37])  # climbed 12^4 18^1, closed 18^3, Bose 12^3
    def test_a_build_writes_nothing(self, tmp_path, n):
        assert certified_sts(n, seed=5, cache_dir=tmp_path) == certified_sts(n, seed=5)
        assert tree(tmp_path) == []

    @pytest.mark.parametrize("kind", ["another seed's design", "broken JSON", "a directory"])
    def test_a_file_at_the_old_cache_name_is_neither_read_nor_changed(self, tmp_path, monkeypatch, kind):
        """Order 67 climbs.  Seed 1's design is a certified STS(67) too, so a
        build that read the planted file would return it; every build climbs
        seed 0 instead and leaves the file as it was."""
        uncached = certified_sts(67)
        path = tmp_path / "sts-67-seed0-f4.json"
        if kind == "another seed's design":
            other = certified_sts(67, seed=1).design
            assert other != uncached.design
            DesignDocument(other, provenance=uncached.provenance).save(path)
        elif kind == "broken JSON":
            path.write_text("{ not json", encoding="utf-8")
        else:
            path.mkdir()
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        seeds = count_climbs(monkeypatch)
        assert certified_sts(67, cache_dir=tmp_path) == uncached
        assert certified_sts(67, cache_dir=tmp_path) == uncached
        assert seeds == [0, 0]
        assert tree(tmp_path) == [path.name]
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    def test_a_cache_under_a_regular_file_is_no_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert certified_sts(67, cache_dir=blocker / "cache") == certified_sts(67)
        assert certified_psts(67, 3, cache_dir=blocker / "cache") == certified_psts(67, 3)
        assert tree(tmp_path) == ["file"]

    def test_a_partial_system_builds_its_parent_afresh(self, tmp_path, monkeypatch):
        uncached = certified_psts(67, 2)
        seeds = count_climbs(monkeypatch)
        assert certified_psts(67, 2, cache_dir=tmp_path) == uncached
        assert certified_psts(67, 2, cache_dir=tmp_path) == uncached
        assert seeds == [0, 0]
        assert tree(tmp_path) == []


UNUSED_BLOCK_CASES =[(n, a) for n in (19, 25, 31, 37, 43, 49, 55, 79) for a in range((n - 1) // 3 + 1)]
CRITERION_5_CASES = [(n, a) for n in (13, 19, 37) for a in range((n - 1) // 3 + 1)]
NON_INT_CASES = [(13.0, 0, 0), (19, True, 0), (19, 2.0, 0), (True, 0, 0), ("19", 1, 0), (37.0, None, 0)] + [
    (103, None, "2"), (37, None, "2"), (103, None, 1.5), (37, None, True), (19, 2, "2"), (67, 2, 1.0)
]


class TestCertifiedPsts:
    def test_a_zero_keeps_the_certificate(self):
        cd = certified_psts(13, 0)
        full = certified_sts(13)
        assert cd.design == full.design
        assert cd.certificate == full.certificate
        assert cd.provenance == "block-removal(n=13, a=0) from base-case(13)"

    def test_order13_deletes_its_first_block(self):
        """Order 13 has no unused block, so a = 1 deletes the first block,
        (0, 1, 4).  Only entry 6 uses it; the other 12 entries are kept."""
        full = certified_sts(13)
        cd = certified_psts(13, 1)
        assert full.design.block_set - cd.design.block_set == {(0, 1, 4)}
        assert [p for p, apc in full.certificate.entries.items() if (0, 1, 4) in apc.blocks] == [6]
        assert cd.certificate.entries == {p: apc for p, apc in full.certificate.entries.items() if p != 6}
        assert validate_psts(cd.design) and verify_certificate(cd.design, cd.certificate)

    def test_every_order_but_13_has_enough_unused_blocks(self):
        """The invariant that spares every build a search: each order from
        19 to 229 has at least (n-1)/3 blocks in no certificate entry, so
        it deletes only those.  Order 13 has none."""
        for n in range(13, 230, 6):
            cd = certified_sts(n)
            used = frozenset().union(*(apc.blocks for apc in cd.certificate.entries.values()))
            unused = cd.design.size - len(used)
            assert unused == 0 if n == 13 else unused >= (n - 1) // 3, n

    def test_certificates_never_reference_removed_blocks(self):
        cd = certified_psts(19, 5)
        for apc in cd.certificate.entries.values():
            assert apc.blocks <= cd.design.block_set

    def test_bound_is_enforced(self):
        with pytest.raises(ValueError, match=r"\(n-1\)/3"):
            certified_psts(13, 5)
        with pytest.raises(ValueError):
            certified_psts(13, -1)

    @pytest.mark.parametrize("n,a", UNUSED_BLOCK_CASES, ids=[f"n{n}-a{a}" for n, a in UNUSED_BLOCK_CASES])
    def test_unused_blocks_go_and_the_certificate_stays(self, n, a, monkeypatch):
        """Every order but 13 has at least (n-1)/3 blocks in no entry:
        deleting them keeps the parent certificate and searches nothing.
        Order 19 leaves an orbit unused, 55 and 79 their GDD blocks beside
        18- and 24-group fills."""
        monkeypatch.setattr(exact_cover, "_first_partition", no_search)
        parent = certified_sts(n)
        cd = certified_psts(n, a)
        assert cd.certificate == parent.certificate
        removed = parent.design.block_set - cd.design.block_set
        assert len(removed) == a and cd.design.size == n * (n - 1) // 6 - a
        assert not any(removed & apc.blocks for apc in parent.certificate.entries.values())
        assert validate_psts(cd.design)
        assert cd.provenance == f"block-removal(n={n}, a={a}) from {parent.provenance}"

    @pytest.mark.parametrize("n,a", CRITERION_5_CASES, ids=[f"n{n}-a{a}" for n, a in CRITERION_5_CASES])
    def test_criterion_5_cases_search_nothing(self, n, a, monkeypatch):
        """Acceptance criterion 5's cases, with every exact-cover search
        patched to raise: at 13, a >= 2 the kept entries still fall short."""
        monkeypatch.setattr(exact_cover, "_first_partition", no_search)
        if n == 13 and a >= 2:
            with pytest.raises(CertificationError):
                certified_psts(n, a)
            return
        cd = certified_psts(n, a)
        assert cd.design.size == n * (n - 1) // 6 - a
        assert len(cd.certificate) >= n - 1
        assert verify_certificate(cd.design, cd.certificate)

    @pytest.mark.parametrize(
        "n,a,seed",
        NON_INT_CASES,
        ids=[f"{n}-{a}" if seed == 0 else f"{n}-{a}-seed{seed!r}" for n, a, seed in NON_INT_CASES],
    )
    def test_non_int_arguments_are_refused_first(self, n, a, seed, monkeypatch):
        """A non-int order, a or seed (float, bool, str) is a ValueError
        before any build, at closed-form orders too, which read no seed."""

        def no_build(*args, **kwargs):
            raise AssertionError("built a design")

        monkeypatch.setattr(constructions, "base_case", no_build)
        monkeypatch.setattr(constructions, "build_gdd", no_build)
        with pytest.raises(ValueError, match=r"must be (an int|ints), got"):
            certified_sts(n, seed=seed) if a is None else certified_psts(n, a, seed=seed)

    @pytest.mark.parametrize("a", range(7))
    def test_order19_every_a(self, a):
        cd = certified_psts(19, a)
        assert cd.design.size == 57 - a
        assert len(cd.certificate) >= 18

    @pytest.mark.parametrize("a", range(13))
    def test_order37_certificate_classes_are_canonical(self, a):
        """The kept parent classes are sorted triples of the reduced design."""
        assert_canonical_classes(certified_psts(37, a))

    def test_order13_single_removal(self):
        cd = certified_psts(13, 1)
        assert cd.design.size == 25
        assert len(cd.certificate) == 12  # every point except the anchor

    @pytest.mark.parametrize(
        "a,missing",
        [(2, (1, 6, 10, 11)), (3, (1, 5, 6, 10, 11)), (4, (1, 5, 6, 8, 9, 10, 11, 12))],
        ids=["2", "3", "4"],
    )
    def test_order13_deeper_removals_surface_failure(self, a, missing):
        """The order-13 system is rigid (one class per point); deleting any
        two or more blocks leaves under n-1 certifiable points, and the
        operation names the points whose entry used a deleted block."""
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
