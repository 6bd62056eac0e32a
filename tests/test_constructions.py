"""Certified builders: starter systems, group-divisible composition, removals."""

import os
from itertools import combinations

import pytest

from nonseq_sts import (
    CertificationError,
    CyclicGroup,
    Design,
    DesignDocument,
    GroupType,
    NonseqCertificate,
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
from nonseq_sts.designs import AlmostParallelClass, ComposedEntries, Gdd

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

    def test_order67_has_a_seven_point_hole(self):
        """12^5 on 0..59 and the hole 60..66, which carries the Fano plane
        once; each group plus the hole carries an STS(19)."""
        cd = certified_sts(67)
        assert cd.design.size == 737 == 67 * 66 // 6
        assert validate_sts(cd.design).ok
        assert len(cd.certificate) == 67
        assert verify_certificate(cd.design, cd.certificate)
        assert cd.provenance == "gdd-fill(n=67, type=3:12^5, hole=7)"
        hole = set(range(60, 67))
        assert sum(set(blk) <= hole for blk in cd.design.blocks) == 7
        for i in range(5):
            label = {p: k for k, p in enumerate([*range(12 * i, 12 * i + 12), *sorted(hole)])}
            inside = [[label[p] for p in blk] for blk in cd.design.blocks if set(blk) <= label.keys()]
            assert validate_sts(Design.from_blocks(19, inside))

    @pytest.mark.parametrize(
        "n,provenance",
        [
            (37, "gdd-fill(n=37, type=3:12^3)"),
            (61, "gdd-fill(n=61, type=3:12^5)"),
            (49, "gdd-fill(n=49, type=3:12^4)"),
            (73, "gdd-fill(n=73, type=3:12^6)"),
            (97, "gdd-fill(n=97, type=3:24^4)"),
            (55, "gdd-fill(n=55, type=3:12^4, hole=7)"),
            (67, "gdd-fill(n=67, type=3:12^5, hole=7)"),
            (79, "gdd-fill(n=79, type=3:12^6, hole=7)"),
            (103, "gdd-fill(n=103, type=3:24^4, hole=7)"),
        ],
    )
    def test_provenance_names_the_type_and_a_seven_point_hole(self, n, provenance):
        """A one-point hole (n = 1 mod 12) is not named; no provenance
        names a seed."""
        assert certified_sts(n, seed=2).provenance == provenance

    def test_order7_rejected(self):
        with pytest.raises(ValueError, match="order 7"):
            certified_sts(7)

    @pytest.mark.parametrize("n", [9, 12, 15, 1])
    def test_bad_orders_rejected(self, n):
        with pytest.raises(ValueError):
            certified_sts(n)

    @pytest.mark.parametrize("n", [37, 67, 103])
    def test_the_seed_is_ignored(self, n):
        assert certified_sts(n, seed=3) == certified_sts(n, seed=4) == certified_sts(n)

    # Bose 12^3 and 12^5, STS minus a point 12^4, 12^6 and 24^4; with a 7-point hole 12^4, 12^5, 24^4
    @pytest.mark.parametrize("n", [37, 61, 49, 73, 97, 55, 67, 103])
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


def test_each_order_follows_the_rule():
    """Over every composed order up to 1009 the type is 12^t, t = (n - h)/12
    with the hole h = 1 or 7, or 24^(t/2) when t = 2 (mod 6); every one is
    closed form."""
    for n in range(13, 1010, 6):
        if n in BASE_ORDERS:
            continue
        h = 1 if n % 12 == 1 else 7
        t = (n - h) // 12
        expected = GroupType.of((24, t // 2)) if t % 6 == 2 else GroupType.of((12, t))
        assert _composed_type(n) == (expected, h) and expected.total_points == n - h, n
        assert gdd_module._closed_form(expected) is not None, n


def test_no_order_climbs(monkeypatch):
    """A spy on the hill climb over every composed order up to 301 sees no
    call, and no provenance names a seed."""
    asked = []
    monkeypatch.setattr(gdd_module, "hill_climb_gdd", asked.append)
    for n in range(37, 302, 6):
        if n in BASE_ORDERS:
            continue
        cd = certified_sts(n)
        assert validate_sts(cd.design) and verify_certificate(cd.design, cd.certificate), n
        assert "seed" not in cd.provenance, n
    assert asked == []


@pytest.mark.parametrize("g", [12, 24])
def test_each_hole_fill_is_certified(g):
    """The fill is an STS(g + 7) whose last 7 points carry the Fano plane,
    P partitions 0..g-1 into its blocks, and each class verifies."""
    blocks, classes, part = constructions._fill(g, 7)
    fill = Design(g + 7, blocks)
    assert validate_sts(fill)
    fano = {tuple(sorted(g + (i + k) % 7 for k in (0, 1, 3))) for i in range(7)}
    assert {blk for blk in blocks if blk[0] >= g} == fano
    assert part <= fill.block_set and sorted(p for blk in part for p in blk) == list(range(g))
    assert len(classes) == g + 7
    certificate = NonseqCertificate({p: AlmostParallelClass(cls, p) for p, cls in enumerate(classes)})
    assert verify_certificate(fill, certificate)


@pytest.mark.parametrize("g,n", [(12, 55), (24, 103)])
def test_a_fill_class_with_a_missing_block_is_refused(g, n, monkeypatch):
    """Swap two points between blocks of point 0's class: the class still
    misses 0 and covers the rest, but uses triples that are no blocks."""
    blocks, part, classes = constructions._HOLE_FILLS[g]
    w = g + 6
    first = classes[:w]
    mutated = first[:2] + first[3] + first[2] + first[4:]
    assert set(mutated) == set(first) and mutated != first
    monkeypatch.setitem(constructions._HOLE_FILLS, g, (blocks, part, mutated + classes[w:]))
    with pytest.raises(RuntimeError, match=f"composed certificate of order {n} does not verify"):
        certified_sts(n)


@pytest.mark.parametrize("n", [37, 55])
def test_a_gdd_with_one_block_swapped_is_refused(n, monkeypatch):
    """``_compose`` takes its GDD unvalidated; the final ``validate_sts``
    catches a GDD block with a point swapped for another of its group."""

    def swapped(g, w):
        built = gdd_module.inflate(g, w)
        (a, b, c), *rest = built.design.blocks
        d = c + 1 if (c + 1) % 12 else c - 1  # same group, so still transverse
        blocks = tuple(sorted([(a, b, d), *rest]))
        return Gdd(built.group_type, built.groups, Design(built.design.n, blocks))

    monkeypatch.setattr(constructions, "inflate", swapped)
    with pytest.raises(RuntimeError, match=f"composed design of order {n} is invalid"):
        certified_sts(n)


@pytest.mark.parametrize("n", [121, 115])
def test_the_composed_path_expands_no_entry(n, tmp_path, monkeypatch):
    """Build, partial system, save, load and verify read the structure:
    an entry lookup anywhere on the way raises."""

    def no_expansion(self, y):
        raise AssertionError(f"entry {y} was expanded")

    monkeypatch.setattr(ComposedEntries, "__getitem__", no_expansion)
    for built in (certified_sts(n), certified_psts(n, (n - 1) // 3)):
        assert type(built.certificate.entries) is ComposedEntries
        DesignDocument(built.design, certificate=built.certificate, provenance=built.provenance).save(tmp_path / "d.json")
        loaded = DesignDocument.load(tmp_path / "d.json")
        assert type(loaded.certificate.entries) is ComposedEntries
        assert validate_psts(loaded.design) and verify_certificate(loaded.design, loaded.certificate)
        assert 0 in loaded.certificate.entries and n not in loaded.certificate.entries


@pytest.mark.skipif(os.environ.get("NONSEQ_STS_LONG") != "1", reason="long; set NONSEQ_STS_LONG=1 to run")
def test_large_orders():
    cases = (
        (985, "3:12^82"), (1009, "3:12^84"), (889, "3:24^37"), (961, "3:24^40"),
        (943, "3:12^78, hole=7"), (967, "3:24^40, hole=7"), (979, "3:12^81, hole=7"), (1003, "3:12^83, hole=7"),
    )
    for n, key in cases:
        cd = certified_sts(n)
        assert cd.provenance == f"gdd-fill(n={n}, type={key})"
        assert validate_sts(cd.design) and verify_certificate(cd.design, cd.certificate)
    cd = certified_psts(985, 328)
    assert cd.certificate == certified_sts(985).certificate
    assert cd.design.size == 985 * 984 // 6 - 328 and validate_psts(cd.design)


def tree(root) -> list:
    return sorted(p.relative_to(root).as_posix() for p in root.rglob("*"))


class TestCacheDirIsIgnored:
    """``cache_dir`` is still accepted, because callers pass it, but no build
    reads or writes anything there: every call composes its design afresh."""

    @pytest.mark.parametrize("n", [67, 97, 37])  # 12^5 with a 7-point hole, 24^4, Bose 12^3
    def test_a_build_writes_nothing(self, tmp_path, n):
        assert certified_sts(n, seed=5, cache_dir=tmp_path) == certified_sts(n, seed=5)
        assert tree(tmp_path) == []

    @pytest.mark.parametrize("kind", ["another design", "broken JSON", "a directory"])
    def test_a_file_at_the_old_cache_name_is_neither_read_nor_changed(self, tmp_path, kind):
        """The planted design is an STS(67) too, the built one with points 0
        and 66 swapped, so a build that read the file would return it; every
        build composes afresh and leaves the file as it was."""
        uncached = certified_sts(67)
        path = tmp_path / "sts-67-seed0-f4.json"
        if kind == "another design":
            swap = {0: 66, 66: 0}
            other = Design.from_blocks(67, [[swap.get(p, p) for p in blk] for blk in uncached.design.blocks])
            assert other != uncached.design and validate_sts(other)
            DesignDocument(other, provenance=uncached.provenance).save(path)
        elif kind == "broken JSON":
            path.write_text("{ not json", encoding="utf-8")
        else:
            path.mkdir()
        before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}
        assert certified_sts(67, cache_dir=tmp_path) == uncached
        assert certified_sts(67, cache_dir=tmp_path) == uncached
        assert tree(tmp_path) == [path.name]
        assert {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == before

    def test_a_cache_under_a_regular_file_is_no_error(self, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        assert certified_sts(67, cache_dir=blocker / "cache") == certified_sts(67)
        assert certified_psts(67, 3, cache_dir=blocker / "cache") == certified_psts(67, 3)
        assert tree(tmp_path) == ["file"]

    def test_a_partial_system_builds_its_parent_afresh(self, tmp_path):
        uncached = certified_psts(67, 2)
        assert certified_psts(67, 2, cache_dir=tmp_path) == uncached
        assert certified_psts(67, 2, cache_dir=tmp_path) == uncached
        assert tree(tmp_path) == []


UNUSED_BLOCK_CASES = [(n, a) for n in (19, 25, 31, 37, 43, 49, 55, 67, 79, 103) for a in range((n - 1) // 3 + 1)]
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
        Order 19 leaves an orbit unused, a composed order its GDD blocks,
        beside one-point fills (37, 49) or 7-point holes (55, 67, 79, 103)."""
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
        before any build, although no build reads the seed."""

        def no_build(*args, **kwargs):
            raise AssertionError("built a design")

        monkeypatch.setattr(constructions, "base_case", no_build)
        monkeypatch.setattr(constructions, "inflate", no_build)
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
