"""GDD builders: direct constructions, inflation, hill climbing, caching."""

import json

import pytest

from nonseq_sts import (
    BudgetExceededError,
    GddRequest,
    GroupType,
    bose_gdd,
    bose_sts,
    build_gdd,
    develop,
    hill_climb_gdd,
    inflate,
    necessary_conditions,
    sts_as_gdd,
    td3,
    validate_gdd,
    validate_sts,
    CyclicGroup,
    certified_sts,
)
from nonseq_sts import gdd as gdd_module


def cross_pair_count(gdd) -> int:
    """Independent pair-count oracle from the group sizes alone."""
    sizes = [len(grp) for grp in gdd.groups]
    n = sum(sizes)
    return (n * (n - 1) - sum(s * (s - 1) for s in sizes)) // 2


class TestTd3:
    @pytest.mark.parametrize("m,blocks", [(1, 1), (2, 4), (12, 144)])
    def test_sizes_and_validity(self, m, blocks):
        g = td3(m)
        assert g.design.size == blocks
        assert validate_gdd(g).ok
        assert 3 * g.design.size == cross_pair_count(g)

    @pytest.mark.parametrize("m", [1, 2, 5, 12])
    def test_is_the_latin_square_z_equals_x_plus_y(self, m):
        g = td3(m)
        assert set(g.design.blocks) == {(x, m + y, 2 * m + (x + y) % m) for x in range(m) for y in range(m)}
        assert g.groups == tuple(tuple(range(i * m, (i + 1) * m)) for i in range(3))

    def test_m_zero_rejected(self):
        with pytest.raises(ValueError):
            td3(0)


class TestBose:
    @pytest.mark.parametrize("u,blocks", [(3, 9), (5, 30)])
    def test_small(self, u, blocks):
        g = bose_gdd(u)
        assert g.design.size == blocks
        assert validate_gdd(g).ok

    def test_even_u_rejected(self):
        with pytest.raises(ValueError):
            bose_gdd(4)

    @pytest.mark.parametrize("u", range(3, 21, 2))
    def test_all_small_odd_u_valid(self, u):
        assert validate_gdd(bose_gdd(u)).ok

    @pytest.mark.parametrize("u", range(1, 100, 2))
    def test_quasigroup_idempotent_and_commutative(self, u):
        half = (u + 1) // 2
        op = lambda x, y: (x + y) * half % u
        for x in range(u):
            assert op(x, x) == x
            for y in range(x + 1, u):
                assert op(x, y) == op(y, x)

    @pytest.mark.parametrize("n", [9, 15, 21, 33])
    def test_bose_sts(self, n):
        assert validate_sts(bose_sts(n)).ok

    def test_bose_sts_wrong_order(self):
        with pytest.raises(ValueError):
            bose_sts(13)


class TestInflate:
    def test_triangle_by_12_is_a_td(self):
        g = inflate(td3(1), 12)
        assert g.group_type == GroupType.of((12, 3))
        assert g.design.size == 144
        assert validate_gdd(g).ok

    def test_bose5_by_4(self):
        g = inflate(bose_gdd(5), 4)
        assert g.group_type == GroupType.of((12, 5))
        assert g.design.size == 480 == 24 * 5 * 4
        assert validate_gdd(g).ok

    def test_weight_one_is_identity(self):
        g = bose_gdd(3)
        assert inflate(g, 1) == g

    @pytest.mark.parametrize("w", [1, 2, 3, 4])
    def test_inflation_preserves_validity(self, w):
        for g in (td3(2), bose_gdd(3)):
            assert validate_gdd(inflate(g, w)).ok

    def test_inflated_sts_route(self):
        # the alternative realisation of type 12^9: blow an order-9 system up
        g = inflate(sts_as_gdd(bose_sts(9)), 12)
        assert g.group_type == GroupType.of((12, 9))
        assert validate_gdd(g).ok
        assert g.design.size == 24 * 9 * 8


class TestStsAsGdd:
    def test_order7(self):
        g = sts_as_gdd(develop([(0, 1, 3)], CyclicGroup(7)))
        assert g.group_type == GroupType.of((1, 7))
        assert validate_gdd(g).ok

    def test_invalid_design_rejected(self):
        from nonseq_sts import Design

        with pytest.raises(ValueError):
            sts_as_gdd(Design.from_blocks(7, [(0, 1, 3)]))


class TestNecessaryConditions:
    def test_two_groups_rejected(self):
        assert not necessary_conditions(GroupType.of((2, 2)))
        assert not necessary_conditions(GroupType.of((6, 2)))

    def test_odd_cross_degree_rejected(self):
        assert necessary_conditions(GroupType.of((3, 4))).category == "degree"

    def test_good_types_pass(self):
        assert necessary_conditions(GroupType.of((12, 4)))
        assert necessary_conditions(GroupType.of((12, 3), (18, 1)))
        assert necessary_conditions(GroupType.of((1, 1)))  # empty decomposition


class TestHillClimb:
    @pytest.mark.parametrize(
        "parts,blocks",
        [((( 6, 4),), 72), (((12, 4),), 288), (((12, 3), (18, 1)), 360)],
    )
    def test_requested_types(self, parts, blocks):
        g = hill_climb_gdd(GddRequest(GroupType.of(*parts), seed=1))
        assert g.design.size == blocks
        assert validate_gdd(g).ok
        assert 3 * g.design.size == cross_pair_count(g)

    def test_deterministic_for_fixed_seed(self):
        a = hill_climb_gdd(GddRequest(GroupType.of((6, 4)), seed=42))
        b = hill_climb_gdd(GddRequest(GroupType.of((6, 4)), seed=42))
        assert a == b

    def test_bad_type_rejected(self):
        with pytest.raises(ValueError):
            hill_climb_gdd(GddRequest(GroupType.of((6, 2))))

    def test_seed_that_hung_returns_or_raises(self):
        # 12^3 18^1 with seed 10 once ran for minutes without returning
        try:
            g = hill_climb_gdd(GddRequest(GroupType.of((12, 3), (18, 1)), seed=10))
        except BudgetExceededError:
            return
        assert validate_gdd(g).ok
        assert g.seed == 10

    def test_move_limit_raises_with_the_moves_used(self):
        """Seed 4 of 12^4 is stuck: it uses up all 10 moves per cross pair."""
        group_type = GroupType.of((12, 4))
        with pytest.raises(BudgetExceededError) as info:
            hill_climb_gdd(GddRequest(group_type, seed=4))
        assert gdd_module.MOVES_PER_CROSS_PAIR * group_type.cross_pairs() == 8640
        assert (info.value.used, info.value.budget) == (8640, 8640)
        assert "8640 moves" in str(info.value)

    @pytest.mark.parametrize(
        "parts",
        [((2, 4),), ((6, 3),), ((6, 4),), ((12, 4),), ((12, 3), (18, 1)), ((12, 8),)],
        ids=lambda parts: "+".join(f"{s}^{c}" for s, c in parts),
    )
    def test_seed_sweep(self, parts):
        group_type = GroupType.of(*parts)
        budget = gdd_module.MOVES_PER_CROSS_PAIR * group_type.cross_pairs()
        stuck = []
        for seed in range(20):
            req = GddRequest(group_type, seed)
            try:
                g = hill_climb_gdd(req)
            except BudgetExceededError as exc:
                assert (exc.used, exc.budget) == (budget, budget)
                with pytest.raises(BudgetExceededError):
                    hill_climb_gdd(req)
                stuck.append(seed)
                continue
            assert validate_gdd(g).ok
            assert 3 * g.design.size == group_type.cross_pairs() == cross_pair_count(g)
            assert g.seed == seed
            assert hill_climb_gdd(req) == g
        # a seed sweep of 1000 seeds got stuck on at most 4.5% of them
        assert len(stuck) <= 3, stuck


class TestBuildGdd:
    @pytest.mark.parametrize("u", range(3, 9))
    def test_type_12_u(self, u, tmp_path):
        g = build_gdd(GddRequest(GroupType.of((12, u))), cache_dir=tmp_path)
        assert validate_gdd(g).ok
        assert g.design.size == 24 * u * (u - 1)

    def test_retries_realise_every_seed(self):
        group_type = GroupType.of((12, 3), (18, 1))
        for seed in range(50):
            g = build_gdd(GddRequest(group_type, seed))
            assert validate_gdd(g).ok
            assert seed <= g.seed < seed + 3

    @pytest.mark.parametrize("u", [3, 4, 5])
    def test_mixed_types(self, u):
        g = build_gdd(GddRequest(GroupType.of((12, u), (18, 1))))
        assert validate_gdd(g).ok
        assert 3 * g.design.size == cross_pair_count(g)

    def test_cache_round_trip(self, tmp_path, monkeypatch):
        gt = GroupType.of((12, 4))
        first = build_gdd(GddRequest(gt, seed=5), cache_dir=tmp_path)
        assert (tmp_path / "3-12^4-seed5.json").exists()
        real_climb = gdd_module.hill_climb_gdd

        def no_climb(req, **kwargs):
            raise AssertionError("the hill climb ran on a cache hit")

        # the same seed hits the cache and returns the same verified object
        monkeypatch.setattr(gdd_module, "hill_climb_gdd", no_climb)
        assert build_gdd(GddRequest(gt, seed=5), cache_dir=tmp_path) == first
        # a different seed rebuilds, as an uncached build would
        monkeypatch.setattr(gdd_module, "hill_climb_gdd", real_climb)
        second = build_gdd(GddRequest(gt, seed=99), cache_dir=tmp_path)
        assert (tmp_path / "3-12^4-seed99.json").exists()
        assert second == build_gdd(GddRequest(gt, seed=99))
        assert second != first

    def test_bose_route_leaves_the_cache_alone(self, tmp_path):
        # the closed form is rebuilt: it writes no file and reads none,
        # not even a corrupted one under the type's name
        gt = GroupType.of((12, 3))
        uncached = build_gdd(GddRequest(gt, seed=5))
        assert build_gdd(GddRequest(gt, seed=5), cache_dir=tmp_path) == uncached
        assert list(tmp_path.iterdir()) == []
        planted = tmp_path / "3-12^3.json"
        payload = {"format": 2, "key": gt.key(), "seed": 5, "groups": [list(grp) for grp in uncached.groups]}
        payload["blocks"] = [list(blk) for blk in uncached.design.blocks][:-1]
        planted.write_text(json.dumps(payload), encoding="utf-8")
        assert build_gdd(GddRequest(gt, seed=99), cache_dir=tmp_path) == uncached
        assert [p.name for p in tmp_path.iterdir()] == ["3-12^3.json"]
        assert json.loads(planted.read_text(encoding="utf-8")) == payload

    def test_cache_records_the_seed_that_succeeded(self, tmp_path, monkeypatch):
        real_climb = gdd_module.hill_climb_gdd

        def climb_failing_first_seed(req, **kwargs):
            if req.seed == 7:
                raise BudgetExceededError("forced failure")
            return real_climb(req, **kwargs)

        monkeypatch.setattr(gdd_module, "hill_climb_gdd", climb_failing_first_seed)
        built = build_gdd(GddRequest(GroupType.of((12, 4)), seed=7), cache_dir=tmp_path)
        payload = json.loads((tmp_path / "3-12^4-seed7.json").read_text(encoding="utf-8"))
        assert payload["seed"] == 8
        assert built == real_climb(GddRequest(GroupType.of((12, 4)), seed=8))
        assert built.seed == 8

    def test_cached_certified_sts_honours_the_seed(self, tmp_path, monkeypatch):
        certified_sts(49, seed=0, cache_dir=tmp_path)
        cached = certified_sts(49, seed=1, cache_dir=tmp_path)
        fresh = certified_sts(49, seed=1)
        assert cached.design == fresh.design
        assert cached.certificate == fresh.certificate
        assert cached.provenance == fresh.provenance == "gdd-fill(n=49, type=3:12^4, seed=1)"

        # the first seed fails: the provenance names the seed that succeeded,
        # on the build that fills the cache and on the hit that reads it
        real_climb = gdd_module.hill_climb_gdd

        def climb_failing_first_seed(req, **kwargs):
            if req.seed == 7:
                raise BudgetExceededError("forced failure")
            return real_climb(req, **kwargs)

        def no_climb(req, **kwargs):
            raise AssertionError("the hill climb ran on a cache hit")

        monkeypatch.setattr(gdd_module, "hill_climb_gdd", climb_failing_first_seed)
        fresh = certified_sts(49, seed=7)
        built = certified_sts(49, seed=7, cache_dir=tmp_path)
        monkeypatch.setattr(gdd_module, "hill_climb_gdd", no_climb)
        cached = certified_sts(49, seed=7, cache_dir=tmp_path)
        assert fresh.provenance == "gdd-fill(n=49, type=3:12^4, seed=8 (requested 7))"
        for other in (built, cached):
            assert other.design == fresh.design
            assert other.certificate == fresh.certificate
            assert other.provenance == fresh.provenance

    def test_corrupted_cache_is_rebuilt(self, tmp_path):
        gt = GroupType.of((12, 4))
        build_gdd(GddRequest(gt), cache_dir=tmp_path)
        path = tmp_path / "3-12^4-seed0.json"
        for text in ("{ not json", "[" * 100000 + "]" * 100000):
            path.write_text(text, encoding="utf-8")
            assert validate_gdd(build_gdd(GddRequest(gt), cache_dir=tmp_path)).ok
        # invalid-but-parseable payloads are also ignored
        payload = json.loads(path.read_text(encoding="utf-8"))
        payload["blocks"] = payload["blocks"][:-1]
        path.write_text(json.dumps(payload), encoding="utf-8")
        assert validate_gdd(build_gdd(GddRequest(gt), cache_dir=tmp_path)).ok

    @pytest.mark.parametrize("key,value", [("format", None), ("format", 1), ("seed", True), ("seed", "5")])
    def test_stale_or_malformed_cache_is_rebuilt(self, tmp_path, monkeypatch, key, value):
        # a file of another format may hold what an older climb built from the seed
        gt = GroupType.of((12, 4))
        first = build_gdd(GddRequest(gt, seed=5), cache_dir=tmp_path)
        path = tmp_path / "3-12^4-seed5.json"
        payload = json.loads(path.read_text(encoding="utf-8"))
        if value is None:
            del payload[key]
        else:
            payload[key] = value
        path.write_text(json.dumps(payload), encoding="utf-8")
        real_climb = gdd_module.hill_climb_gdd
        seeds = []

        def counting_climb(req, **kwargs):
            seeds.append(req.seed)
            return real_climb(req, **kwargs)

        monkeypatch.setattr(gdd_module, "hill_climb_gdd", counting_climb)
        assert build_gdd(GddRequest(gt, seed=5), cache_dir=tmp_path) == first
        assert seeds == [5]

    def test_cache_store_onto_a_directory_leaves_nothing_behind(self, tmp_path):
        g = build_gdd(GddRequest(GroupType.of((6, 4))))
        target = tmp_path / "3-6^4-seed0.json"
        target.mkdir()
        with pytest.raises(OSError):
            gdd_module._cache_store(target, g)
        assert [p.name for p in tmp_path.iterdir()] == [target.name]
        assert list(target.iterdir()) == []

    def test_an_unwritable_cache_is_skipped(self, tmp_path):
        """A cache directory under a regular file can be neither read nor
        written: the build climbs, stores nothing and returns what an
        uncached build does."""
        blocker = tmp_path / "file"
        blocker.write_text("")
        gt = GroupType.of((12, 4))
        assert build_gdd(GddRequest(gt), cache_dir=blocker / "cache") == build_gdd(GddRequest(gt))
        assert [p.name for p in tmp_path.iterdir()] == ["file"]

    def test_give_up_error_sums_the_attempts(self, monkeypatch):
        def stuck_climb(req, **kwargs):
            raise BudgetExceededError(f"seed {req.seed} stuck", used=7, budget=10)

        monkeypatch.setattr(gdd_module, "hill_climb_gdd", stuck_climb)
        attempts = gdd_module.CLIMB_ATTEMPTS
        with pytest.raises(BudgetExceededError) as info:
            build_gdd(GddRequest(GroupType.of((12, 4)), seed=4))
        assert (info.value.used, info.value.budget) == (7 * attempts, 10 * attempts)
        assert str(info.value) == f"could not realise 3:12^4 in {attempts} attempts: seed {4 + attempts - 1} stuck"

    def test_rejects_impossible_type(self, tmp_path):
        with pytest.raises(ValueError):
            build_gdd(GddRequest(GroupType.of((6, 2))))
        # the climb's check is the only one: same text, nothing cached
        for parts in (((6, 2),), ((1, 4),), ((1, 5),)):  # shape, degree, divisibility
            req = GddRequest(GroupType.of(*parts))
            with pytest.raises(ValueError) as climbed:
                hill_climb_gdd(req)
            for cache_dir in (None, tmp_path):
                with pytest.raises(ValueError) as built:
                    build_gdd(req, cache_dir=cache_dir)
                assert str(built.value) == str(climbed.value)
                assert "fails necessary conditions" in str(built.value)
        assert not any(tmp_path.iterdir())

    def test_empty_type_is_the_empty_gdd(self):
        req = GddRequest(GroupType.of())
        built = build_gdd(req)
        assert built == hill_climb_gdd(req)
        assert (built.groups, built.design.n, built.design.blocks) == ((), 0, ())

    def test_block_count_law_never_hardcoded(self):
        for parts in [((12, 3),), ((12, 4),), ((6, 4),), ((12, 3), (18, 1))]:
            g = build_gdd(GddRequest(GroupType.of(*parts)))
            assert 3 * g.design.size == cross_pair_count(g)
