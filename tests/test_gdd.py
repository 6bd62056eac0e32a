"""GDD builders: direct constructions, inflation, hill climbing."""

import re

import pytest

from nonseq_sts import (
    BudgetExceededError,
    GddRequest,
    GroupType,
    bose_gdd,
    bose_sts,
    build_gdd,
    canonical_groups,
    develop,
    hill_climb_gdd,
    inflate,
    necessary_conditions,
    skolem_sts,
    sts_as_gdd,
    td3,
    validate_gdd,
    validate_sts,
    CyclicGroup,
    Gdd,
)
from nonseq_sts import gdd as gdd_module
from nonseq_sts.constructions import _composed_type


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


class TestSkolem:
    @pytest.mark.parametrize("n", range(7, 200, 6))
    def test_skolem_sts(self, n):
        assert validate_sts(skolem_sts(n)).ok

    @pytest.mark.parametrize("n", [n for n in range(2, 40) if n % 6 != 1])
    def test_other_residues_rejected(self, n):
        with pytest.raises(ValueError):
            skolem_sts(n)


class TestStsMinusPoint:
    @pytest.mark.parametrize("u", [u for u in range(3, 61) if u % 3 != 2])
    def test_type_2_u_on_canonical_groups(self, u):
        g = gdd_module._sts_minus_point(2 * u + 1)
        assert g.group_type == GroupType.of((2, u))
        assert validate_gdd(g).ok
        assert g.groups == canonical_groups(g.group_type)


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

    def test_the_seed_is_kept(self):
        climbed = hill_climb_gdd(GddRequest(GroupType.of((6, 4)), seed=3))
        assert inflate(climbed, 2).seed == 3
        assert inflate(bose_gdd(3), 2).seed is None

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

    @pytest.mark.parametrize("parts", [((2, 3), (8, 1)), ((6, 3), (24, 1))], ids=["2^3+8^1", "6^3+24^1"])
    def test_pair_bound(self, monkeypatch, parts):
        """g^u m^1 needs m <= g(u - 1).  Both types meet the degree and
        divisibility conditions, yet have no GDD; both are refused before
        the climb draws its generator, let alone makes a move."""
        group_type = GroupType.of(*parts)
        rep = necessary_conditions(group_type)
        assert rep.category == "pair-bound"
        drawn = []
        monkeypatch.setattr(gdd_module.random, "Random", lambda seed: drawn.append(seed))
        with pytest.raises(ValueError, match="fails necessary conditions: " + re.escape(rep.detail)):
            build_gdd(GddRequest(group_type))
        assert drawn == []

    def test_every_type_a_route_uses_passes(self):
        """Every composed type and the type a third its size, and the
        closed-form masters: Bose 3^u (odd u), an STS minus a point 2^u
        (u != 2 mod 3) and td3's 1^3."""
        for n in range(55, 1010, 6):
            group_type, _h = _composed_type(n)
            assert necessary_conditions(group_type), n
            climbed, _w = gdd_module._climbed_type(group_type)
            assert necessary_conditions(climbed), n
        for u in range(3, 60):
            if u % 2:
                assert necessary_conditions(GroupType.of((3, u))), u
            if u % 3 != 2:
                assert necessary_conditions(GroupType.of((2, u))), u
        assert necessary_conditions(GroupType.of((1, 3)))


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
        [((2, 4),), ((6, 3),), ((6, 4),), ((12, 4),), ((12, 3), (18, 1)), ((12, 8),), ((4, 4), (6, 1)), ((6, 3), (8, 1))],
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
    def test_type_12_u(self, u):
        g = build_gdd(GddRequest(GroupType.of((12, u))))
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

    @pytest.mark.parametrize("g", [2, 4, 6, 12])
    def test_closed_routes_never_climb(self, monkeypatch, g):
        """g^u is closed form for u odd with 3 | g (Bose) and for u != 2
        (mod 3) (an STS(2u + 1) minus a point); only the rest climb."""
        climbed = []

        def no_climb(req):
            climbed.append(req.group_type.key())
            raise BudgetExceededError("climbed", used=0, budget=0)

        monkeypatch.setattr(gdd_module, "hill_climb_gdd", no_climb)
        for u in range(3, 15):
            group_type = GroupType.of((g, u))
            closed = (u % 2 == 1 and g % 3 == 0) or u % 3 != 2
            assert (gdd_module._closed_form(group_type) is not None) is closed
            if closed:
                built = build_gdd(GddRequest(group_type, seed=5))
                assert built.seed is None
                assert built.groups == canonical_groups(group_type)
            else:
                with pytest.raises(BudgetExceededError):
                    build_gdd(GddRequest(group_type, seed=5))
        expected = [f"3:{g}^{u}" for u in range(3, 15) if not ((u % 2 == 1 and g % 3 == 0) or u % 3 != 2)]
        assert climbed == [key for key in expected for _ in range(gdd_module.CLIMB_ATTEMPTS)]

    @pytest.mark.parametrize(
        "parts",
        [((1, 7),), ((6, 8),), ((12, 8),), ((12, 3), (18, 1)), ((18, 3), (24, 1))],
        ids=lambda parts: "+".join(f"{s}^{c}" for s, c in parts),
    )
    def test_a_climbed_type_records_its_seed(self, parts):
        assert gdd_module._closed_form(GroupType.of(*parts)) is None
        built = build_gdd(GddRequest(GroupType.of(*parts), seed=5))
        assert 5 <= built.seed < 5 + gdd_module.CLIMB_ATTEMPTS

    @pytest.mark.parametrize(
        "parts,master",
        [
            (((12, 3), (18, 1)), ((4, 3), (6, 1))),
            (((12, 4), (18, 1)), ((4, 4), (6, 1))),
            (((18, 3), (24, 1)), ((6, 3), (8, 1))),
            (((18, 5), (24, 1)), ((6, 5), (8, 1))),
            (((12, 5), (18, 1)), ((12, 5), (18, 1))),  # 4^5 6^1 fails the divisibility condition
            (((12, 8),), ((12, 8),)),  # 4^8 too
        ],
        ids=lambda parts: "+".join(f"{s}^{c}" for s, c in parts),
    )
    def test_multiples_of_3_climb_the_type_a_third_the_size(self, monkeypatch, parts, master):
        """Where the type with every size divided by 3 meets the necessary
        conditions, only it is climbed, and the GDD is its inflation by 3,
        named by the master climb's seed."""
        real_climb = gdd_module.hill_climb_gdd
        climbed = []

        def climb(req):
            climbed.append(req)
            return real_climb(req)

        monkeypatch.setattr(gdd_module, "hill_climb_gdd", climb)
        built = build_gdd(GddRequest(GroupType.of(*parts), seed=5))
        assert {req.group_type for req in climbed} == {GroupType.of(*master)}
        assert built.seed == climbed[-1].seed
        if master != parts:
            assert built == inflate(real_climb(climbed[-1]), 3)

    def test_the_seed_that_hung_builds(self):
        """Seed 10 of 12^3 18^1 hung in the hill climb before its moves were
        capped.  No order composes this type any more; ``build_gdd`` still
        realises it from the master 4^3 6^1."""
        g = build_gdd(GddRequest(GroupType.of((12, 3), (18, 1)), 10))
        assert validate_gdd(g).ok
        assert 10 <= g.seed < 10 + gdd_module.CLIMB_ATTEMPTS

    def test_give_up_error_sums_the_attempts(self, monkeypatch):
        def stuck_climb(req, **kwargs):
            raise BudgetExceededError(f"seed {req.seed} stuck", used=7, budget=10)

        monkeypatch.setattr(gdd_module, "hill_climb_gdd", stuck_climb)
        attempts = gdd_module.CLIMB_ATTEMPTS
        with pytest.raises(BudgetExceededError) as info:
            build_gdd(GddRequest(GroupType.of((12, 3), (18, 1)), seed=4))
        assert (info.value.used, info.value.budget) == (7 * attempts, 10 * attempts)
        assert str(info.value) == f"could not realise 3:12^3+18^1 in {attempts} attempts: seed {4 + attempts - 1} stuck"

    def test_rejects_impossible_type(self):
        with pytest.raises(ValueError):
            build_gdd(GddRequest(GroupType.of((6, 2))))
        # the climb's check is the only one: same text
        for parts in (((6, 2),), ((1, 4),), ((1, 5),)):  # shape, degree, divisibility
            req = GddRequest(GroupType.of(*parts))
            with pytest.raises(ValueError) as climbed:
                hill_climb_gdd(req)
            with pytest.raises(ValueError) as built:
                build_gdd(req)
            assert str(built.value) == str(climbed.value)
            assert "fails necessary conditions" in str(built.value)

    @pytest.mark.parametrize(
        "parts",
        [((12, 3),), ((12, 5),), ((12, 4),), ((12, 3), (18, 1)), ((6, 4),), ((18, 3), (24, 1)), ((12, 5), (18, 1))],
        ids=lambda parts: "+".join(f"{s}^{c}" for s, c in parts),
    )
    def test_groups_are_canonical_on_both_routes(self, parts):
        # certified_sts lays its fills and certificate out on this layout
        group_type = GroupType.of(*parts)
        assert build_gdd(GddRequest(group_type)).groups == canonical_groups(group_type)

    def test_groups_out_of_canonical_order_are_refused(self, monkeypatch):
        real_climb = gdd_module.hill_climb_gdd

        def reversed_climb(req):
            g = real_climb(req)
            return Gdd(g.group_type, g.groups[::-1], g.design, seed=g.seed)

        monkeypatch.setattr(gdd_module, "hill_climb_gdd", reversed_climb)
        req = GddRequest(GroupType.of((12, 3), (18, 1)))
        assert validate_gdd(reversed_climb(req))  # a valid GDD, on another layout
        with pytest.raises(RuntimeError, match="canonical groups"):
            build_gdd(req)

    def test_empty_type_is_the_empty_gdd(self):
        req = GddRequest(GroupType.of())
        built = build_gdd(req)
        assert built == hill_climb_gdd(req)
        assert (built.groups, built.design.n, built.design.blocks) == ((), 0, ())

    def test_block_count_law_never_hardcoded(self):
        for parts in [((12, 3),), ((12, 4),), ((6, 4),), ((12, 3), (18, 1))]:
            g = build_gdd(GddRequest(GroupType.of(*parts)))
            assert 3 * g.design.size == cross_pair_count(g)
