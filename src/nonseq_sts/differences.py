"""Base-block development over finite abelian groups Z_m1 x ... x Z_mk.

A list of starter blocks is developed by translating it through the whole
group; the result is a Steiner triple system exactly when the 6 signed
pairwise differences per starter, taken over all starters, hit every
nonzero group element exactly once.  ``difference_coverage`` computes that
multiset, ``residual_differences`` the uncovered part, and
``complete_base_blocks`` searches for canonical starters realising the
residual when a published list is arithmetically short.

Every function reads its group elements into point indices once, computes
on ints, and writes back only what it returns.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import permutations
from math import prod
from typing import Iterable, Sequence, Union

from .designs import AlmostParallelClass, Design

GroupElement = Union[int, tuple[int, ...]]
BaseBlock = tuple[GroupElement, GroupElement, GroupElement]


@dataclass(frozen=True)
class AbelianGroup:
    """Z_m1 x ... x Z_mk under addition, with arithmetic on point indices.

    The element (x1, ..., xk) is point x1*m2*...*mk + ... + xk, so Z_n is
    the identity labelling.  ``index`` (element to point) and ``element``
    (point to element: an int when k = 1, a k-tuple otherwise) are the only
    places where element notation is read or written.
    """

    moduli: tuple[int, ...]

    def __post_init__(self):
        if not self.moduli or min(self.moduli) < 2 or prod(self.moduli) < 3:
            raise ValueError(f"group needs moduli >= 2 and order >= 3, got {self.moduli}")

    @property
    def order(self) -> int:
        return prod(self.moduli)

    def elements(self) -> Iterable[GroupElement]:
        return map(self.element, range(self.order))

    def index(self, e: GroupElement) -> int:
        coords = (e,) if len(self.moduli) == 1 else e
        i = 0
        for x, m in zip(coords, self.moduli, strict=True):
            i = i * m + x % m
        return i

    def element(self, i: int) -> GroupElement:
        coords = []
        for m in reversed(self.moduli):
            i, x = divmod(i, m)
            coords.append(x)
        return coords[0] if len(coords) == 1 else tuple(reversed(coords))

    def add(self, i: int, j: int, sign: int = 1) -> int:
        """The point of element(i) + sign * element(j)."""
        out, weight = 0, 1
        for m in reversed(self.moduli):
            i, x = divmod(i, m)
            j, y = divmod(j, m)
            out += (x + sign * y) % m * weight
            weight *= m
        return out


def CyclicGroup(n: int) -> AbelianGroup:
    """Z_n; its elements are ints."""
    return AbelianGroup((n,))


def ProductGroup(m1: int, m2: int) -> AbelianGroup:
    """Z_m1 x Z_m2; its elements are pairs (x, y), point m2*x + y."""
    return AbelianGroup((m1, m2))


def _members(base_block, group: AbelianGroup) -> tuple[int, int, int]:
    members = tuple(group.index(e) for e in base_block)
    if len(members) != 3 or len(set(members)) != 3:
        raise ValueError(f"base block {base_block!r} must have 3 distinct group elements")
    return members


def develop(base: Sequence[BaseBlock], group: AbelianGroup) -> Design:
    """Translate every starter block through the whole group.

    Starters whose orbit is shorter than the group order are rejected
    rather than silently deduplicated; translates are compared as point sets.
    """
    blocks = []
    for bb in base:
        members = _members(bb, group)
        orbit = [tuple(group.add(m, t) for m in members) for t in range(group.order)]
        distinct = len(set(map(frozenset, orbit)))
        if distinct < group.order:
            raise ValueError(f"base block {bb!r} has a short orbit ({distinct} of {group.order} translates)")
        blocks.extend(orbit)
    return Design.from_blocks(group.order, blocks)


def _coverage(base: Sequence[BaseBlock], group: AbelianGroup) -> Counter:
    """The signed differences of ``difference_coverage``, as points."""
    coverage: Counter = Counter()
    for bb in base:
        for a, b in permutations(_members(bb, group), 2):
            coverage[group.add(a, b, -1)] += 1
    return coverage


def difference_coverage(base: Sequence[BaseBlock], group: AbelianGroup) -> Counter:
    """Multiset of all 6*len(base) signed pairwise differences.

    Development yields a Steiner triple system iff this hits every nonzero
    group element exactly once.
    """
    return Counter({group.element(d): c for d, c in _coverage(base, group).items()})


def coverage_is_exact(base: Sequence[BaseBlock], group: AbelianGroup) -> bool:
    """Whether the signed differences cover each nonzero element exactly once."""
    coverage = _coverage(base, group)
    return len(coverage) == group.order - 1 and all(c == 1 for c in coverage.values())


def _residual(base: Sequence[BaseBlock], group: AbelianGroup) -> set[int]:
    """The points of ``residual_differences``."""
    coverage = _coverage(base, group)
    repeated = [d for d, c in coverage.items() if c > 1]
    if repeated:
        raise ValueError(
            f"difference {group.element(min(repeated))!r} is covered more than once; coverage must be simple"
        )
    return set(range(1, group.order)) - coverage.keys()


def residual_differences(base: Sequence[BaseBlock], group: AbelianGroup) -> set:
    """Nonzero group elements not covered by the starters' differences.

    Requires simple coverage (no element hit twice).
    """
    return {group.element(d) for d in _residual(base, group)}


def complete_base_blocks(base: Sequence[BaseBlock], group: AbelianGroup) -> list[BaseBlock]:
    """Starter blocks whose differences realise exactly the residual coverage.

    Candidates are blocks {0, d1, d1+d2}; each difference triple is reported
    by its lexicographically least zero-containing representative, so
    translates are never reported as distinct.  Returns [] when the given
    starters already cover everything; raises when no completion exists.
    """
    residual = _residual(base, group)
    if not residual:
        return []
    if len(residual) % 6:
        raise ValueError(f"uncompletable: {len(residual)} residual differences, not a multiple of 6")
    reps: dict[frozenset, tuple[int, int, int]] = {}
    for d1 in residual:
        for d3 in residual:
            if d3 == d1:
                continue
            diff_set = frozenset(
                {d1, group.add(0, d1, -1), d3, group.add(0, d3, -1), group.add(d3, d1, -1), group.add(d1, d3, -1)}
            )
            if len(diff_set) != 6 or not diff_set <= residual:
                continue
            rep = tuple(sorted((0, d1, d3)))
            if diff_set not in reps or rep < reps[diff_set]:
                reps[diff_set] = rep
    candidates = sorted(reps.items(), key=lambda kv: kv[1])

    def search(remaining: frozenset) -> list | None:
        if not remaining:
            return []
        target = min(remaining)
        for diff_set, rep in candidates:
            if target in diff_set and diff_set <= remaining:
                rest = search(remaining - diff_set)
                if rest is not None:
                    return [rep] + rest
        return None

    found = search(frozenset(residual))
    if found is None:
        raise ValueError("uncompletable: residual differences admit no base-block completion")
    return [tuple(group.element(i) for i in rep) for rep in sorted(found)]


def translate_apc(apc: AlmostParallelClass, t: GroupElement, group: AbelianGroup) -> AlmostParallelClass:
    """Shift every block and the missed point by the group element t."""
    t = group.index(t)
    blocks = ((group.add(p, t) for p in blk) for blk in apc.blocks)
    return AlmostParallelClass.from_blocks(blocks, group.add(apc.missed, t))
