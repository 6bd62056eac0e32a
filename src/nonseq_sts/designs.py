"""Core types and validators for partial Steiner triple systems and 3-GDDs.

Points are dense integers 0..n-1 throughout; external labels live only in
the I/O layer.  The types here are plain immutable containers.  A
``Design`` is well-formed when it is made: its constructor refuses an
order that is not an ``int`` >= 0 and a block that is not a strictly
increasing ``int`` triple inside 0..n-1.  A well-formed design may still
be broken (repeated blocks or pairs, uncovered pairs, a wrong size or
order), and the validators report it as it is.  The two ``from_blocks``
classmethods are the only canonicalisers: builders pass them raw triples,
and they sort each block (refusing one that is not 3 distinct points)
and, for a design, the block list; a builder whose triples are
increasing by construction sorts only the block list.
``AlmostParallelClass`` checks nothing, so that ``verify_apc`` meets
broken classes as they are.
Validators re-derive every structural property from scratch (a verdict
never depends on how an object was built or ordered) and return reports
instead of raising, so batch pipelines can aggregate outcomes.  The
verifiers ``verify_apc`` and ``verify_certificate`` return the same
``ValidationReport``: truthy when the check passes, and otherwise naming
what failed (for a certificate, the entry count or the lowest failing
entry and why it fails).

Pair incidence is decided by a pass over lazy ``map`` columns and a class
check by set algebra, in C with no Python step per block.  That pass can
only return a pass; otherwise the per-block loop runs from the start and
names the first failure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from itertools import chain, repeat
from operator import add, itemgetter, lt, mul, ne
from typing import Iterable, Mapping, Optional

Block = tuple[int, int, int]

# Column readers over a block tuple, and the three pairs of a sorted triple.
_A, _B, _C = itemgetter(0), itemgetter(1), itemgetter(2)
_PAIRS = ((_A, _B), (_A, _C), (_B, _C))


def _sorted_int_triples(blocks: tuple) -> bool:
    """Whether every member of ``blocks`` is a strictly increasing ``int``
    triple (``bool`` excluded).  Decided column by column in C iterators,
    without Python bytecode per block."""
    return (
        set(map(type, blocks)) <= {tuple}
        and set(map(len, blocks)) <= {3}
        and set(map(type, chain.from_iterable(blocks))) <= {int}
        and all(map(lt, map(_A, blocks), map(_B, blocks)))
        and all(map(lt, map(_B, blocks), map(_C, blocks)))
    )


def canonical_block(members: Iterable[int]) -> Block:
    """Sort a triple of distinct points into canonical ascending order."""
    blk = tuple(sorted(members))
    if len(blk) != 3 or blk[0] == blk[1] or blk[1] == blk[2]:
        raise ValueError(f"a block needs 3 distinct points, got {blk!r}")
    return blk


@dataclass(frozen=True)
class ValidationReport:
    """Outcome of a structural check: OK, or the first violation found."""

    ok: bool
    category: str = ""
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok

    @classmethod
    def passed(cls) -> "ValidationReport":
        return cls(True)

    @classmethod
    def failed(cls, category: str, detail: str) -> "ValidationReport":
        return cls(False, category, detail)

    def __str__(self) -> str:
        return "ok" if self.ok else f"{self.category}: {self.detail}"


@dataclass(frozen=True)
class Design:
    """A point set 0..n-1 with a tuple of blocks, each a strictly
    increasing ``int`` triple inside 0..n-1 (``bool`` is not an ``int``
    here), in any order and repeats allowed.  The constructor refuses
    anything else with a ValueError naming the first bad block.

    Whether the blocks form a partial or a full Steiner triple system is a
    matter of validation, not of type.
    """

    n: int
    blocks: tuple[Block, ...]

    def __post_init__(self) -> None:
        """The one check of the block rule: the column pass of
        ``_sorted_int_triples``, then the first column's minimum and the
        last column's maximum.  A failure names the first bad block."""
        n, blocks = self.n, self.blocks
        if type(n) is not int or n < 0:
            raise ValueError(f"order {n!r} is not an int >= 0")
        if type(blocks) is not tuple:
            raise ValueError(f"blocks must be a tuple, got {type(blocks).__name__}")
        first, last = map(_A, blocks), map(_C, blocks)
        if _sorted_int_triples(blocks) and min(first, default=0) >= 0 and max(last, default=-1) < n:
            return
        bad = next(blk for blk in blocks if not (_sorted_int_triples((blk,)) and 0 <= blk[0] and blk[2] < n))
        raise ValueError(f"block {bad!r} is not 3 increasing ints in 0..{n - 1}")

    @classmethod
    def from_blocks(cls, n: int, blocks: Iterable[Iterable[int]]) -> "Design":
        """Canonicalise member order and block order, for builders that pass raw triples."""
        return cls(n, tuple(sorted(canonical_block(b) for b in blocks)))

    def __hash__(self) -> int:
        return self._hash

    @cached_property
    def _hash(self) -> int:
        """The dataclass hash of the fields, computed once: the per-design
        tables of ``exact_cover`` look a design up on every question, and
        hashing would otherwise visit every block each time."""
        return hash((self.n, self.blocks))

    @cached_property
    def block_set(self) -> frozenset[Block]:
        """The blocks as a set, sharing the block tuples."""
        return frozenset(self.blocks)

    @property
    def size(self) -> int:
        """Number of blocks (the size of a partial system)."""
        return len(self.blocks)


@dataclass(frozen=True)
class GroupType:
    """Multiset of group sizes, e.g. 12^4 18^1, stored as (size, count) parts."""

    parts: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, *parts: tuple[int, int]) -> "GroupType":
        merged: dict[int, int] = {}
        for size, count in parts:
            if size < 1 or count < 1:
                raise ValueError(f"group sizes and multiplicities must be >= 1, got {size}^{count}")
            merged[size] = merged.get(size, 0) + count
        return cls(tuple(sorted(merged.items())))

    @property
    def total_points(self) -> int:
        return sum(size * count for size, count in self.parts)

    @property
    def group_count(self) -> int:
        return sum(count for _, count in self.parts)

    def group_sizes(self) -> list[int]:
        """All group sizes in canonical order (ascending size)."""
        return [size for size, count in self.parts for _ in range(count)]

    def cross_pairs(self) -> int:
        """Number of point pairs lying in two different groups."""
        n = self.total_points
        within = sum(count * size * (size - 1) // 2 for size, count in self.parts)
        return n * (n - 1) // 2 - within

    def key(self) -> str:
        """Canonical string such as ``3:12^5`` or ``3:12^4+18^1``."""
        return "3:" + "+".join(f"{size}^{count}" for size, count in self.parts)


@dataclass(frozen=True)
class Gdd:
    """A 3-GDD: a partition of the points into groups plus a transverse design.

    ``seed`` is the hill-climb seed that produced it, or None for a
    seed-free construction; it is provenance and takes no part in equality.
    """

    group_type: GroupType
    groups: tuple[tuple[int, ...], ...]
    design: Design
    seed: Optional[int] = field(default=None, compare=False)


@dataclass(frozen=True)
class AlmostParallelClass:
    """Pairwise disjoint blocks covering every point except ``missed``."""

    blocks: frozenset[Block]
    missed: int

    @classmethod
    def from_blocks(cls, blocks: Iterable[Iterable[int]], missed: int) -> "AlmostParallelClass":
        """Canonicalise member order, as ``Design.from_blocks`` does; builders pass raw triples."""
        return cls(frozenset(canonical_block(b) for b in blocks), missed)


@dataclass(frozen=True)
class NonseqCertificate:
    """Almost parallel classes missing n-1 or more distinct points.

    A verified certificate witnesses that the design is nonsequenceable:
    any ordering of the points has either its first or its last point
    missed by some entry, and that entry's blocks partition the remaining
    n-1 points, a proper segment.
    """

    entries: Mapping[int, AlmostParallelClass]

    def __len__(self) -> int:
        return len(self.entries)


def _pair_incidence(d: Design, gid: list[int] | None = None) -> tuple[ValidationReport, set[int]]:
    """The one structural pass over a design's blocks, shared by every validator.

    Checks that no block hits a group twice when ``gid`` maps points to
    group ids, and that no pair lies in two blocks.  Returns the first
    violation found, together with the covered pairs as flat indices
    ``a*n + b`` (a < b).  A set rather than an n*n array keeps the memory
    linear in the number of blocks, whatever order ``n`` claims.

    ``_column_pass`` decides a design that passes; the loop below runs
    only when it does not, to name the first violation.
    """
    n, blocks = d.n, d.blocks
    passed = _column_pass(n, blocks, gid)
    if passed is not None:
        return ValidationReport.passed(), passed
    covered: set[int] = set()
    for blk in blocks:
        a, b, c = blk
        if gid is not None and (gid[a] == gid[b] or gid[b] == gid[c] or gid[a] == gid[c]):
            return ValidationReport.failed("within-group-pair", f"block {blk} hits a group twice"), covered
        for x, y in ((a, b), (a, c), (b, c)):
            if x * n + y in covered:
                earlier = next(e for e in blocks if x in e and y in e)
                detail = f"pair {(x, y)} covered by blocks {earlier} and {blk}"
                return ValidationReport.failed("repeated-pair", detail), covered
            covered.add(x * n + y)
    return ValidationReport.passed(), covered


def _column_pass(n: int, blocks: tuple[Block, ...], gid: list[int] | None) -> Optional[set[int]]:
    """The covered pairs when ``blocks`` passes every check of
    ``_pair_incidence``; otherwise None.

    Works on lazy columns (one ``map`` per block position, never a copy of
    the block list): no block hits a group twice when each pair of columns
    maps to different group ids, and no pair is repeated when the 3 pairs
    of every block give 3 * len(blocks) distinct indices ``a*n + b``."""
    if gid is not None:
        group = gid.__getitem__
        if not all(all(map(ne, map(group, map(x, blocks)), map(group, map(y, blocks)))) for x, y in _PAIRS):
            return None
    covered: set[int] = set()
    for x, y in _PAIRS:
        covered.update(map(add, map(mul, map(x, blocks), repeat(n)), map(y, blocks)))
    return covered if len(covered) == 3 * len(blocks) else None


def validate_psts(d: Design) -> ValidationReport:
    """Check the partial-system condition: every pair in at most one block.
    Duplicate blocks surface as repeated pairs."""
    return _pair_incidence(d)[0]


def validate_sts(d: Design) -> ValidationReport:
    """Check the full Steiner condition: every pair in exactly one block."""
    rep, covered = _pair_incidence(d)
    if not rep:
        return rep
    n = d.n
    if n % 6 not in (1, 3):
        return ValidationReport.failed("order", f"no Steiner triple system of order {n} exists (n must be 1 or 3 mod 6)")
    if len(covered) < n * (n - 1) // 2:
        pair = next((a, b) for a in range(n) for b in range(a + 1, n) if a * n + b not in covered)
        return ValidationReport.failed("uncovered-pair", f"pair {pair} is in no block")
    expected = n * (n - 1) // 6
    if len(d.blocks) != expected:
        return ValidationReport.failed("size", f"{len(d.blocks)} blocks, expected {expected}")
    return ValidationReport.passed()


def validate_gdd(g: Gdd) -> ValidationReport:
    """Check that the blocks decompose exactly the cross-group pairs."""
    n = g.group_type.total_points
    if g.design.n != n:
        return ValidationReport.failed("order", f"design has {g.design.n} points, group type needs {n}")
    flat = sorted(p for grp in g.groups for p in grp)
    if flat != list(range(n)):
        return ValidationReport.failed("groups", "groups are not a partition of the point set")
    if sorted(len(grp) for grp in g.groups) != sorted(g.group_type.group_sizes()):
        return ValidationReport.failed("group-type", "group sizes do not match the declared type")
    gid = [0] * n
    for i, grp in enumerate(g.groups):
        for p in grp:
            gid[p] = i
    rep, covered = _pair_incidence(g.design, gid)
    if not rep:
        return rep
    cross = g.group_type.cross_pairs()
    if len(covered) < cross:
        pair = next(
            (a, b) for a in range(n) for b in range(a + 1, n) if gid[a] != gid[b] and a * n + b not in covered
        )
        return ValidationReport.failed("uncovered-pair", f"cross pair {pair} is in no block")
    if 3 * len(g.design.blocks) != cross:
        return ValidationReport.failed("size", f"{len(g.design.blocks)} blocks, expected {cross // 3}")
    return ValidationReport.passed()


def verify_apc(d: Design, apc: AlmostParallelClass) -> ValidationReport:
    """Check that ``apc.missed`` is an ``int`` point of ``d``, and that the
    blocks all belong to ``d``, are pairwise disjoint, and cover exactly
    the points other than ``apc.missed``.

    Set algebra decides a class of canonical blocks: a subset of
    ``d.block_set`` whose members' union has as many points as the blocks
    have members, n-1 of them, none of them ``missed``.  It can only pass
    a class; the loop runs otherwise, to decide a raw class (unsorted
    tuples, say) and to name the first failing block."""
    if type(apc.missed) is not int or not 0 <= apc.missed < d.n:
        return ValidationReport.failed("apc", f"missed point {apc.missed!r} is outside 0..{d.n - 1}")
    block_set = d.block_set
    blocks = apc.blocks
    if type(blocks) is frozenset and blocks <= block_set:
        points = set(chain.from_iterable(blocks))
        if len(points) == sum(map(len, blocks)) == d.n - 1 and apc.missed not in points:
            return ValidationReport.passed()
    covered: set[int] = set()
    for blk in blocks:
        key = tuple(sorted(blk))
        if key not in block_set:
            return ValidationReport.failed("apc", f"{key} is not a block of the design")
        if covered.intersection(key):
            return ValidationReport.failed("apc", f"block {key} meets another block of the class")
        covered.update(key)
    if len(covered) != d.n - 1 or apc.missed in covered:
        return ValidationReport.failed("apc", f"the blocks do not cover exactly the points other than {apc.missed}")
    return ValidationReport.passed()


def verify_certificate(d: Design, cert: NonseqCertificate) -> ValidationReport:
    """Check that the certificate has >= n-1 entries, each a valid almost
    parallel class of ``d`` missing exactly its key point.  A failure's
    detail names the entry count, or the lowest failing entry and why it
    fails: ``entry k: class misses m`` or ``entry k: <verify_apc detail>``."""
    if len(cert.entries) < d.n - 1:
        return ValidationReport.failed("certificate", f"{len(cert.entries)} entries, need at least {d.n - 1}")
    for missed, apc in sorted(cert.entries.items()):
        if apc.missed != missed:
            return ValidationReport.failed("certificate", f"entry {missed}: class misses {apc.missed}")
        rep = verify_apc(d, apc)
        if not rep:
            return ValidationReport.failed("certificate", f"entry {missed}: {rep.detail}")
    return ValidationReport.passed()
