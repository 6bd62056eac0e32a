"""Independent checks of what the benchmark's operations return.

Nothing here imports ``nonseq_sts``: every check re-derives the property
from plain tuples of ints, with its own pair counts and its own partition
search, so a fault in the package's validators or in its SegmentOracle can
not vouch for itself.  Each check raises CheckError on the first problem.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Sequence


class CheckError(AssertionError):
    """An output of the package is wrong."""


def check_blocks(n: int, blocks: Iterable[Sequence[int]], *, full: bool, size: int | None = None) -> None:
    """Pair incidence from a flat n*n count array: every pair in at most one
    block, in exactly one when ``full``; ``size`` blocks when given."""
    counts = bytearray(n * n)
    count = 0
    for blk in blocks:
        count += 1
        if len(blk) != 3:
            raise CheckError(f"block {blk!r} does not have 3 points")
        a, b, c = sorted(blk)
        if not 0 <= a < b < c < n:
            raise CheckError(f"block {blk!r} is not 3 distinct points of 0..{n - 1}")
        for i in (a * n + b, a * n + c, b * n + c):
            if counts[i]:
                raise CheckError(f"pair ({i // n}, {i % n}) lies in two blocks")
            counts[i] = 1
    if size is not None and count != size:
        raise CheckError(f"{count} blocks, expected {size}")
    if full and sum(counts) != n * (n - 1) // 2:
        raise CheckError(f"{n * (n - 1) // 2 - sum(counts)} pairs are in no block")


def check_certificate(n: int, blocks: Iterable[Sequence[int]], entries: Mapping[int, tuple[int, Iterable]]) -> None:
    """``entries`` maps a point to (missed, class blocks).  At least n-1
    entries; each class is made of design blocks, pairwise disjoint, and
    covers every point except the one it is filed under."""
    block_set = {tuple(sorted(b)) for b in blocks}
    if len(entries) < n - 1:
        raise CheckError(f"certificate has {len(entries)} entries, needs at least {n - 1}")
    for key, (missed, cls) in entries.items():
        if missed != key or not 0 <= key < n:
            raise CheckError(f"certificate entry {key} claims to miss {missed}")
        seen = bytearray(n)
        for blk in cls:
            blk = tuple(sorted(blk))
            if blk not in block_set:
                raise CheckError(f"entry {key}: block {blk} is not in the design")
            for p in blk:
                if seen[p]:
                    raise CheckError(f"entry {key}: point {p} is covered twice")
                seen[p] = 1
        if seen[key] or sum(seen) != n - 1:
            raise CheckError(f"entry {key} does not cover exactly the points other than {key}")


def _blocks_by_least_point(blocks: Iterable[Sequence[int]]) -> dict[int, list[frozenset]]:
    by_least: dict[int, list[frozenset]] = {}
    for blk in blocks:
        by_least.setdefault(min(blk), []).append(frozenset(blk))
    return by_least


def _partitionable(points: frozenset, by_least: dict[int, list[frozenset]]) -> bool:
    # The block covering the least remaining point has it as its own least point.
    if not points:
        return True
    for blk in by_least.get(min(points), ()):
        if blk <= points and _partitionable(points - blk, by_least):
            return True
    return False


def check_admissible(n: int, blocks: Iterable[Sequence[int]], seq: Sequence[int]) -> None:
    """``seq`` is a permutation of 0..n-1 and no proper contiguous segment
    of it is partitioned by blocks, by enumerating every interval."""
    if sorted(seq) != list(range(n)):
        raise CheckError(f"returned sequence is not a permutation of 0..{n - 1}")
    by_least = _blocks_by_least_point(blocks)
    for start in range(n):
        for stop in range(start + 3, n + 1, 3):
            if stop - start == n:
                continue
            if _partitionable(frozenset(seq[start:stop]), by_least):
                raise CheckError(f"segment {tuple(seq[start:stop])} of the returned sequence is partitionable")


def check_refutation(
    n: int,
    blocks: Iterable[Sequence[int]],
    seq: Sequence[int],
    start: int,
    end: int,
    segment: Sequence[int],
    cls_blocks: Iterable[Sequence[int]],
    cls_missed: int,
) -> None:
    """The segment is the length n-1 prefix or suffix of ``seq`` and the
    class, made of design blocks, partitions it."""
    if (start, end) not in ((1, n - 1), (0, n - 2)):
        raise CheckError(f"segment [{start}, {end}] is not a proper prefix or suffix of length {n - 1}")
    if tuple(segment) != tuple(seq[start : end + 1]):
        raise CheckError("explained segment is not the sequence's own segment")
    left_out = seq[0] if start == 1 else seq[-1]
    if cls_missed != left_out:
        raise CheckError(f"class misses {cls_missed}, the segment leaves out {left_out}")
    block_set = {tuple(sorted(b)) for b in blocks}
    covered: set[int] = set()
    for blk in cls_blocks:
        blk = tuple(sorted(blk))
        if blk not in block_set:
            raise CheckError(f"class block {blk} is not in the design")
        if covered.intersection(blk):
            raise CheckError(f"class block {blk} overlaps another")
        covered.update(blk)
    if covered != set(segment):
        raise CheckError("class does not partition the explained segment")
