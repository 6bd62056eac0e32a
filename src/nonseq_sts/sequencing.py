"""Sequenceability: admissibility checks, exhaustive search, certification.

A sequence of a design's points is admissible when no proper segment can
be partitioned into blocks.  "Segment" is read either as any contiguous
subsequence (the default, strictest reading) or as proper prefixes and
suffixes only; a certificate of almost parallel classes refutes both
readings at once, since its refuting segment always has length n-1.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping, Optional, Sequence

from .designs import AlmostParallelClass, Design, NonseqCertificate, verify_apc
from .exact_cover import BudgetExceededError, SegmentOracle, _first_partition, find_apc, segment_partitionable


class SegmentPolicy(Enum):
    ALL_INTERVALS = "all-intervals"
    PREFIXES_AND_SUFFIXES = "prefixes-and-suffixes"


class CertificationError(RuntimeError):
    """Certification failed; carries the points that admit no almost
    parallel class; from ``certified_psts``, the points whose entry used a
    deleted block (at order 13, those with no class).  More than one means
    the certificate criterion is inapplicable, not that the design is
    sequenceable."""

    def __init__(self, missing: Sequence[int]):
        self.missing = tuple(missing)
        super().__init__(f"no almost parallel class misses point(s) {list(self.missing)}")


def _check_permutation(d: Design, seq: Sequence[int]) -> tuple[int, ...]:
    order = tuple(seq)
    if not set(map(type, order)) <= {int} or sorted(order) != list(range(d.n)):
        raise ValueError(f"sequence must be a permutation of 0..{d.n - 1}")
    return order


def is_admissible(d: Design, seq: Sequence[int], policy: SegmentPolicy | str = SegmentPolicy.ALL_INTERVALS) -> bool:
    """Whether no proper segment of the sequence is partitionable into blocks.

    Segments are scanned cheapest first.  A 3-point segment is one block
    lookup, and about three in five random orders of a certified design
    have a block as a window, so those go first.  Then lengths n-1 down
    to 6: on certified designs the length n-1 suffix or prefix is
    partitionable, so one search refuses.  Each of these is a dancing-links
    search on the design's shared matrix, so no memo grows with the
    design.  The order changes only how soon the answer comes.
    """
    policy = SegmentPolicy(policy)
    order = _check_permutation(d, seq)
    n = d.n
    for length in (3, *range(n - 1, 5, -1)):
        if length % 3 or length >= n:
            continue
        if policy is SegmentPolicy.PREFIXES_AND_SUFFIXES:
            starts = (0, n - length)
        else:
            starts = range(n - length + 1)
        for i in starts:
            if segment_partitionable(d, order[i : i + length]):
                return False
    return True


def _class_candidates(d: Design) -> Sequence[int]:
    """The points an almost parallel class of d can miss.  A class missing
    x covers every other point: so none if 3 does not divide n - 1 or two
    points lie in no block, and only that point if exactly one does."""
    blocked = {p for blk in d.blocks for p in blk}
    unblocked = [p for p in range(d.n) if p not in blocked]
    if (d.n - 1) % 3 or len(unblocked) > 1:
        return ()
    return unblocked or range(d.n)


def find_admissible_sequence(
    d: Design,
    policy: SegmentPolicy | str = SegmentPolicy.ALL_INTERVALS,
    node_budget: int = 10**8,
) -> Optional[tuple[int, ...]]:
    """Exhaustive backtracking search for an admissible sequence.

    A prefix is pruned as soon as some segment ending at its last point is
    partitionable; that segment stays a proper segment in every
    completion.  Three more prunings hold under both policies, because each
    asks only about a proper prefix or a proper suffix:

    - endpoint filter: a point whose complement is partitionable can be
      neither first nor last.  Only the points ``_class_candidates`` allows
      are asked, each a one-off question to dancing links, as in ``find_apc``;
    - complement lookahead: once t >= 2 points are placed and 3 divides
      n - t, the unplaced points are a proper suffix of every completion,
      so the prefix is pruned if they are partitionable;
    - reversal symmetry: both policies are closed under reversal, so only
      sequences whose first point is below their last are searched.

    Together they ask every proper suffix before a sequence is complete,
    so the last point needs no check.  Returns None only after the whole
    tree is exhausted.  Prefix extensions, the endpoint filter's
    dancing-links rows and the segment oracle's memo misses are all
    charged through one ``spend``, which raises BudgetExceededError once
    they pass ``node_budget`` nodes.

    Segment contents are tracked as prefix bitmasks, so each check is one
    subtraction plus a memoized partition decision.  The prefix is its own
    backtracking stack, so no order meets Python's recursion limit.  A
    ``node_budget`` that is not an ``int`` of at least 0 is a ValueError
    before any search.
    """
    if type(node_budget) is not int or node_budget < 0:
        raise ValueError(f"node_budget must be an int >= 0, got {node_budget!r}")
    policy = SegmentPolicy(policy)
    n = d.n
    if n <= 1:
        return tuple(range(n))
    nodes = 0

    def spend(k: int = 1) -> None:
        nonlocal nodes
        nodes += k
        if nodes > node_budget:
            raise BudgetExceededError(
                f"sequence search exceeded its budget of {node_budget} nodes", used=node_budget, budget=node_budget
            )

    full = (1 << n) - 1
    ends = full  # points that may be first or last
    for x in _class_candidates(d):
        chosen, rows = _first_partition(d, set(range(n)) - {x}, node_budget - nodes)
        spend(rows)  # a count past what was left passes the budget
        if chosen is not None:
            ends &= ~(1 << x)
    solve = SegmentOracle(d, on_miss=spend).mask_partitionable
    all_intervals = policy is SegmentPolicy.ALL_INTERVALS
    prefix: list[int] = []
    pmask: list[int] = [0]  # pmask[j] = bitmask of prefix[:j]
    lasts = 0  # once the first point is placed: the endpoints above it
    start = 0  # the first candidate left to try for the next place
    while True:
        t1 = len(prefix) + 1
        base = pmask[-1]
        for p in range(start, n):
            bit = 1 << p
            if base & bit:
                continue
            m1 = base | bit
            if t1 == 1:
                lasts = ends & -(bit << 1)  # -(bit << 1) masks the points above p
                if not ends & bit or not lasts:
                    continue
            elif t1 < n and not lasts & ~m1:
                continue  # the last place needs a free endpoint above the first
            spend()
            if t1 == n:  # p is in lasts, and every proper suffix has been asked
                prefix.append(p)
                return tuple(prefix)
            # segments ending at the new point, shortest first
            ok = True
            if all_intervals:
                for i in range(t1 - 3, -1, -3):
                    if solve(m1 - pmask[i]):
                        ok = False
                        break
            elif t1 % 3 == 0:
                ok = not solve(m1)  # proper prefix
            if ok and t1 > 1 and (n - t1) % 3 == 0:
                ok = not solve(full - m1)  # proper suffix of every completion
            if ok:
                prefix.append(p)
                pmask.append(m1)
                start = 0
                break
        else:  # no candidate left here: back up one place
            if not prefix:
                return None
            start = prefix.pop() + 1
            pmask.pop()


def certify_nonsequenceable(
    d: Design, known: Optional[Mapping[int, AlmostParallelClass]] = None
) -> NonseqCertificate:
    """Search an almost parallel class missing each point; succeed when at
    most one point lacks one.  Raises CertificationError otherwise, naming
    every point that lacks one.

    Only the points that ``_class_candidates`` allows are searched.

    ``known`` maps points to candidate classes, such as a document's
    certificate entries.  A candidate is kept only if it misses its
    key point and ``verify_apc`` accepts it for ``d``; every other point is
    searched.  A valid class proves that its point has one, so the set of
    certified points, and with it the verdict, is the same with or without
    ``known``: only which valid class an entry holds may differ.
    """
    known = known or {}
    entries: dict[int, AlmostParallelClass] = {}
    for point in _class_candidates(d):
        apc = known.get(point)
        if apc is None or apc.missed != point or not verify_apc(d, apc):
            apc = find_apc(d, point)
        if apc is not None:
            entries[point] = apc
    if len(entries) < d.n - 1:
        raise CertificationError(p for p in range(d.n) if p not in entries)
    return NonseqCertificate(entries)


@dataclass(frozen=True)
class SequenceViolation:
    """A proper segment of a sequence together with the almost parallel
    class that partitions it."""

    kind: str  # "suffix" or "prefix"
    start: int  # first position of the segment, 0-based inclusive
    end: int  # last position, inclusive
    segment: tuple[int, ...]
    apc: AlmostParallelClass


def explain_nonsequenceable(d: Design, cert: NonseqCertificate, seq: Sequence[int]) -> SequenceViolation:
    """Produce the concrete refutation for one sequence: the class missing
    its first point partitions the suffix of length n-1, or the class
    missing its last point partitions the prefix of length n-1.  An
    endpoint's entry is used only when it misses that point and
    ``verify_apc`` passes it; a ``ValueError`` says that neither does."""
    order = _check_permutation(d, seq)
    n = d.n
    for kind, point, start, segment in (("suffix", order[0], 1, order[1:]), ("prefix", order[-1], 0, order[: n - 1])):
        apc = cert.entries.get(point)
        if apc is not None and apc.missed == point and verify_apc(d, apc):
            return SequenceViolation(kind, start, start + n - 2, segment, apc)
    raise ValueError("the certificate has no valid entry for either endpoint; it cannot have n-1 verified entries")


__all__ = [
    "SegmentPolicy",
    "CertificationError",
    "SequenceViolation",
    "is_admissible",
    "find_admissible_sequence",
    "certify_nonsequenceable",
    "explain_nonsequenceable",
]
