"""Exact-cover solver (dancing links) and the block searches built on it.

The solver is the classic Algorithm X over a toroidal doubly-linked
matrix, written with an explicit stack instead of recursion and with an
optional row cap so that callers embedding it inside their own
backtracking can never hang.  A search stopped at its cap returns a row
count past it, an outcome distinct from "no solution exists".

Determinism: the column chosen is always the one with the fewest
remaining candidates, ties broken by lowest element index.  ``solve`` and
``exists_cover`` try rows in candidate-insertion order, so for a fixed
instance their solution list is reproducible.  One-off partition
questions restart instead, since that search is heavy-tailed (a few
points cost hundreds of times the median): attempt 0 is the plain search
capped at 256 rows, and attempt j >= 1, capped at 256 * 2**j rows, starts
each level's row list at an offset drawn from ``random.Random(j)``.  Every
attempt is seeded afresh, so a question's answer and row count depend on
the question alone, never on the questions asked before it.

Two engines, one job each, on the same rows: ``_design_matrix`` links a
design's distinct blocks once per live design, and keeps them as
``_Matrix.rows`` for ``SegmentOracle``.
Every one-off partition question (an almost parallel class for
``find_apc``, a segment of 6 or more points for ``segment_partitionable``
and through it ``is_admissible``, a point's complement for the sequence
search's endpoint filter) runs on that dancing-links matrix: columns
0..n-1, one row per block in sorted order, linked on the first question
and freed with the design.  A question covers every column
outside its point set, which removes exactly the blocks that leave it,
runs its attempts, and uncovers those columns in reverse; the search
unwinds its own levels on every exit, so the matrix is always left as it
was found.
Each question holds the matrix's lock, so concurrent questions on one
design wait for each other.  Memory stays bounded by the design.
``SegmentOracle`` memoises bitmask decisions and serves only the sequence
search, which asks about the same short segments millions of times.
"""

from __future__ import annotations

import random
import threading
import weakref
from dataclasses import dataclass
from typing import Callable, Hashable, Iterable, Iterator, Optional

from .designs import AlmostParallelClass, Design


class BudgetExceededError(RuntimeError):
    """A search hit its budget before finishing.

    ``used`` is the work spent when it gave up and ``budget`` the limit it
    was given, in the search's own unit: nodes for the exact-cover and
    sequence searches, moves for the GDD hill climb.  Either is None when
    the raiser does not say.
    """

    def __init__(self, message: str, *, used: Optional[int] = None, budget: Optional[int] = None):
        super().__init__(message)
        self.used = used
        self.budget = budget


@dataclass(frozen=True)
class ExactCoverInstance:
    """A universe 0..universe_size-1 and candidate subsets to cover it with."""

    universe_size: int
    candidates: tuple[tuple[Hashable, tuple[int, ...]], ...]

    @classmethod
    def build(cls, universe_size: int, candidates: Iterable[tuple[Hashable, Iterable[int]]]) -> "ExactCoverInstance":
        if universe_size < 0:
            raise ValueError("universe_size must be nonnegative")
        normalised = []
        ids = set()
        for cand_id, elems in candidates:
            subset = tuple(sorted(elems))
            if not subset:
                raise ValueError(f"candidate {cand_id!r} is empty")
            if len(set(subset)) != len(subset):
                raise ValueError(f"candidate {cand_id!r} repeats an element")
            if subset[0] < 0 or subset[-1] >= universe_size:
                raise ValueError(f"candidate {cand_id!r} leaves the universe 0..{universe_size - 1}")
            if cand_id in ids:
                raise ValueError(f"duplicate candidate id {cand_id!r}")
            ids.add(cand_id)
            normalised.append((cand_id, subset))
        return cls(universe_size, tuple(normalised))


@dataclass(frozen=True)
class ExactCoverSolution:
    """Candidate ids whose subsets partition the universe."""

    chosen: frozenset


class _Node:
    __slots__ = ("left", "right", "up", "down", "column", "row_id")

    def __init__(self):
        self.left = self.right = self.up = self.down = self
        self.column: "_Column" = None  # type: ignore[assignment]
        self.row_id: Hashable = None


class _Column(_Node):
    __slots__ = ("size", "index")

    def __init__(self, index: int):
        super().__init__()
        self.size = 0
        self.index = index
        self.column = self


class _Matrix:
    """Sparse 0/1 matrix as circular doubly-linked lists: columns
    0..universe_size-1, then one row per candidate, in the given order.
    ``rows`` keeps the candidates as given."""

    def __init__(self, universe_size: int, rows: tuple[tuple[Hashable, tuple[int, ...]], ...]):
        self.rows = rows
        self.header = _Column(-1)
        self.columns = []
        self.lock = threading.Lock()  # held by each question on a shared matrix
        prev: _Node = self.header
        for i in range(universe_size):
            col = _Column(i)
            col.left, col.right = prev, self.header
            prev.right = col
            self.header.left = col
            self.columns.append(col)
            prev = col
        for cand_id, subset in rows:
            self._add_row(cand_id, subset)

    def _add_row(self, row_id: Hashable, subset: Iterable[int]) -> None:
        first = None
        for e in subset:
            col = self.columns[e]
            node = _Node()
            node.row_id = row_id
            node.column = col
            node.up, node.down = col.up, col
            col.up.down = node
            col.up = node
            col.size += 1
            if first is None:
                first = node
            else:
                node.left, node.right = first.left, first
                first.left.right = node
                first.left = node

    def choose_column(self) -> _Column:
        best = None
        col = self.header.right
        while col is not self.header:
            if best is None or col.size < best.size:
                best = col
                if col.size == 0:
                    break
            col = col.right
        return best  # type: ignore[return-value]

    def cover(self, col: _Column) -> None:
        col.right.left = col.left
        col.left.right = col.right
        row = col.down
        while row is not col:
            node = row.right
            while node is not row:
                node.down.up = node.up
                node.up.down = node.down
                node.column.size -= 1
                node = node.right
            row = row.down

    def uncover(self, col: _Column) -> None:
        row = col.up
        while row is not col:
            node = row.left
            while node is not row:
                node.column.size += 1
                node.down.up = node
                node.up.down = node
                node = node.left
            row = row.up
        col.right.left = col
        col.left.right = col

    def search(
        self, limit: int, cap: Optional[int], rng: Optional[random.Random] = None
    ) -> tuple[list[frozenset], int]:
        """Algorithm X over the uncovered columns: up to ``limit`` covers, as
        sets of row ids in search order, and the number of rows applied.

        Each level walks its column's circular row list once around, from
        the top, or with ``rng`` from the row ``rng.randrange(column.size)``
        places below it.  The row that would pass ``cap`` is counted but not
        applied, and the search returns: a count above ``cap`` means it
        stopped undecided.  On every exit the levels still open are
        unwound, so the matrix is left as it was found.
        """
        header = self.header
        solutions: list[frozenset] = []
        columns: list[_Column] = []  # the column covered at each open level
        starts: list[_Node] = []  # the first row tried at each open level
        rows: list[_Node] = []  # the row applied at each level that has one
        nodes = 0
        try:
            while True:
                if header.right is header:
                    solutions.append(frozenset(row.row_id for row in rows))
                    if len(solutions) >= limit:
                        return solutions, nodes
                else:
                    column = self.choose_column()
                    self.cover(column)
                    columns.append(column)
                    start = column.down
                    if rng is not None and column.size > 1:  # one row or none: no draw
                        for _ in range(rng.randrange(column.size)):
                            start = start.down
                    starts.append(start)
                while True:  # the deepest open level moves to its next row
                    if not columns:
                        return solutions, nodes
                    column = columns[-1]
                    if len(rows) < len(columns):
                        row = starts[-1]  # the column itself when it is empty
                    else:
                        row = rows.pop()
                        self._withdraw(row)
                        row = row.down
                        if row is column:
                            row = row.down
                        if row is starts[-1]:
                            row = column  # once around
                    if row is not column:
                        break
                    self.uncover(column)
                    columns.pop()
                    starts.pop()
                nodes += 1
                if cap is not None and nodes > cap:
                    return solutions, nodes
                rows.append(row)
                node = row.right
                while node is not row:
                    self.cover(node.column)
                    node = node.right
        finally:
            while columns:
                if len(rows) == len(columns):
                    self._withdraw(rows.pop())
                self.uncover(columns.pop())

    def _withdraw(self, row: _Node) -> None:
        """Undo applying ``row``: uncover its other columns in reverse."""
        node = row.left
        while node is not row:
            self.uncover(node.column)
            node = node.left


def solve(inst: ExactCoverInstance, limit: int, *, node_budget: Optional[int] = None) -> list[ExactCoverSolution]:
    """Find up to ``limit`` exact covers, in deterministic search order.

    Returns an empty list iff the instance has no exact cover.  Raises
    BudgetExceededError if more than ``node_budget`` rows are applied
    before the search finishes.
    """
    if limit < 1:
        raise ValueError("limit must be at least 1")
    found, rows = _Matrix(inst.universe_size, inst.candidates).search(limit, node_budget)
    if node_budget is not None and rows > node_budget:
        raise BudgetExceededError(
            f"exact-cover search exceeded its budget of {node_budget} nodes", used=node_budget, budget=node_budget
        )
    return [ExactCoverSolution(chosen) for chosen in found]


def exists_cover(inst: ExactCoverInstance, *, node_budget: Optional[int] = None) -> bool:
    """Whether any exact cover exists (stops at the first one)."""
    return bool(solve(inst, 1, node_budget=node_budget))


# Per live design, held weakly: its linked matrix.
_design_matrices: "weakref.WeakKeyDictionary[Design, _Matrix]" = weakref.WeakKeyDictionary()


def _design_matrix(d: Design) -> _Matrix:
    """The design's matrix, linked once per live design: columns 0..n-1,
    and as ``rows``, both engines' rows, d's distinct blocks, sorted, each
    its own id."""
    matrix = _design_matrices.get(d)
    if matrix is None:
        rows = tuple((blk, blk) for blk in sorted(d.block_set))
        matrix = _design_matrices.setdefault(d, _Matrix(d.n, rows))
    return matrix


# Rows attempt 0 of a one-off question may apply; attempt j may apply
# _FIRST_CAP << j.
_FIRST_CAP = 256


def _first_partition(
    d: Design, points: set[int], node_budget: Optional[int] = None
) -> tuple[Optional[frozenset], int]:
    """The first set of d's blocks, in restart order, that partitions
    ``points``, or None; and the rows the attempts applied in all.  Once
    the attempts together would pass ``node_budget`` rows, the answer is
    ``(None, node_budget + 1)``: a count past the budget, undecided.

    The question runs on the design's shared matrix with every column
    outside ``points`` covered.  That removes exactly the blocks that leave
    ``points`` and keeps the order of the rest, so each attempt is the one
    a fresh instance of ``points`` and the blocks inside it would run.
    Attempt 0 is the plain search, capped at ``_FIRST_CAP`` rows; attempt
    j >= 1 rotates each level's rows by ``random.Random(j)``, capped at
    ``_FIRST_CAP << j`` rows.  An attempt that exhausts its tree under its
    cap decides None, so no attempt is uncapped and None within the budget
    means that no partition exists.  Each attempt seeds its own generator,
    so the answer and the row count depend on the question alone."""
    n = d.n
    if any(not 0 <= p < n for p in points):
        return None, 0  # no block covers the stray point
    matrix = _design_matrix(d)
    outside = [col for col in matrix.columns if col.index not in points]
    with matrix.lock:
        for col in outside:
            matrix.cover(col)
        try:
            attempt = used = 0
            while True:
                cap = _FIRST_CAP << attempt
                left = cap if node_budget is None else min(cap, node_budget - used)
                found, rows = matrix.search(1, left, random.Random(attempt) if attempt else None)
                if rows <= left or left < cap:  # decided, or the caller's budget ran out
                    return (found[0] if found else None), used + rows
                used += cap
                attempt += 1
        finally:
            for col in reversed(outside):
                matrix.uncover(col)


def find_apc(d: Design, missed: int) -> Optional[AlmostParallelClass]:
    """Search d's blocks for an almost parallel class avoiding ``missed``:
    the first one the restarted search of ``_first_partition`` meets.

    Returns None iff no such class exists.
    """
    if type(missed) is not int or not 0 <= missed < d.n:
        raise ValueError(f"missed point {missed!r} outside 0..{d.n - 1}")
    chosen, _ = _first_partition(d, set(range(d.n)) - {missed})
    return None if chosen is None else AlmostParallelClass(chosen, missed)


def segment_partitionable(d: Design, segment: Iterable[int]) -> bool:
    """Whether some set of d's blocks, each inside ``segment``, partitions it.

    Always False when the segment size is not a multiple of 3.  Three
    points partition exactly when they are a block: one ``d.block_set``
    lookup, no matrix, and False with a stray point, which is in no block.
    Larger segments run the restarted search of ``_first_partition``, whose
    None means no partition exists.  A point that is not an ``int`` (a
    ``bool`` or a float, say) is refused with a ValueError.
    """
    seg = set(segment)
    if not set(map(type, seg)) <= {int}:
        bad = next(p for p in seg if type(p) is not int)
        raise ValueError(f"segment point {bad!r} is not an int")
    if len(seg) % 3:
        return False
    if len(seg) == 3:
        return tuple(sorted(seg)) in d.block_set
    return _first_partition(d, seg)[0] is not None


class SegmentOracle:
    """Memoized segment-partition decisions for one fixed design, for the
    sequence search.

    Point sets recur constantly while a sequence search backtracks, so
    decisions are cached by the set itself (as a bitmask), which never
    needs invalidating.  Each memo miss, a decision computed rather than
    looked up, first calls ``on_miss``; the sequence search passes its
    ``spend``, which counts the miss as a node against its budget and so
    bounds the memo too.  One-off questions go to ``segment_partitionable``
    instead.  Both take their rows from ``_design_matrix(d).rows``.
    """

    def __init__(self, d: Design, on_miss: Callable[[], None]):
        by_point: list[list[int]] = [[] for _ in range(d.n)]
        for _, (a, b, c) in _design_matrix(d).rows:
            by_point[a].append((1 << a) | (1 << b) | (1 << c))  # filed under the lowest point
        self._blocks_at = by_point
        self._memo: dict[int, bool] = {0: True}
        self._on_miss = on_miss

    def mask_partitionable(self, mask: int) -> bool:
        """Partition decision for a point set given as a bitmask whose
        population count is a multiple of 3: some block through its lowest
        point must leave a partitionable rest, so with none it is False and
        no miss.  Open sets wait on a stack, not in nested calls, and meet
        their memo misses, each an ``on_miss`` call, in the order of the
        plain recursion."""
        memo = self._memo
        result = memo.get(mask)
        if result is not None:
            return result
        blocks_at, on_miss = self._blocks_at, self._on_miss
        stack: list[tuple[int, Iterator[int]]] = []  # open sets, each with its blocks left to try
        while True:
            if result is None:  # mask is a miss: open it, if a block heads it
                heads = blocks_at[(mask & -mask).bit_length() - 1]  # mask 0 is in the memo
                if heads:
                    on_miss()
                    stack.append((mask, iter(heads)))
                elif not stack:
                    return False
                result = False
            top, blocks = stack[-1]
            if not result:
                for bmask in blocks:
                    if bmask & top == bmask:
                        mask = top & ~bmask
                        result = memo.get(mask)
                        if result is not False:
                            break  # True decides the top set; None opens the rest
                if result is None:
                    continue
            memo[top] = result  # False once no block is left
            stack.pop()
            if not stack:
                return result
