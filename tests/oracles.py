"""Independent brute-force oracles the tests check the package against.

Everything here enumerates exhaustively and shares no code with the
package's search paths, except ``fresh_first_partition`` and
``plain_first_partition``: the references for the shared per-design matrix
and its restarts, which link a fresh matrix per question.
``read_block_plainly`` is the reference for the documents' block reader,
``document_dict_plainly`` and ``document_lines_by_dumps`` for their
streaming writer, and the
``*_by_loop`` validators, one Python pass per block, are the
reference for the column-wise validators of ``designs``.
"""

import json
import random
from itertools import combinations, count

import numpy as np

from nonseq_sts.designs import ComposedEntries, ValidationReport
from nonseq_sts.documents import DocumentError
from nonseq_sts.exact_cover import ExactCoverInstance, _Matrix


def exhaustive_cover_sets(universe_size: int, subsets) -> set[frozenset[int]]:
    """All exact covers, found by scoring every one of the 2^k candidate
    subsets (vectorised subset dynamic programming over bitmasks)."""
    k = len(subsets)
    masks = np.zeros(k, dtype=np.int64)
    for i, s in enumerate(subsets):
        m = 0
        for e in s:
            m |= 1 << e
        masks[i] = m
    full = (1 << universe_size) - 1
    union = np.zeros(1 << k, dtype=np.int64)
    disjoint = np.ones(1 << k, dtype=bool)
    for i in range(k):
        b = 1 << i
        lo = slice(0, b)
        hi = slice(b, 2 * b)
        disjoint[hi] = disjoint[lo] & ((union[lo] & masks[i]) == 0)
        union[hi] = union[lo] | masks[i]
    hits = np.nonzero(disjoint & (union == full))[0]
    return {frozenset(i for i in range(k) if (int(s) >> i) & 1) for s in hits}


def partitionable_by_enumeration(blocks, segment) -> bool:
    """Whether some subset of the blocks inside ``segment`` partitions it,
    by enumerating all subsets of those blocks."""
    seg = set(segment)
    inside = [b for b in blocks if seg.issuperset(b)]
    for r in range(len(inside) + 1):
        for combo in combinations(inside, r):
            pts = set()
            ok = True
            for b in combo:
                if pts & set(b):
                    ok = False
                    break
                pts |= set(b)
            if ok and pts == seg:
                return True
    return False


def fresh_matrix(d, points: set[int]) -> _Matrix:
    """A fresh matrix for one question, as ``exact_cover`` linked one before
    the shared matrix: sort and filter the blocks, and validate them into an
    instance on ``points`` renumbered in increasing order."""
    position = {p: i for i, p in enumerate(sorted(points))}
    candidates = []
    for blk in sorted(d.block_set):
        if points.issuperset(blk):
            candidates.append((blk, tuple(position[p] for p in blk)))
    inst = ExactCoverInstance.build(len(points), candidates)
    return _Matrix(inst.universe_size, inst.candidates)


def plain_first_partition(d, points: set[int]):
    """``exact_cover._first_partition`` as it was before restarts: one
    uncapped search of a fresh matrix, each level walked from the top."""
    found, rows = fresh_matrix(d, points).search(1, None)
    return (found[0] if found else None), rows


def fresh_first_partition(d, points: set[int], node_budget=None, first_cap=256):
    """``exact_cover._first_partition`` on a fresh matrix per question,
    replaying its restart schedule: attempt j may apply ``first_cap * 2**j``
    rows, attempt 0 walks each level's rows from the top and attempt j >= 1
    rotates them by ``random.Random(j)``.  The rows of every attempt count
    against ``node_budget``; the first attempt that decides answers, and
    one stopped by the budget answers with its count past the budget."""
    matrix = fresh_matrix(d, points)
    spent = 0
    for attempt in count():
        cap = first_cap * 2**attempt
        rng = random.Random(attempt) if attempt else None
        last = node_budget is not None and node_budget - spent <= cap  # the last attempt the budget allows
        found, rows = matrix.search(1, node_budget - spent if last else cap, rng)
        if last or rows <= cap:
            return (found[0] if found else None), spent + rows
        spent += cap


def recursive_mask_partitionable(blocks_at, memo: dict, on_miss, mask: int) -> bool:
    """``SegmentOracle.mask_partitionable`` as a plain recursion over the
    oracle's ``blocks_at`` (block bitmasks filed under their lowest point),
    with its own ``memo`` and ``on_miss``: one nested call per block taken.
    A nonempty set whose lowest point heads no block is False, unmemoized
    and uncounted."""
    hit = memo.get(mask)
    if hit is not None:
        return hit
    pivot = (mask & -mask).bit_length() - 1  # the lowest point must be covered
    if not blocks_at[pivot]:  # mask is not 0: the memo holds it
        return False
    on_miss()
    result = False
    for bmask in blocks_at[pivot]:
        if bmask & mask == bmask and recursive_mask_partitionable(blocks_at, memo, on_miss, mask & ~bmask):
            result = True
            break
    memo[mask] = result
    return result


def pairs_covered_exactly_once(n: int, blocks) -> bool:
    """Pair-incidence oracle: every pair of points in exactly one block."""
    for a in range(n):
        for b in range(a + 1, n):
            hits = sum(1 for blk in blocks if a in blk and b in blk)
            if hits != 1:
                return False
    return True


def brute_force_apcs(n: int, blocks, missed: int) -> list[tuple]:
    """All almost parallel classes missing ``missed``, by enumerating every
    ((n-1)/3)-subset of the blocks avoiding it."""
    want = (n - 1) // 3
    if want * 3 != n - 1:
        return []
    cands = [b for b in blocks if missed not in b]
    found = []
    for combo in combinations(cands, want):
        pts = set()
        ok = True
        for b in combo:
            if pts & set(b):
                ok = False
                break
            pts |= set(b)
        if ok and len(pts) == n - 1:
            found.append(combo)
    return found


def admissible_by_enumeration(n: int, blocks, seq, all_intervals: bool = True, memo=None) -> bool:
    """Admissibility via the subset-enumeration partition oracle.  ``memo``,
    a dict kept across calls on the same blocks, holds each point set's
    verdict, so trying every permutation enumerates each set once."""
    memo = {} if memo is None else memo
    seq = list(seq)
    for i in range(n):
        for j in range(i, n):
            if j - i + 1 == n or not (all_intervals or i == 0 or j == n - 1):
                continue
            if _partitionable_memoised(blocks, seq[i : j + 1], memo):
                return False
    return True


def _partitionable_memoised(blocks, segment, memo: dict) -> bool:
    key = frozenset(segment)
    if key not in memo:
        memo[key] = partitionable_by_enumeration(blocks, key)
    return memo[key]


def plain_sequence_search(n: int, blocks, all_intervals: bool = True):
    """The first admissible sequence in lexicographic order, or None, by
    plain backtracking: extend a prefix one point at a time, drop it when a
    proper segment ending at the new point is partitionable, and check the
    proper suffixes once the sequence is complete.  No endpoint filter,
    lookahead or symmetry."""
    memo: dict = {}
    seq: list[int] = []

    def extend() -> bool:
        t = len(seq)
        if t == n:
            return not any(_partitionable_memoised(blocks, seq[i:], memo) for i in range(1, n))
        for p in range(n):
            if p in seq:
                continue
            seq.append(p)
            starts = range(t + 1) if all_intervals else (0,)
            proper = (i for i in starts if t + 1 - i < n)
            if not any(_partitionable_memoised(blocks, seq[i:], memo) for i in proper) and extend():
                return True
            seq.pop()
        return False

    return tuple(seq) if extend() else None


def pair_count_verdicts(n: int, blocks, groups) -> tuple[bool, bool, bool]:
    """(partial system, Steiner system, GDD on ``groups``) verdicts from the
    number of blocks through each pair of points, counted pair by pair.

    A block must be 3 distinct ``int`` points (``bool`` excluded) in 0..n-1.
    A GDD covers every cross-group pair once and no within-group pair.
    """
    if not all(
        len(blk) == 3 and len(set(blk)) == 3 and all(type(p) is int and 0 <= p < n for p in blk)
        for blk in blocks
    ):
        return False, False, False
    group_of = {p: i for i, grp in enumerate(groups) for p in grp}
    counts = {
        (a, b): sum(1 for blk in blocks if a in blk and b in blk) for a in range(n) for b in range(a + 1, n)
    }
    psts = all(c <= 1 for c in counts.values())
    sts = n % 6 in (1, 3) and all(c == 1 for c in counts.values())
    gdd = all(c == (group_of[a] != group_of[b]) for (a, b), c in counts.items())
    return psts, sts, gdd


def read_block_plainly(blk, n: int) -> tuple[int, int, int]:
    """``documents._read_block`` as a set, ``min``, ``max`` and ``sorted``
    over the whole block: the same result or the same DocumentError."""
    if not isinstance(blk, list) or len(blk) != 3 or not all(type(p) is int for p in blk):
        raise DocumentError(f"block {blk!r} must be a list of 3 integers")
    if len(set(blk)) != 3 or min(blk) < 0 or max(blk) >= n:
        raise DocumentError(f"block {blk!r} must have 3 distinct points in 0..{n - 1}")
    return tuple(sorted(blk))


def document_dict_plainly(doc) -> dict:
    """``DesignDocument.to_dict`` written out field by field: every block
    sorted, then the blocks; certificate entries by missed point, each
    class's blocks sorted.  A composed certificate is an object: the hole,
    the groups with their parts, and each point's own class."""
    out: dict = {"schema": 1, "n": doc.design.n, "blocks": sorted(sorted(blk) for blk in doc.design.blocks)}
    if doc.labels is not None:
        out["labels"] = list(doc.labels)
    c = None if doc.certificate is None else doc.certificate.entries
    if isinstance(c, ComposedEntries):
        out["certificate"] = {
            "hole": list(c.hole),
            "groups": [{"points": list(g), "part": sorted(map(list, p))} for g, p in zip(c.groups, c.parts)],
            "classes": [{"missed": y, "group": c.own[y][0], "blocks": sorted(map(list, c.own[y][1]))} for y in sorted(c.own)],
        }
    elif c is not None:
        out["certificate"] = [
            {"missed": missed, "blocks": [list(blk) for blk in sorted(apc.blocks)]}
            for missed, apc in sorted(doc.certificate.entries.items())
        ]
    out["provenance"] = doc.provenance
    return out


def document_lines_by_dumps(doc: dict, end="\n}\n"):
    """``DesignDocument.save``'s text for ``doc``, its ``to_dict()`` built
    whole, a line at a time: one per scalar field and one per element of a
    non-empty list field, each encoded by ``json.dumps``; an object field's
    own fields, so written, after its key's line."""
    sep = "{\n"
    for key, value in doc.items():
        head = f"{sep}{json.dumps(key)}: "
        if isinstance(value, dict):
            yield head
            yield from document_lines_by_dumps(value, "\n}")
        elif isinstance(value, list) and value:
            yield head + "["
            item_sep = "\n"
            for item in value:
                yield item_sep + json.dumps(item)
                item_sep = ",\n"
            yield "\n]"
        else:
            yield head + json.dumps(value)
        sep = ",\n"
    yield end


def pair_incidence_by_loop(n: int, blocks, gid=None):
    """``designs._pair_incidence`` as a loop over the blocks, each checked
    and its pairs added one at a time: the same report and covered set."""
    covered: set[int] = set()
    if n < 0:
        return ValidationReport.failed("order", f"negative order {n}"), covered
    for blk in blocks:
        members = tuple(blk)
        if len(members) != 3 or len(set(members)) != 3:
            detail = f"block {members!r} does not have 3 distinct points"
            return ValidationReport.failed("malformed-block", detail), covered
        a, b, c = members
        if not (type(a) is int and type(b) is int and type(c) is int and 0 <= min(members) and max(members) < n):
            detail = f"block {members!r} has points outside 0..{n - 1}"
            return ValidationReport.failed("malformed-block", detail), covered
        a, b, c = sorted(members)
        if gid is not None and (gid[a] == gid[b] or gid[b] == gid[c] or gid[a] == gid[c]):
            return ValidationReport.failed("within-group-pair", f"block {(a, b, c)} hits a group twice"), covered
        for x, y in ((a, b), (a, c), (b, c)):
            if x * n + y in covered:
                earlier = next(tuple(sorted(e)) for e in blocks if x in e and y in e)
                detail = f"pair {(x, y)} covered by blocks {earlier} and {(a, b, c)}"
                return ValidationReport.failed("repeated-pair", detail), covered
            covered.add(x * n + y)
    return ValidationReport.passed(), covered


def validate_psts_by_loop(d):
    return pair_incidence_by_loop(d.n, d.blocks)[0]


def validate_sts_by_loop(d):
    rep, covered = pair_incidence_by_loop(d.n, d.blocks)
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


def validate_gdd_by_loop(g):
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
    rep, covered = pair_incidence_by_loop(n, g.design.blocks, gid)
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


def verify_apc_by_loop(d, apc):
    """``designs.verify_apc`` as a loop over the class, against the design's
    blocks sorted one by one here."""
    if not 0 <= apc.missed < d.n:
        return ValidationReport.failed("apc", f"missed point {apc.missed} is outside 0..{d.n - 1}")
    block_set = frozenset(tuple(sorted(b)) for b in d.blocks)
    covered: set[int] = set()
    for blk in apc.blocks:
        key = tuple(sorted(blk))
        if key not in block_set:
            return ValidationReport.failed("apc", f"{key} is not a block of the design")
        if covered.intersection(key):
            return ValidationReport.failed("apc", f"block {key} meets another block of the class")
        covered.update(key)
    if len(covered) != d.n - 1 or apc.missed in covered:
        return ValidationReport.failed("apc", f"the blocks do not cover exactly the points other than {apc.missed}")
    return ValidationReport.passed()


def verify_certificate_by_loop(d, cert):
    if d.n < 2:
        return ValidationReport.failed("certificate", f"order {d.n} < 2: every sequence is admissible")
    if len(cert.entries) < d.n - 1:
        return ValidationReport.failed("certificate", f"{len(cert.entries)} entries, need at least {d.n - 1}")
    for missed, apc in sorted(cert.entries.items()):
        if apc.missed != missed:
            return ValidationReport.failed("certificate", f"entry {missed}: class misses {apc.missed}")
        rep = verify_apc_by_loop(d, apc)
        if not rep:
            return ValidationReport.failed("certificate", f"entry {missed}: {rep.detail}")
    return ValidationReport.passed()
