"""Constructive 3-GDD builders with post-hoc verification.

Every path constructs a triangle decomposition of a complete multipartite
graph and is re-validated before it is returned; nothing is trusted.

Direct ingredients: the Bose triples over an idempotent commutative
quasigroup (type 3^u, odd u), Skolem's triples over a half-idempotent one
(an STS of order 1 mod 6), an STS(2u + 1) without one point (type 2^u,
u != 2 mod 3), and Wilson-style inflation replacing every point by w
points and every block by the w^2 blocks of the cyclic Latin square
z = x + y mod w; td3(w) is a single block inflated by w.  ``_closed_form``
names the types these reach; every type a build composes from is one.  Any
other type goes to Stinson's live-point hill climb: each move costs O(1)
and adds 0 or 3 covered cross pairs, and a hard cap on total moves turns a
stuck seed into a BudgetExceededError, on which ``build_gdd`` retries the
next seed.  The climb runs on the type a third the size when one exists
(``_climbed_type``), then inflates it by 3.  Every route lays its groups
out as ``canonical_groups`` of the type, which ``build_gdd`` checks.
This layer does no I/O.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from .designs import (
    Design,
    Gdd,
    GroupType,
    ValidationReport,
    validate_gdd,
    validate_sts,
)
from .exact_cover import BudgetExceededError


# Cap on hill-climb moves, per cross pair of the requested type.
MOVES_PER_CROSS_PAIR = 10

# Consecutive seeds ``build_gdd`` gives the hill climb before it gives up.
CLIMB_ATTEMPTS = 3


@dataclass(frozen=True)
class GddRequest:
    """A group type to realise, plus the seed driving the randomized fallback."""

    group_type: GroupType
    seed: int = 0


def canonical_groups(group_type: GroupType) -> tuple[tuple[int, ...], ...]:
    """Contiguous point ranges, one per group, in canonical type order."""
    groups = []
    start = 0
    for size in group_type.group_sizes():
        groups.append(tuple(range(start, start + size)))
        start += size
    return tuple(groups)


def necessary_conditions(group_type: GroupType) -> ValidationReport:
    """Shape, divisibility and pair-bound conditions any 3-GDD of this
    type must meet; for g^u m^1 the pair bound is Colbourn, Hoffman and
    Rees' (1992) m <= g(u - 1)."""
    if group_type.group_count == 2:
        return ValidationReport.failed("shape", "two groups admit no transverse triple")
    n = group_type.total_points
    for size, _count in group_type.parts:
        if (n - size) % 2:
            return ValidationReport.failed(
                "degree", f"points in groups of size {size} have odd cross degree {n - size}"
            )
    cross = group_type.cross_pairs()
    if cross % 3:
        return ValidationReport.failed("divisibility", f"{cross} cross pairs, not a multiple of 3")
    for size, _count in group_type.parts:
        # A group's s(n - s) pairs to the rest lie in s(n - s)/2 blocks,
        # each of which covers its own cross pair among the other groups.
        outward = size * (n - size)
        if outward // 2 > cross - outward:
            return ValidationReport.failed(
                "pair-bound",
                f"a group of size {size} meets {outward // 2} blocks, more than the "
                f"{cross - outward} cross pairs among the other groups",
            )
    return ValidationReport.passed()


def td3(m: int) -> Gdd:
    """Transversal design of type m^3: the one-block GDD of type 1^3
    inflated by m, so its blocks are the Latin square z = x + y mod m."""
    return inflate(Gdd(GroupType.of((1, 3)), ((0,), (1,), (2,)), Design(3, ((0, 1, 2),))), m)


def bose_gdd(u: int) -> Gdd:
    """Type 3^u GDD on Z_u x {0,1,2} from the quasigroup x*y = (x+y)(u+1)/2.

    The quasigroup is idempotent and commutative for odd u, which is
    exactly what keeps within-group pairs uncovered.  Even u is rejected.
    """
    if u < 1 or u % 2 == 0:
        raise ValueError(f"bose_gdd needs odd u >= 1, got {u}")
    half = (u + 1) // 2  # multiplicative inverse of 2 mod u
    blocks = []
    for x in range(u):
        for y in range(x + 1, u):
            z = (x + y) * half % u
            for i in range(3):
                blocks.append((3 * x + i, 3 * y + i, 3 * z + (i + 1) % 3))
    groups = tuple(tuple(range(3 * x, 3 * x + 3)) for x in range(u))
    return Gdd(GroupType.of((3, u)), groups, Design.from_blocks(3 * u, blocks))


def bose_sts(n: int) -> Design:
    """Steiner triple system of order n = 3 (mod 6): the Bose GDD triples
    plus one triple through each group."""
    if n % 6 != 3:
        raise ValueError(f"bose_sts needs n = 3 (mod 6), got {n}")
    m = n // 3
    gdd = bose_gdd(m)
    blocks = list(gdd.design.blocks)
    blocks.extend((3 * x, 3 * x + 1, 3 * x + 2) for x in range(m))
    return Design.from_blocks(n, blocks)


def skolem_sts(n: int) -> Design:
    """Steiner triple system of order n = 1 (mod 6) by Skolem's
    construction (Lindner and Rodger, *Design Theory*, ch. 1).

    With m = (n - 1)/6, the points are Z_2m x {0,1,2}, point (x, i) being
    3x + i, plus the point n - 1.  The quasigroup is the addition table of
    Z_2m with symbol 2s renamed s and 2s + 1 renamed m + s: commutative, and
    half-idempotent (x*x = (m+x)*(m+x) = x for x < m).  The triples are
    {(x,0), (x,1), (x,2)} and {n-1, (m+x, i), (x, i+1)} for x < m, and
    {(x,i), (y,i), (x*y, i+1)} for x < y, with i + 1 taken mod 3.
    """
    if n % 6 != 1:
        raise ValueError(f"skolem_sts needs n = 1 (mod 6), got {n}")
    m = n // 6
    q = 2 * m
    blocks = [(3 * x, 3 * x + 1, 3 * x + 2) for x in range(m)]
    blocks.extend((n - 1, 3 * (m + x) + i, 3 * x + (i + 1) % 3) for x in range(m) for i in range(3))
    for x in range(q):
        for y in range(x + 1, q):
            s = (x + y) % q
            z = s // 2 + m * (s % 2)
            for i in range(3):
                blocks.append((3 * x + i, 3 * y + i, 3 * z + (i + 1) % 3))
    return Design.from_blocks(n, blocks)


def _sts_minus_point(v: int) -> Gdd:
    """Type 2^((v-1)/2) GDD: ``bose_sts(v)`` or ``skolem_sts(v)`` without
    its point v - 1.  The blocks through that point pair up the others, and
    the pairs become the groups: the i-th pair in sorted order is relabeled
    (2i, 2i+1), so the groups are ``canonical_groups`` of the type."""
    sts = bose_sts(v) if v % 6 == 3 else skolem_sts(v)
    last = v - 1
    label = [0] * last
    pairs = (blk[:2] for blk in sts.blocks if blk[2] == last)  # blocks are sorted, and so are the pairs
    for i, (a, b) in enumerate(pairs):
        label[a], label[b] = 2 * i, 2 * i + 1
    blocks = ((label[a], label[b], label[c]) for a, b, c in sts.blocks if c != last)
    group_type = GroupType.of((2, last // 2))
    return Gdd(group_type, canonical_groups(group_type), Design.from_blocks(last, blocks))


def sts_as_gdd(d: Design) -> Gdd:
    """View a Steiner triple system as a GDD of type 1^n (singleton groups)."""
    rep = validate_sts(d)
    if not rep:
        raise ValueError(f"not a Steiner triple system: {rep}")
    groups = tuple((p,) for p in range(d.n))
    return Gdd(GroupType.of((1, d.n)), groups, d)


def inflate(g: Gdd, w: int) -> Gdd:
    """Wilson weighting: point p becomes points p*w..p*w+w-1, and every
    block {a, b, c} becomes the w^2 blocks (a*w + x, b*w + y, c*w + z) of
    the Latin square z = x + y mod w, increasing as a < b < c is.  The
    result keeps ``g.seed``."""
    if w < 1:
        raise ValueError("inflate needs w >= 1")
    blocks = []
    for a, b, c in g.design.blocks:
        for x in range(w):
            for y in range(w):
                blocks.append((a * w + x, b * w + y, c * w + (x + y) % w))
    groups = tuple(tuple(p * w + j for p in grp for j in range(w)) for grp in g.groups)
    group_type = GroupType.of(*((size * w, count) for size, count in g.group_type.parts))
    return Gdd(group_type, groups, Design(g.design.n * w, tuple(sorted(blocks))), seed=g.seed)


def hill_climb_gdd(req: GddRequest) -> Gdd:
    """Randomized construction of a 3-GDD of the requested type by
    Stinson's live-point hill climb (Stinson 1985, *Hill-climbing
    algorithms for the construction of combinatorial designs*).

    A cross pair is live while no block covers it, and a point is live
    while it lies in a live pair.  A move draws a live point x and two of
    its live partners y and z.  If y and z lie in different groups, the
    block through {y, z}, if there is one, is dropped and {x, y, z} is
    added.  If they share a group, z is redrawn from a group holding
    neither x nor y: when at most one of {x, z} and {y, z} is covered, that
    one block is dropped and {x, y, z} is added; otherwise the move does
    nothing.  Either way the covered-pair count gains 0 or 3.  Each point's
    live partners (a list plus swap-remove indices), the list of live
    points and the third point of every covered pair are kept up to date,
    so a move costs O(1).

    The total number of moves, idle ones included, is capped at
    MOVES_PER_CROSS_PAIR = 10 times the type's cross pairs.
    In a sweep of 1000 seeds each over 2^4, 6^3, 6^4, 12^4 and 12^3 18^1,
    and 200 each over 12^u for u = 6, 8, 10, 12 and 12^u 18^1 for u = 5, 7,
    no finished climb used more than 4.1 moves per cross pair.  On 6^4,
    12^4 and 12^3 18^1, the seeds that did not finish within 6 moves per
    cross pair were exactly those that did not finish within 100: each
    ends with six or twelve live pairs that the moves only trade back and
    forth between a few configurations.  That happened to 4.5 % of the
    seeds of 12^3 18^1, 0.9 % of 12^4 and 1 % or less of every other type.
    Of the masters ``build_gdd`` climbs instead, 4 of 1000 seeds of 4^4 6^1
    and 8 of 1000 of 6^3 8^1 got stuck, each still stuck at 100 moves per
    cross pair; none of 1000 of 4^3 6^1, nor of 200-300 each of 4^6 6^1,
    4^7 6^1, 4^9 6^1, 6^5 8^1 and 6^7 8^1, did.  Past the cap the climb
    raises BudgetExceededError with ``used`` and ``budget`` set to the
    moves made.  Restarting with another seed is the caller's policy.  The
    returned GDD records ``req.seed``.
    """
    group_type = req.group_type
    rep = necessary_conditions(group_type)
    if not rep:
        raise ValueError(f"group type {group_type.key()} fails necessary conditions: {rep.detail}")
    max_moves = MOVES_PER_CROSS_PAIR * group_type.cross_pairs()
    groups = canonical_groups(group_type)
    n = group_type.total_points
    gid = [0] * n
    for i, grp in enumerate(groups):
        for p in grp:
            gid[p] = i
    first = [grp[0] for grp in groups]
    size = [len(grp) for grp in groups]
    rng = random.Random(req.seed)

    # live[p]: p's live partners; slot[p*n+q]: index of q in live[p].
    # third[p*n+q] == third[q*n+p]: the third point of the block covering
    # {p, q}, or -1.  live_points lists the points with live partners, and
    # where[p] is p's index in it.
    live = [[q for q in range(n) if gid[q] != gid[p]] for p in range(n)]
    slot = [0] * (n * n)
    for p, row in enumerate(live):
        for i, q in enumerate(row):
            slot[p * n + q] = i
    third = [-1] * (n * n)
    live_points = [p for p in range(n) if live[p]]
    where = [0] * n
    for i, p in enumerate(live_points):
        where[p] = i

    def unlink(p, q):
        row = live[p]
        last = row.pop()
        if last != q:
            i = slot[p * n + q]
            row[i] = last
            slot[p * n + last] = i
        if not row:
            tail = live_points.pop()
            if tail != p:
                live_points[where[p]] = tail
                where[tail] = where[p]

    def link(p, q):
        row = live[p]
        if not row:
            where[p] = len(live_points)
            live_points.append(p)
        slot[p * n + q] = len(row)
        row.append(q)

    def add(a, b, c):
        third[a * n + b] = third[b * n + a] = c
        third[a * n + c] = third[c * n + a] = b
        third[b * n + c] = third[c * n + b] = a
        unlink(a, b)
        unlink(b, a)
        unlink(a, c)
        unlink(c, a)
        unlink(b, c)
        unlink(c, b)

    def drop(a, b, c):
        third[a * n + b] = third[b * n + a] = -1
        third[a * n + c] = third[c * n + a] = -1
        third[b * n + c] = third[c * n + b] = -1
        link(a, b)
        link(b, a)
        link(a, c)
        link(c, a)
        link(b, c)
        link(c, b)

    moves = 0
    while live_points:
        if moves >= max_moves:
            raise BudgetExceededError(
                f"hill climb for {group_type.key()} (seed {req.seed}) used up its {max_moves} moves",
                used=moves,
                budget=max_moves,
            )
        moves += 1
        x = live_points[rng.randrange(len(live_points))]
        row = live[x]
        i = rng.randrange(len(row))
        j = rng.randrange(len(row) - 1)  # a live point has an even number >= 2 of live partners
        y, z = row[i], row[j + (j >= i)]
        if gid[y] != gid[z]:
            w = third[y * n + z]
            if w >= 0:
                drop(y, z, w)
        else:
            lo, hi = sorted((gid[x], gid[y]))
            z = rng.randrange(n - size[lo] - size[hi])
            if z >= first[lo]:
                z += size[lo]
            if z >= first[hi]:
                z += size[hi]
            wx, wy = third[x * n + z], third[y * n + z]
            if wx >= 0 and wy >= 0:
                continue
            if wx >= 0:
                drop(x, z, wx)
            elif wy >= 0:
                drop(y, z, wy)
        add(x, y, z)
    blocks = tuple((a, b, c) for a in range(n) for b in range(a + 1, n) if (c := third[a * n + b]) > b)  # sorted
    return Gdd(group_type, groups, Design(n, blocks), seed=req.seed)


def _closed_form(group_type: GroupType) -> Optional[tuple[Callable[[], Gdd], int]]:
    """(master, w) when the type is a seed-free master GDD inflated by w:
    a single part g^u, u >= 3, with u odd and 3 | g (Bose 3^u by g/3), or
    with g even and u != 2 (mod 3) (an STS(2u + 1) minus a point, type 2^u,
    by g/2).  None for every other type."""
    if len(group_type.parts) != 1:
        return None
    size, count = group_type.parts[0]
    if count >= 3 and count % 2 == 1 and size % 3 == 0:
        return partial(bose_gdd, count), size // 3
    if count >= 3 and count % 3 != 2 and size % 2 == 0:
        return partial(_sts_minus_point, 2 * count + 1), size // 2
    return None


def _climbed_type(group_type: GroupType) -> tuple[GroupType, int]:
    """(type to climb, weight): every size divided by 3 and weight 3 when
    that type meets ``necessary_conditions``, else the type, weight 1."""
    if all(size % 3 == 0 for size, _count in group_type.parts):
        master = GroupType.of(*((size // 3, count) for size, count in group_type.parts))
        if necessary_conditions(master):
            return master, 3
    return group_type, 1


def build_gdd(req: GddRequest) -> Gdd:
    """Realise the requested group type, verified, via the cheapest route.

    A type ``_closed_form`` accepts is a single part g^u, u >= 3, built
    with ``seed`` None: the Bose type-3^u GDD inflated by g/3 when u is odd
    and 3 | g, else (g even, u != 2 (mod 3)) an STS(2u + 1) minus a point
    inflated by g/2.  Any other type comes from the hill
    climb, which checks ``necessary_conditions`` (a closed type always
    meets them), tried on CLIMB_ATTEMPTS consecutive seeds from
    ``req.seed``, on the type ``_climbed_type`` names, inflated back (12^u
    18^1 climbs 4^u 6^1, a ninth of the cross pairs).  The returned GDD's
    ``seed`` is the seed that succeeded, and if none does, the
    BudgetExceededError sums ``used`` and ``budget``.
    The result is re-validated, and its groups must be ``canonical_groups``
    of the type.
    """
    group_type = req.group_type
    route = _closed_form(group_type)
    if route is not None:
        master, w = route
        built = inflate(master(), w)
    else:
        climbed, w = _climbed_type(group_type)
        failed = []
        for attempt in range(CLIMB_ATTEMPTS):
            try:
                built = hill_climb_gdd(GddRequest(climbed, req.seed + attempt))
                break
            except BudgetExceededError as exc:
                failed.append(exc)
        else:
            message = f"could not realise {group_type.key()} in {CLIMB_ATTEMPTS} attempts: {failed[-1]}"
            raise BudgetExceededError(message, used=sum(e.used for e in failed), budget=sum(e.budget for e in failed))
        if w > 1:
            built = inflate(built, w)

    rep = validate_gdd(built)
    if not rep:
        raise RuntimeError(f"internal error: constructed GDD for {group_type.key()} is invalid ({rep})")
    if built.groups != canonical_groups(group_type):
        raise RuntimeError(f"internal error: built GDD for {group_type.key()} is not laid out in canonical groups")
    return built
