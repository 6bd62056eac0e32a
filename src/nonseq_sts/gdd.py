"""Constructive 3-GDD builders with post-hoc verification.

Every path constructs a triangle decomposition of a complete multipartite
graph and is re-validated before it is returned; nothing is trusted.

Direct ingredients: the Bose triples over an idempotent commutative
quasigroup (type 3^u, odd u), and Wilson-style inflation replacing every
point by w points and every block by the w^2 blocks of the cyclic Latin
square z = x + y mod w; td3(w) is a single block inflated by w.
Anything the direct routes do not reach (even group counts, mixed
types) goes to Stinson's
live-point hill climb: each move costs O(1) and adds 0 or 3 covered cross
pairs, and a hard cap on total moves turns a stuck seed into a
BudgetExceededError, on which ``build_gdd`` retries the next seed.
Only climbed GDDs are cached, as JSON keyed by the type and the requested
seed; the file records the seed that succeeded, and cache hits are
re-validated on load so a corrupted cache can not poison a construction.
The closed-form Bose route is rebuilt every time.
"""

from __future__ import annotations

import json
import os
import random
from contextlib import suppress
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .designs import (
    Design,
    Gdd,
    GroupType,
    ValidationReport,
    validate_gdd,
    validate_sts,
)
from .documents import read_json, replace_file
from .exact_cover import BudgetExceededError


# Cap on hill-climb moves, per cross pair of the requested type.
MOVES_PER_CROSS_PAIR = 10

# Consecutive seeds ``build_gdd`` gives the hill climb before it gives up.
CLIMB_ATTEMPTS = 3

# Cache files of another format are rebuilt.  Format 2 came with the
# live-point hill climb, which realises a given seed differently.
_CACHE_FORMAT = 2


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
    """Divisibility and shape conditions any 3-GDD of this type must meet."""
    if group_type.group_count == 2:
        return ValidationReport.failed("shape", "two groups admit no transverse triple")
    n = group_type.total_points
    for size, _count in group_type.parts:
        if (n - size) % 2:
            return ValidationReport.failed(
                "degree", f"points in groups of size {size} have odd cross degree {n - size}"
            )
    if group_type.cross_pairs() % 3:
        return ValidationReport.failed("divisibility", f"{group_type.cross_pairs()} cross pairs, not a multiple of 3")
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
    the Latin square z = x + y mod w."""
    if w < 1:
        raise ValueError("inflate needs w >= 1")
    blocks = []
    for a, b, c in g.design.blocks:
        for x in range(w):
            for y in range(w):
                blocks.append((a * w + x, b * w + y, c * w + (x + y) % w))
    groups = tuple(tuple(p * w + j for p in grp for j in range(w)) for grp in g.groups)
    group_type = GroupType.of(*((size * w, count) for size, count in g.group_type.parts))
    return Gdd(group_type, groups, Design.from_blocks(g.design.n * w, blocks))


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
    Past the cap the climb raises BudgetExceededError with ``used`` and
    ``budget`` set to the moves made.  Restarting with another seed is the
    caller's policy.  The returned GDD records ``req.seed``.
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
    blocks = [(a, b, c) for a in range(n) for b in range(a + 1, n) if (c := third[a * n + b]) > b]
    return Gdd(group_type, groups, Design.from_blocks(n, blocks), seed=req.seed)


def build_gdd(req: GddRequest, *, cache_dir: Optional[os.PathLike | str] = None) -> Gdd:
    """Realise the requested group type, verified, via the cheapest route.

    A single part g^u with u >= 3 odd and 3 | g is the Bose type-3^u GDD
    inflated by g/3, built afresh every time.  Any other type comes from
    the hill climb, which checks ``necessary_conditions`` (a Bose type
    always meets them), tried on CLIMB_ATTEMPTS consecutive seeds from
    ``req.seed``; the returned GDD's ``seed`` is the seed that succeeded,
    and if none does, the BudgetExceededError sums ``used`` and ``budget``.
    Given ``cache_dir``, the climb is cached there under the type and
    ``req.seed``, unless it cannot be read or written, so a cache hit is
    what an uncached build returns.  The result is re-validated.
    """
    group_type = req.group_type
    size, count = group_type.parts[0] if len(group_type.parts) == 1 else (0, 0)
    path: Optional[Path] = None
    if count >= 3 and count % 2 == 1 and size % 3 == 0:
        built = inflate(bose_gdd(count), size // 3)
    else:
        if cache_dir is not None:
            path = _cache_path(Path(cache_dir), req)
            cached = _cache_load(path, group_type)
            if cached is not None:
                return cached
        failed = []
        for attempt in range(CLIMB_ATTEMPTS):
            try:
                built = hill_climb_gdd(GddRequest(group_type, req.seed + attempt))
                break
            except BudgetExceededError as exc:
                failed.append(exc)
        else:
            message = f"could not realise {group_type.key()} in {CLIMB_ATTEMPTS} attempts: {failed[-1]}"
            raise BudgetExceededError(message, used=sum(e.used for e in failed), budget=sum(e.budget for e in failed))

    rep = validate_gdd(built)
    if not rep:
        raise RuntimeError(f"internal error: constructed GDD for {group_type.key()} is invalid ({rep})")
    if built.group_type != group_type:
        raise RuntimeError(f"internal error: built type {built.group_type.key()}, wanted {group_type.key()}")
    if path is not None:
        with suppress(OSError):  # an unwritable cache is skipped, as an unreadable one is a miss
            _cache_store(path, built)
    return built


def _cache_path(cache_dir: Path, req: GddRequest) -> Path:
    """``3-12^4-seed0.json``: the climb depends on the seed, so the name does too."""
    stem = req.group_type.key().replace(":", "-")
    return cache_dir / f"{stem}-seed{req.seed}.json"


def _cache_load(path: Path, group_type: GroupType) -> Optional[Gdd]:
    try:
        data = read_json(path)
        seed = data["seed"]
        if data["key"] != group_type.key() or data.get("format") != _CACHE_FORMAT or type(seed) is not int:
            return None
        groups = tuple(tuple(int(p) for p in grp) for grp in data["groups"])
        gdd = Gdd(group_type, groups, Design.from_blocks(group_type.total_points, data["blocks"]), seed=seed)
    except (OSError, ValueError, KeyError, TypeError):  # DocumentError is a ValueError
        return None
    return gdd if validate_gdd(gdd) else None


def _cache_store(path: Path, gdd: Gdd) -> None:
    """Write ``gdd`` to ``path``, recording the seed it was built with."""
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "format": _CACHE_FORMAT,
        "key": gdd.group_type.key(),
        "seed": gdd.seed,
        "groups": [list(grp) for grp in gdd.groups],
        "blocks": [list(blk) for blk in gdd.design.blocks],
    }
    replace_file(path, [json.dumps(payload)])  # one shot: several times faster than streaming
