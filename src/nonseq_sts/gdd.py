"""Constructive 3-GDD builders with post-hoc verification.

Every path constructs a triangle decomposition of a complete multipartite
graph and is re-validated before it is returned; nothing is trusted.

Direct ingredients: a transversal design from the cyclic Latin square
z = x + y (td3), the Bose triples over an idempotent commutative
quasigroup (type 3^u, odd u), and Wilson-style inflation replacing every
point by w points and every block by a td3(w) copy.  Anything the direct
routes do not reach (even group counts, mixed types) goes to a
Stinson-style hill climb whose moves never decrease the number of covered
cross pairs.  Results can be cached as JSON keyed by the canonical type
string, plus the requested seed on the seed-dependent hill-climb route;
cache hits are re-validated on load so a corrupted cache can not poison a
construction.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Optional

from .designs import (
    Design,
    Gdd,
    GroupType,
    ValidationReport,
    canonical_block,
    validate_gdd,
    validate_sts,
)
from .exact_cover import BudgetExceededError


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
    """Transversal design of type m^3 from the Latin square z = x + y mod m."""
    if m < 1:
        raise ValueError("td3 needs m >= 1")
    blocks = [canonical_block((x, m + y, 2 * m + (x + y) % m)) for x in range(m) for y in range(m)]
    groups = tuple(tuple(range(i * m, (i + 1) * m)) for i in range(3))
    return Gdd(GroupType.of((m, 3)), groups, Design.from_blocks(3 * m, blocks))


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
                blocks.append(canonical_block((3 * x + i, 3 * y + i, 3 * z + (i + 1) % 3)))
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
    blocks.extend(canonical_block((3 * x, 3 * x + 1, 3 * x + 2)) for x in range(m))
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
    block becomes a td3(w) copy aligned on its three point groups."""
    if w < 1:
        raise ValueError("inflate needs w >= 1")
    blocks = []
    for a, b, c in g.design.blocks:
        for x in range(w):
            for y in range(w):
                blocks.append(canonical_block((a * w + x, b * w + y, c * w + (x + y) % w)))
    groups = tuple(tuple(p * w + j for p in grp for j in range(w)) for grp in g.groups)
    group_type = GroupType.of(*((size * w, count) for size, count in g.group_type.parts))
    return Gdd(group_type, groups, Design.from_blocks(g.design.n * w, blocks))


def hill_climb_gdd(req: GddRequest, *, stall_limit: int = 20000) -> Gdd:
    """Randomized construction of a 3-GDD of the requested type.

    Moves pick an uncovered cross pair {a, b} and a third-group point c
    with at most one of {a, c}, {b, c} already covered; adding {a, b, c}
    and removing the at most one conflicting block raises the covered-pair
    count by 0 or 3, so the count never decreases but need not grow.  The
    search gives up after more than ``stall_limit`` consecutive draws of a
    pair with no viable third point.  Every swap, a zero-gain one too,
    resets that count, so ``stall_limit`` does not bound the total number
    of moves.  Restarting with another seed is the caller's policy.
    """
    rep = necessary_conditions(req.group_type)
    if not rep:
        raise ValueError(f"group type {req.group_type.key()} fails necessary conditions: {rep.detail}")
    groups = canonical_groups(req.group_type)
    n = req.group_type.total_points
    gid = [0] * n
    for i, grp in enumerate(groups):
        for p in grp:
            gid[p] = i
    rng = random.Random(req.seed)

    uncovered: list[tuple[int, int]] = []
    position: dict[tuple[int, int], int] = {}
    for a in range(n):
        for b in range(a + 1, n):
            if gid[a] != gid[b]:
                position[(a, b)] = len(uncovered)
                uncovered.append((a, b))

    def mark_uncovered(pair):
        position[pair] = len(uncovered)
        uncovered.append(pair)

    def mark_covered(pair):
        i = position.pop(pair)
        last = uncovered.pop()
        if i < len(uncovered):
            uncovered[i] = last
            position[last] = i

    cover: dict[tuple[int, int], tuple[int, int, int]] = {}
    blocks: set[tuple[int, int, int]] = set()

    def pairs_of(blk):
        a, b, c = blk
        return (a, b), (a, c), (b, c)

    stalls = 0
    while uncovered:
        if stalls > stall_limit:
            raise BudgetExceededError(
                f"hill climb for {req.group_type.key()} (seed {req.seed}) stalled after {stall_limit} attempts"
            )
        a, b = uncovered[rng.randrange(len(uncovered))]
        viable = []
        for grp in groups:
            if gid[a] == gid[grp[0]] or gid[b] == gid[grp[0]]:
                continue
            for c in grp:
                ac = (a, c) if a < c else (c, a)
                bc = (b, c) if b < c else (c, b)
                if (ac in cover) and (bc in cover):
                    continue
                viable.append(c)
        if not viable:
            stalls += 1
            continue
        stalls = 0
        c = viable[rng.randrange(len(viable))]
        for q in ((a, c) if a < c else (c, a)), ((b, c) if b < c else (c, b)):
            old = cover.get(q)
            if old is not None:
                blocks.discard(old)
                for p in pairs_of(old):
                    del cover[p]
                    mark_uncovered(p)
        new = tuple(sorted((a, b, c)))
        blocks.add(new)
        for p in pairs_of(new):
            cover[p] = new
            mark_covered(p)
    return Gdd(req.group_type, groups, Design.from_blocks(n, blocks))


def build_gdd(req: GddRequest, *, cache_dir: Optional[os.PathLike | str] = None, retries: int = 3) -> Gdd:
    """Realise the requested group type, verified, via the cheapest route.

    Strategy: (1) a verified on-disk cache; (2) for a single part g^u with
    u >= 3 odd and 3 | g, inflate the Bose type-3^u GDD by g/3; (3) the
    hill climb, retried on consecutive seeds.  The result is re-validated
    whatever the route, and written back to the cache when one is given,
    under a name that includes ``req.seed`` on the hill-climb route, so a
    cache hit is what an uncached build with the same request returns.
    """
    group_type = req.group_type
    rep = necessary_conditions(group_type)
    if not rep:
        raise ValueError(f"group type {group_type.key()} fails necessary conditions: {rep.detail}")
    if cache_dir is not None:
        cached = _cache_load(_cache_path(Path(cache_dir), req), group_type)
        if cached is not None:
            return cached

    built: Optional[Gdd] = None
    seed_used = req.seed
    if _bose_route(group_type):
        size, count = group_type.parts[0]
        built = inflate(bose_gdd(count), size // 3)
    else:
        last: Optional[BudgetExceededError] = None
        for attempt in range(max(1, retries)):
            seed_used = req.seed + attempt
            try:
                built = hill_climb_gdd(GddRequest(group_type, seed_used))
                break
            except BudgetExceededError as exc:
                last = exc
        if built is None:
            raise BudgetExceededError(f"could not realise {group_type.key()} in {retries} attempts: {last}")

    rep = validate_gdd(built)
    if not rep:
        raise RuntimeError(f"internal error: constructed GDD for {group_type.key()} is invalid ({rep})")
    if built.group_type != group_type:
        raise RuntimeError(f"internal error: built type {built.group_type.key()}, wanted {group_type.key()}")
    if cache_dir is not None:
        _cache_store(_cache_path(Path(cache_dir), req), built, seed_used)
    return built


def _bose_route(group_type: GroupType) -> bool:
    """Whether ``build_gdd`` realises the type by inflating a Bose GDD: a
    single part g^u with u >= 3 odd and 3 | g.  That route ignores the seed."""
    if len(group_type.parts) != 1:
        return False
    size, count = group_type.parts[0]
    return count >= 3 and count % 2 == 1 and size % 3 == 0


def _cache_path(cache_dir: Path, req: GddRequest) -> Path:
    """``3-12^5.json`` on the Bose route; the hill climb depends on the
    seed, so its file names the requested seed too: ``3-12^4-seed0.json``."""
    stem = req.group_type.key().replace(":", "-")
    if not _bose_route(req.group_type):
        stem += f"-seed{req.seed}"
    return cache_dir / (stem + ".json")


def _cache_load(path: Path, group_type: GroupType) -> Optional[Gdd]:
    try:
        data = json.loads(path.read_text(encoding="utf-8"))
        if data["key"] != group_type.key():
            return None
        groups = tuple(tuple(int(p) for p in grp) for grp in data["groups"])
        gdd = Gdd(group_type, groups, Design.from_blocks(group_type.total_points, data["blocks"]))
    except (OSError, ValueError, KeyError, TypeError, json.JSONDecodeError):
        return None
    if not validate_gdd(gdd):
        return None
    return gdd


def _cache_store(path: Path, gdd: Gdd, seed: int) -> None:
    """Write ``gdd`` to ``path``, recording the seed it was built with."""
    path.parent.mkdir(parents=True, exist_ok=True)
    payload = {
        "key": gdd.group_type.key(),
        "seed": seed,
        "groups": [list(grp) for grp in gdd.groups],
        "blocks": [list(blk) for blk in gdd.design.blocks],
    }
    tmp = path.with_suffix(f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(payload), encoding="utf-8")
    os.replace(tmp, path)
