"""Builders for certified nonsequenceable systems.

Five starter systems (orders 13, 19, 25, 31, 43) are developed from
difference base blocks; each carries an almost parallel class whose
translates miss every point in turn, giving a full certificate.  The
order-25 starter list is arithmetically short by one orbit and is
completed by residual-difference search before development.  Order 19's
class is not the paper's: it avoids the orbit of (0, 1, 6).

Larger orders n = 1 (mod 6) are composed: take a 3-GDD on n - 1 points
(``_composed_type``: the first closed-form uniform type 12^u, 18^u, 24^u,
30^u or 42^u, else 12^u 18^1 or 18^m 24^1), adjoin one new point X, and
fill each group of size g plus X with the certified starter of order
g + 1.  The relabeling keeps the group's order and ends at X, the largest
point, so it is increasing and keeps blocks sorted.  Certificates compose
by the same recipe: an almost parallel class missing y in y's own fill
system, unioned with the classes missing X in every other fill system.
The certificate depends only on the type, as every GDD lays its groups
out as ``gdd.canonical_groups``; the GDD supplies the remaining blocks.
Nothing is trusted: every composed design is re-validated and every
certificate re-verified before being returned.

A partial system deletes blocks that no certificate entry uses first (the
GDD blocks, say) and keeps the parent entries that avoid them: no search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .designs import (
    AlmostParallelClass,
    Design,
    GroupType,
    NonseqCertificate,
    validate_psts,
    validate_sts,
    verify_certificate,
)
from .differences import AbelianGroup, CyclicGroup, ProductGroup, complete_base_blocks, develop, translate_apc
from .gdd import GddRequest, build_gdd, canonical_groups, climbs
from .sequencing import CertificationError


@dataclass(frozen=True)
class CertifiedDesign:
    """A design together with a verified nonsequenceability certificate."""

    design: Design
    certificate: NonseqCertificate
    provenance: str


# Starter systems: (group, base blocks, almost parallel class missing zero).
_STARTERS: dict[int, tuple[AbelianGroup, tuple, tuple]] = {
    13: (
        CyclicGroup(13),
        ((0, 2, 7), (0, 1, 4)),
        ((7, 8, 11), (3, 5, 10), (2, 4, 9), (1, 6, 12)),
    ),
    19: (
        CyclicGroup(19),
        ((0, 1, 6), (0, 2, 10), (0, 3, 7)),
        ((1, 13, 16), (2, 5, 9), (3, 12, 14), (4, 7, 11), (6, 15, 17), (8, 10, 18)),
    ),
    25: (
        ProductGroup(5, 5),
        (
            ((0, 0), (0, 1), (2, 3)),
            ((0, 0), (1, 2), (2, 0)),
            ((0, 0), (1, 0), (3, 1)),
        ),
        (
            ((0, 1), (0, 2), (2, 4)),
            ((1, 0), (3, 2), (1, 4)),
            ((1, 1), (4, 1), (0, 3)),
            ((2, 0), (2, 3), (3, 4)),
            ((2, 1), (2, 2), (4, 4)),
            ((3, 0), (1, 2), (1, 3)),
            ((3, 1), (4, 2), (3, 3)),
            ((4, 0), (4, 3), (0, 4)),
        ),
    ),
    31: (
        CyclicGroup(31),
        ((0, 5, 11), (0, 4, 12), (0, 3, 13), (0, 2, 9), (0, 1, 15)),
        (
            (11, 15, 23),
            (10, 26, 27),
            (9, 14, 20),
            (8, 13, 19),
            (7, 25, 28),
            (5, 21, 22),
            (4, 24, 29),
            (3, 6, 16),
            (2, 12, 30),
            (1, 17, 18),
        ),
    ),
    43: (
        CyclicGroup(43),
        ((0, 1, 16), (0, 2, 14), (0, 3, 11), (0, 4, 37), (0, 5, 25), (0, 7, 24), (0, 9, 22)),
        (
            (14, 15, 30),
            (1, 28, 29),
            (2, 20, 25),
            (3, 23, 41),
            (4, 33, 35),
            (5, 34, 36),
            (6, 19, 40),
            (7, 39, 42),
            (8, 26, 31),
            (9, 27, 32),
            (10, 37, 38),
            (11, 17, 21),
            (12, 18, 22),
            (13, 16, 24),
        ),
    ),
}

BASE_ORDERS = tuple(sorted(_STARTERS))


def base_case(n: int) -> CertifiedDesign:
    """Develop a starter system and certify it by translating its almost
    parallel class through the group (translate by t misses point t)."""
    if n not in _STARTERS:
        raise ValueError(f"no starter system of order {n}; have {BASE_ORDERS}")
    group, base, apc_elements = _STARTERS[n]
    base = list(base)
    base.extend(complete_base_blocks(base, group))
    design = develop(base, group)
    apc_zero = AlmostParallelClass.from_blocks((tuple(group.index(e) for e in blk) for blk in apc_elements), 0)
    entries = {}
    for t in group.elements():
        apc = translate_apc(apc_zero, t, group)
        entries[apc.missed] = apc
    cert = NonseqCertificate(entries)
    rep = verify_certificate(design, cert)
    if not rep:
        raise RuntimeError(f"internal error: starter certificate of order {n} does not verify ({rep})")
    return CertifiedDesign(design, cert, f"base-case({n})")


def _composed_type(n: int) -> GroupType:
    """The GDD type an order is composed from: the first uniform type
    g^((n-1)/g), g + 1 a starter order, that ``climbs`` says is closed
    form (12 first, so the paper's 12^u wherever it is closed).  Failing
    that, 12^u 18^1 (n = 12u + 19), or 18^m 24^1 (n = 18m + 25) at n = 7
    (mod 36), where the master 4^u 6^1 that 12^u 18^1 climbs does not
    exist (6^m 8^1 does).  Every even (n-1)/6 has a uniform type: 12^u
    with u = 2 (mod 6) becomes 24^(u/2)."""
    for order in BASE_ORDERS:
        g = order - 1
        if (n - 1) % g == 0 and not climbs(uniform := GroupType.of((g, (n - 1) // g))):
            return uniform
    if n % 36 == 7:
        return GroupType.of((18, (n - 25) // 18), (24, 1))
    return GroupType.of((12, (n - 19) // 12), (18, 1))


def _provenance(n: int, group_type: GroupType, used: Optional[int], requested: int) -> str:
    """The provenance of a composed design whose GDD came from seed ``used``
    (None for a closed form) when ``requested`` was asked for."""
    text = f"gdd-fill(n={n}, type={group_type.key()}"
    if used is not None:
        text += f", seed={used}" if used == requested else f", seed={used} (requested {requested})"
    return text + ")"


def certified_sts(n: int, seed: int = 0, cache_dir=None) -> CertifiedDesign:
    """A nonsequenceable Steiner triple system of any order n = 1 (mod 6)
    except the impossible n = 7, with a certificate covering all n points.
    Only an order whose GDD type ``climbs`` (the mixed 12^u 18^1 and 18^m
    24^1 types, 37 orders up to 1009) reads ``seed``, and its provenance
    names the seed the climb came from: ``seed=11 (requested 10)`` when the
    climb got stuck on seed 10 and the retry on 11 succeeded.  Every other
    order is seed-free, and its provenance names no seed.  Deterministic
    for a fixed seed.  ``cache_dir`` is accepted and ignored."""
    if type(n) is not int or type(seed) is not int:
        raise ValueError(f"n and seed must be ints, got {n!r} and {seed!r}")
    if n % 6 != 1:
        raise ValueError(f"n must be 1 (mod 6), got {n}")
    if n == 7:
        raise ValueError("no nonsequenceable Steiner triple system of order 7 exists")
    if n < 13:
        raise ValueError(f"smallest supported order is 13, got {n}")
    if n in _STARTERS:
        return base_case(n)
    group_type = _composed_type(n)

    x = n - 1
    fills = {size: base_case(size + 1) for size, _count in group_type.parts}
    groups = canonical_groups(group_type)
    blocks = []
    missing_x: list[frozenset] = []  # per group, the relabeled class missing X
    own_class: dict[int, frozenset] = {}  # point -> relabeled class missing it
    for grp in groups:
        fill = fills[len(grp)]
        label = sorted(grp) + [x]  # increasing, so relabeled blocks stay sorted
        blocks.extend((label[a], label[b], label[c]) for a, b, c in fill.design.blocks)
        for local_missed, apc in fill.certificate.entries.items():
            relabeled = frozenset((label[a], label[b], label[c]) for a, b, c in apc.blocks)
            if local_missed == len(grp):
                missing_x.append(relabeled)
            else:
                own_class[label[local_missed]] = relabeled

    entries = {x: AlmostParallelClass(frozenset().union(*missing_x), x)}
    for i, grp in enumerate(groups):
        others = frozenset().union(*(cls for j, cls in enumerate(missing_x) if j != i))
        for y in grp:
            entries[y] = AlmostParallelClass(own_class[y] | others, y)
    cert = NonseqCertificate(entries)

    gdd = build_gdd(GddRequest(group_type, seed))
    design = Design(n, tuple(sorted(blocks + list(gdd.design.blocks))))  # every triple is increasing
    rep = validate_sts(design)
    if not rep:
        raise RuntimeError(f"internal error: composed design of order {n} is invalid ({rep})")
    rep = verify_certificate(design, cert)
    if not rep:
        raise RuntimeError(f"internal error: composed certificate of order {n} does not verify ({rep})")
    return CertifiedDesign(design, cert, _provenance(n, group_type, gdd.seed, seed))


def certified_psts(n: int, a: int, seed: int = 0, cache_dir=None) -> CertifiedDesign:
    """A nonsequenceable partial system of size n(n-1)/6 - a, cut from
    ``certified_sts(n)``.  The first ``a`` blocks in sorted order go,
    blocks in no certificate entry first, and the parent entries that avoid
    them are kept, as classes of the smaller design: nothing is searched.
    Every order but 13 has (n-1)/3 unused blocks and keeps every entry; 13
    has one class per point, so a search could add none.  Under n-1 kept
    entries raise ``CertificationError``.  The result is re-validated and
    re-verified.  ``cache_dir`` is accepted and ignored."""
    if type(n) is not int or type(a) is not int:
        raise ValueError(f"n and a must be ints, got {n!r} and {a!r}")
    if not 0 <= a <= (n - 1) // 3:
        raise ValueError(f"a must be between 0 and (n-1)/3 = {(n - 1) // 3}, got {a}")
    certified = certified_sts(n, seed=seed)
    entries = certified.certificate.entries
    used = frozenset().union(*(apc.blocks for apc in entries.values()))
    removed = set(sorted(certified.design.blocks, key=used.__contains__)[:a])
    cert = NonseqCertificate({p: apc for p, apc in entries.items() if removed.isdisjoint(apc.blocks)})
    if len(cert) < n - 1:
        raise CertificationError(p for p in range(n) if p not in cert.entries)
    design = Design(n, tuple(blk for blk in certified.design.blocks if blk not in removed))

    rep = validate_psts(design)
    if not rep:
        raise RuntimeError(f"internal error: reduced design of order {n} is invalid ({rep})")
    rep = verify_certificate(design, cert)
    if not rep:
        raise RuntimeError(f"internal error: kept certificate of order {n} does not verify ({rep})")
    return CertifiedDesign(design, cert, f"block-removal(n={n}, a={a}) from {certified.provenance}")
