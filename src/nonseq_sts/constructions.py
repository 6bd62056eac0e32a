"""Builders for certified nonsequenceable systems.

Five starter systems (orders 13, 19, 25, 31, 43) are developed from
difference base blocks; each carries an almost parallel class whose
translates miss every point in turn, giving a full certificate.  The
order-25 starter list is arithmetically short by one orbit and is
completed by residual-difference search before development.

Larger orders n = 1 (mod 6) are composed: take a 3-GDD of type 12^u
(n = 12u + 1) or 12^u 18^1 (n = 12u + 19), adjoin one new point X, and
fill each group plus X with a certified system of order 13 or 19.  The
relabeling keeps the group's order and ends at X, the largest point, so
it is increasing and keeps blocks sorted.  Certificates compose by the
same recipe: an almost parallel class missing y in y's own fill system,
unioned with the classes missing X in every other fill system.  Nothing
is trusted: every composed design is re-validated and every certificate
re-verified before being returned.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import os

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
from .gdd import GddRequest, build_gdd
from .sequencing import certify_nonsequenceable


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
        ((1, 3, 11), (2, 15, 16), (4, 17, 18), (5, 8, 12), (6, 9, 13), (7, 10, 14)),
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


def certified_sts(n: int, seed: int = 0, cache_dir: Optional[os.PathLike | str] = None) -> CertifiedDesign:
    """A nonsequenceable Steiner triple system of any order n = 1 (mod 6)
    except the impossible n = 7, with a certificate covering all n points.
    Deterministic for a fixed seed.  When the GDD was climbed, the
    provenance names the seed it came from: ``seed=11 (requested 10)`` when
    the climb got stuck on seed 10 and the retry on 11 succeeded.  A
    Bose-route GDD uses no seed, and its provenance names none."""
    if n % 6 != 1:
        raise ValueError(f"n must be 1 (mod 6), got {n}")
    if n == 7:
        raise ValueError("no nonsequenceable Steiner triple system of order 7 exists")
    if n < 13:
        raise ValueError(f"smallest supported order is 13, got {n}")
    if n in _STARTERS:
        return base_case(n)
    k = (n - 1) // 6
    if k % 2 == 0:
        group_type = GroupType.of((12, k // 2))
    else:
        group_type = GroupType.of((12, (k - 3) // 2), (18, 1))

    gdd = build_gdd(GddRequest(group_type, seed), cache_dir=cache_dir)
    x = n - 1
    fills = {12: base_case(13), 18: base_case(19)}

    blocks = list(gdd.design.blocks)
    missing_x: list[frozenset] = []  # per group, the relabeled class missing X
    own_class: dict[int, frozenset] = {}  # point -> relabeled class missing it
    for grp in gdd.groups:
        fill = fills[len(grp)]
        label = sorted(grp) + [x]  # increasing, so relabeled blocks stay sorted
        blocks.extend((label[a], label[b], label[c]) for a, b, c in fill.design.blocks)
        for local_missed, apc in fill.certificate.entries.items():
            relabeled = frozenset((label[a], label[b], label[c]) for a, b, c in apc.blocks)
            if local_missed == len(grp):
                missing_x.append(relabeled)
            else:
                own_class[label[local_missed]] = relabeled
    design = Design.from_blocks(n, blocks)

    entries = {x: AlmostParallelClass(frozenset().union(*missing_x), x)}
    for i, grp in enumerate(gdd.groups):
        others = frozenset().union(*(cls for j, cls in enumerate(missing_x) if j != i))
        for y in grp:
            entries[y] = AlmostParallelClass(own_class[y] | others, y)
    cert = NonseqCertificate(entries)

    rep = validate_sts(design)
    if not rep:
        raise RuntimeError(f"internal error: composed design of order {n} is invalid ({rep})")
    rep = verify_certificate(design, cert)
    if not rep:
        raise RuntimeError(f"internal error: composed certificate of order {n} does not verify ({rep})")
    provenance = f"gdd-fill(n={n}, type={group_type.key()}"
    if gdd.seed is not None:  # the climb ran
        provenance += f", seed={seed}" if gdd.seed == seed else f", seed={gdd.seed} (requested {seed})"
    return CertifiedDesign(design, cert, provenance + ")")


def certified_psts(
    n: int,
    a: int,
    x0: int = 0,
    seed: int = 0,
    cache_dir: Optional[os.PathLike | str] = None,
) -> CertifiedDesign:
    """A nonsequenceable partial system of size n(n-1)/6 - a, obtained by
    deleting ``a`` blocks of the class missing ``x0`` and re-certifying the
    remainder from the parent certificate.

    The deleted blocks are chosen deterministically to damage as few other
    certificate entries as possible (ties broken by canonical block order);
    blocks shared between classes would otherwise knock out entries that
    the deletion did not need to touch.  Parent entries that avoid the
    deleted blocks are kept after ``verify_apc`` re-checks them; only the
    damaged points are searched afresh.  If fewer than n-1 points of the
    reduced design admit almost parallel classes, certification fails and
    the failure is surfaced, not hidden.  Like ``certified_sts``, the
    result is re-validated and its certificate re-verified before it is
    returned.
    """
    if n % 6 != 1 or n == 7:
        raise ValueError(f"n must be 1 (mod 6) and not 7, got {n}")
    if not 0 <= a <= (n - 1) // 3:
        raise ValueError(f"a must be between 0 and (n-1)/3 = {(n - 1) // 3}, got {a}")
    if not 0 <= x0 < n:
        raise ValueError(f"x0 must be a point of the design, got {x0}")
    certified = certified_sts(n, seed=seed, cache_dir=cache_dir)
    provenance = f"block-removal(n={n}, a={a}, x0={x0}) from {certified.provenance}"
    design, cert = certified.design, certified.certificate
    if a > 0:
        entries = cert.entries

        def damage(blk) -> int:
            return sum(1 for missed, apc in entries.items() if missed != x0 and blk in apc.blocks)

        removal_order = sorted(entries[x0].blocks, key=lambda blk: (damage(blk), blk))
        removed = set(removal_order[:a])
        design = Design.from_blocks(n, (blk for blk in design.blocks if blk not in removed))
        cert = certify_nonsequenceable(design, known=entries)

    rep = validate_psts(design)
    if not rep:
        raise RuntimeError(f"internal error: reduced design of order {n} is invalid ({rep})")
    rep = verify_certificate(design, cert)
    if not rep:
        raise RuntimeError(f"internal error: re-certified design of order {n} does not verify ({rep})")
    return CertifiedDesign(design, cert, provenance)
