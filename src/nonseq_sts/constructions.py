"""Builders for certified nonsequenceable systems.

Five starter systems (orders 13, 19, 25, 31, 43) are developed from
difference base blocks; each carries an almost parallel class whose
translates miss every point in turn, giving a full certificate.  The
order-25 starter list is arithmetically short by one orbit and is
completed by residual-difference search before development.  Order 19's
class is not the paper's: it avoids the orbit of (0, 1, 6).

Larger orders are composed (``_compose``): a closed-form 3-GDD of type
12^t, or 24^(t/2) when t = 2 (mod 6), plus a hole of h points, h = 1 at
n = 1 (mod 12) and 7 otherwise, t = (n - h)/12.  Each group plus the hole
is filled with an STS(g + h) whose hole carries a subsystem: the starter of
order g + 1, or an STS(g + 7) with the Fano plane on its hole
(``_HOLE_FILLS``).  The certificate is held as this structure
(``ComposedEntries``), O(sum g^2) blocks.  Nothing is trusted: every
composed design is re-validated and every certificate re-verified before
being returned.

A partial system deletes blocks that no certificate entry uses first (the
GDD blocks, say) and keeps the parent entries that avoid them: no search.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .designs import (
    AlmostParallelClass,
    Block,
    ComposedEntries,
    Design,
    GroupType,
    NonseqCertificate,
    validate_psts,
    validate_sts,
    verify_certificate,
)
from .differences import AbelianGroup, CyclicGroup, ProductGroup, complete_base_blocks, develop, translate_apc
from .gdd import _closed_form, canonical_groups, inflate
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


# An STS(g + 7) per g whose last 7 points, the hole, carry the Fano plane
# (i, i+1, i+3) mod 7, in base-32 digits, three per block: the blocks; P, a
# partition of 0..g-1; and the class missing each point, as the other points.
# Order 19 is Z_3 x Z_4 with the triangles {i, 4+i, 8+i}, {i, 4+(i+1)%4,
# 8+(i+2)%4} and a 1-factor per hole point; order 31 a hill-climbed 1^24 7^1.
_HOLE_FILLS = {
    12: (
        "01c02d03e04805a06f07g09h0bi12i13h14f15916b17d18e1ag23f24c25e26a27829g2bh34935i36g37b38d3ac"
        "45d46e47h4ai4bg56h57f58g5bc67i68c69d79c7ae89i8ah8bf9af9beabdcdfceicghdegdhiefhfgi",
        "04815926a37b",
        "15923f4bg68c7aedhi05a2bh38d46e79cfgi01c34958g67iabdefh02d16b47h58g9afcei01c25e37b69d8ahfgi"
        "01c26a38d47h9befgi04813h25e79cabdfgi02d1ag34956h8bfcei02d1593ac4bg67iefh01c26a35i47h8bfdeg"
        "01c27835i4bg69defh03e14f26a58g79cdhi02d15937b46e8ahfgi01c23f4bg56h7ae89i01c27834956habdfgi"
        "01c25e36g47h89iabd01c23f45d67i8ah9be01c25e38d4bg67i9af02d18e36g47h5bc9af",
    ),
    24: (
        "01s02r03m04t05c06p07o08j09d0ae0bg0fq0hi0kn0lu12u13814p15d16r1791ab1ct1ei1fo1gj1hm1kq1ln23s"
        "24a25926c2782bf2dg2eq2ht2ij2ko2lm2np34n35r36t37g39q3aj3bl3ch3do3eu3fi3kp45m46g47r48k49b4cl"
        "4di4eo4fs4hq4ju56s57n58f5ao5bt5ej5gp5hu5ik5lq67l68q69e6ah6bd6fk6iu6jo6mn7am7bc7dq7es7fu7hp"
        "7it7jk89l8au8bo8cm8dr8eh8gt8ip8ns9as9ck9fp9gi9hr9jt9mo9nuacpadfagqainaktalrbepbhjbirbkubms"
        "bnqcducencfrcgsciocjqdekdhndjsdltdmpeflegremtfghfjmfntgklgmugnohkshloilsimqjlpjnrkmroproqu"
        "ostpqsptuqrtrsu",
        "03m15d27846g9ckainbhjefl",
        "12u34n56s7bc8eh9jtadfgklimqopr04t2lm3eu5ao68q7jk9fpbircgsdhn01s34n5ao68q7it9hrbepcdufjmgkl"
        "01s24a58f67l9gibkucjqdhnemtopr01s2593bl68q7jkaincduemtfghopr01s24a37g6iu8eh9ckbnqdltfjmopr"
        "01s24a37g58f9ckbirdhnemtjlpoqu01s24a35r6iu8bo9fpcjqdhnemtgkl01s24a35r6fk7bc9gidhnemtjlpoqu"
        "01s24a36t57n8cmbirdekfghjlpoqu01s2593bl48k6jo7hpcduegrfntimq01s24a35r6fk7dq8ip9jtcengmuhlo"
        "01s24a37g5ik69e8drbnqfjmhloptu01s24a36t5ej7hp89lbkucfrgnoimq01s24a3ch57n68q9gibkudltfjmopr"
        "03m1kq2594ju6bd7it8nsacpegrhlo01s24a35r6fk7it8eh9mobnqcdujlp01s24a3do57n69e8gtbkucfrimqjlp"
        "01s24a35r67l8gt9ckbepdhnfjmoqu01s24a35r69e7hp8bocdufntgklimq03m1gj25947r6ah8ipbnqcdueflost"
        "01s24a35r6jo7fu8gt9ckbepdhnimq01s24a36t5lq7jk8dr9nubepciofgh01s24a35r6iu7dq8gt9ckbepfjmhlo"
        "01s24a36t5ik7hp89lbnqcduegrfjm01s24a35r67l8cm9gibhjdekfntoqu01s24a35r6jo7it89lbkucendmpfgh"
        "01s25934n6bd7it8ehacpfjmgkloqu04t1ab2lm37g5hu68q9fpciodekjnr01s24a35r69e7bc8ipdhnfjmgkloqu"
        "01s25934n6bd7jk8ipagqcfremthlo",
    ),
}


def _triples(digits: str) -> Iterator[Block]:
    points = [int(c, 32) for c in digits]
    return zip(points[0::3], points[1::3], points[2::3])


def _fill(g: int, h: int) -> tuple[tuple[Block, ...], list[frozenset], frozenset]:
    """(blocks, classes, P) of an STS(g + h) whose last h points, the hole,
    carry a subsystem: ``classes[p]`` misses p, and P partitions 0..g-1.
    A one-point hole is the starter of order g + 1, P its class missing g."""
    if h == 1:
        starter = base_case(g + 1)
        classes = [starter.certificate.entries[p].blocks for p in range(g + 1)]
        return starter.design.blocks, classes, classes[g]
    blocks, part, classes = _HOLE_FILLS[g]
    w = g + h - 1
    return (
        tuple(_triples(blocks)),
        [frozenset(_triples(classes[p * w : (p + 1) * w])) for p in range(g + h)],
        frozenset(_triples(part)),
    )


def _composed_type(n: int) -> tuple[GroupType, int]:
    """(type, h): the hole h = 1 at n = 1 (mod 12), else 7, and with
    t = (n - h)/12 the type 12^t, or 24^(t/2) when t = 2 (mod 6), where 12^t
    is not closed form.  Every such type with t >= 3 is closed form."""
    t = (n - 1) // 12
    return GroupType.of((24, t // 2)) if t % 6 == 2 else GroupType.of((12, t)), 1 if n % 12 == 1 else 7


def _compose(group_type: GroupType, h: int) -> CertifiedDesign:
    """Adjoin a hole H of h points to the GDD ``inflate(master(), w)`` of
    ``_closed_form`` and fill each group G_i plus H with ``_fill``.  The
    certificate is ``ComposedEntries``: P_i is the relabeled P, and y in
    G_i owns fill i's class missing y; a hole point owns fill 0's.

    The GDD gets no check of its own: the fills cover exactly the pairs
    inside each G_i + H, so if the whole is an STS (the final
    ``validate_sts``), the GDD blocks cover each pair across two groups
    once and no other pair: a GDD of the type."""
    g = group_type.parts[0][0]
    n = group_type.total_points + h
    fill, classes, part = _fill(g, h)
    inner = [blk for blk in fill if blk[0] < g]  # the blocks outside the hole
    hole = tuple(range(n - h, n))
    groups = canonical_groups(group_type)

    def relabel(label, blks):
        return ((label[a], label[b], label[c]) for a, b, c in blks)

    blocks, parts, own = [], [], {}
    for i, group in enumerate(groups):  # group 0's fill brings the hole's blocks and classes
        label = (*group, *hole)  # increasing, so blocks stay sorted
        blocks.extend(relabel(label, fill if i == 0 else inner))
        parts.append(frozenset(relabel(label, part)))
        for y in range(g + h if i == 0 else g):
            own[label[y]] = i, frozenset(relabel(label, classes[y]))
    cert = NonseqCertificate(ComposedEntries(hole, groups, tuple(parts), own))

    master, w = _closed_form(group_type)
    design = Design(n, tuple(sorted(blocks + list(inflate(master(), w).design.blocks))))  # every triple is increasing
    rep = validate_sts(design)
    if not rep:
        raise RuntimeError(f"internal error: composed design of order {n} is invalid ({rep})")
    rep = verify_certificate(design, cert)
    if not rep:
        raise RuntimeError(f"internal error: composed certificate of order {n} does not verify ({rep})")
    hole_text = "" if h == 1 else f", hole={h}"
    return CertifiedDesign(design, cert, f"gdd-fill(n={n}, type={group_type.key()}{hole_text})")


def certified_sts(n: int, seed: int = 0, cache_dir=None) -> CertifiedDesign:
    """A nonsequenceable Steiner triple system of any order n = 1 (mod 6)
    except the impossible n = 7, with a certificate covering all n points:
    a starter, else ``_compose`` on ``_composed_type(n)``.  Every route is
    closed form, so the result depends on n alone.  ``seed`` and
    ``cache_dir`` are accepted and ignored."""
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
    return _compose(*_composed_type(n))


def certified_psts(n: int, a: int, seed: int = 0, cache_dir=None) -> CertifiedDesign:
    """A nonsequenceable partial system of size n(n-1)/6 - a, cut from
    ``certified_sts(n)``.  The first ``a`` blocks in sorted order go,
    blocks in no certificate entry first, and the parent entries that avoid
    them are kept, as classes of the smaller design: nothing is searched.
    Every order but 13 has (n-1)/3 unused blocks and keeps the parent
    certificate, a composed one as its structure, which also names the
    used blocks; 13 has one class per point, so a search could add none.
    Under n-1 kept
    entries raise ``CertificationError``.  The result is re-validated and
    re-verified.  ``seed`` and ``cache_dir`` are accepted and ignored."""
    if type(n) is not int or type(a) is not int or type(seed) is not int:
        raise ValueError(f"n, a and seed must be ints, got {n!r}, {a!r} and {seed!r}")
    if not 0 <= a <= (n - 1) // 3:
        raise ValueError(f"a must be between 0 and (n-1)/3 = {(n - 1) // 3}, got {a}")
    certified = certified_sts(n)
    cert = certified.certificate
    entries = cert.entries
    if isinstance(entries, ComposedEntries):
        used = frozenset().union(*entries.parts, *(blks for _, blks in entries.own.values()))
    else:
        used = frozenset().union(*(apc.blocks for apc in entries.values()))
    removed = set(sorted(certified.design.blocks, key=used.__contains__)[:a])
    if not removed.isdisjoint(used):
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
