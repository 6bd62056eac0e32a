"""Spans around the package's layer boundaries, recorded from outside.

Each layer is one module of ``nonseq_sts``.  ``Tracer.install`` replaces
the functions below with wrappers at every place the package binds them
(``validate_gdd`` lives in ``designs`` but is also bound in ``gdd`` and in
the package namespace), and ``uninstall`` puts the originals back, so the
package source is never touched.  Spans are (name, start, end, parent,
outcome) rows kept in memory; a layer's self time is its span's duration
minus the durations of its child spans.

Hot leaf calls (``verify_apc``, ``SegmentOracle.mask_partitionable``) are
counted but get no span: a span per call would cost more than the call.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter, defaultdict
from time import perf_counter

PACKAGE = "nonseq_sts"

# (module, class or None, function) -> span name
SPANNED = {
    ("gdd", None, "build_gdd"): "gdd.build_gdd",
    ("gdd", None, "hill_climb_gdd"): "gdd.hill_climb_gdd",
    ("gdd", None, "bose_gdd"): "gdd.bose_gdd",
    ("gdd", None, "inflate"): "gdd.inflate",
    ("designs", None, "validate_gdd"): "designs.validate_gdd",
    ("designs", None, "validate_sts"): "designs.validate_sts",
    ("designs", None, "validate_psts"): "designs.validate_psts",
    ("designs", None, "verify_certificate"): "designs.verify_certificate",
    ("designs", "Design", "from_blocks"): "designs.from_blocks",
    ("constructions", None, "certified_sts"): "constructions.certified_sts",
    ("constructions", None, "certified_psts"): "constructions.certified_psts",
    ("constructions", None, "base_case"): "constructions.base_case",
    ("differences", None, "develop"): "differences.develop",
    ("differences", None, "complete_base_blocks"): "differences.complete_base_blocks",
    ("exact_cover", None, "find_apc"): "exact_cover.find_apc",
    ("sequencing", None, "certify_nonsequenceable"): "sequencing.certify_nonsequenceable",
    ("sequencing", None, "find_admissible_sequence"): "sequencing.find_admissible_sequence",
    ("sequencing", None, "is_admissible"): "sequencing.is_admissible",
    ("sequencing", None, "explain_nonsequenceable"): "sequencing.explain_nonsequenceable",
    ("documents", "DesignDocument", "save"): "documents.save",
    ("documents", "DesignDocument", "load"): "documents.load",
}

COUNTED = {
    ("designs", None, "verify_apc"): "designs.verify_apc",
    ("exact_cover", "SegmentOracle", "mask_partitionable"): "exact_cover.mask_partitionable",
}

GDD_BUILDERS = frozenset({"gdd.hill_climb_gdd", "gdd.bose_gdd", "gdd.inflate"})


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index or -1, outcome]
        # One-element lists, bumped in place: cheaper per call than a dict update.
        self.counts: dict[str, list[int]] = {name: [0] for name in COUNTED.values()}
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans = []
        self._stack = []
        for cell in self.counts.values():
            cell[0] = 0

    def _spanned(self, name, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            spans, stack = self.spans, self._stack
            index = len(spans)
            row = [name, perf_counter(), 0.0, stack[-1] if stack else -1, "ok"]
            spans.append(row)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
                if result is None:
                    row[4] = "none"
                return result
            except BaseException as exc:
                row[4] = type(exc).__name__
                raise
            finally:
                row[2] = perf_counter()
                stack.pop()

        return wrapper

    def _counted(self, name, fn):
        cell = self.counts[name]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            cell[0] += 1
            return fn(*args, **kwargs)

        return wrapper

    def install(self) -> None:
        """Wrap every listed function wherever a package module binds it."""
        if self._undo:
            raise RuntimeError("tracer is already installed")
        modules = [m for name, m in list(sys.modules.items()) if name == PACKAGE or name.startswith(PACKAGE + ".")]
        for table, make in ((SPANNED, self._spanned), (COUNTED, self._counted)):
            for (modname, clsname, fname), name in table.items():
                mod = sys.modules[f"{PACKAGE}.{modname}"]
                if clsname is not None:
                    cls = getattr(mod, clsname)
                    raw = cls.__dict__[fname]
                    if isinstance(raw, classmethod):
                        new = classmethod(make(name, raw.__func__))
                    else:
                        new = make(name, raw)
                    setattr(cls, fname, new)
                    self._undo.append((cls, fname, raw))
                    continue
                orig = getattr(mod, fname)
                wrapper = make(name, orig)
                for m in modules:
                    for attr, value in list(vars(m).items()):
                        if value is orig:
                            setattr(m, attr, wrapper)
                            self._undo.append((m, attr, orig))

    def uninstall(self) -> None:
        for obj, attr, value in reversed(self._undo):
            setattr(obj, attr, value)
        self._undo = []

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer self times and counts of the spans recorded since reset."""
        spans = self.spans
        child = [0.0] * len(spans)
        has_builder = [False] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
                if name in GDD_BUILDERS:
                    has_builder[parent] = True
        self_s: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        outcomes: Counter = Counter()
        hits = misses = 0
        for i, (name, start, end, _, outcome) in enumerate(spans):
            self_s[name] += (end - start) - child[i]
            calls[name] += 1
            outcomes[(name, outcome)] += 1
            if name == "gdd.build_gdd":
                if has_builder[i]:
                    misses += 1
                else:
                    hits += 1
        search = "sequencing.find_admissible_sequence"
        return {
            "gdd.hill_climb_gdd_s": self_s["gdd.hill_climb_gdd"],
            "gdd.hill_climb_gdd.calls": calls["gdd.hill_climb_gdd"],
            "gdd.bose_inflate_s": self_s["gdd.bose_gdd"] + self_s["gdd.inflate"],
            "gdd.build_gdd.self_s": self_s["gdd.build_gdd"],
            "gdd.cache_hits": hits,
            "gdd.cache_misses": misses,
            "designs.validate_gdd_s": self_s["designs.validate_gdd"],
            "designs.validate_sts_s": self_s["designs.validate_sts"],
            "designs.validate_psts_s": self_s["designs.validate_psts"],
            "designs.verify_certificate_s": self_s["designs.verify_certificate"],
            "designs.verify_apc.calls": self.counts["designs.verify_apc"][0],
            "designs.from_blocks_s": self_s["designs.from_blocks"],
            "constructions.certified_sts.self_s": self_s["constructions.certified_sts"],
            "constructions.certified_psts.self_s": self_s["constructions.certified_psts"],
            "constructions.base_case_s": self_s["constructions.base_case"],
            "differences.develop_s": self_s["differences.develop"],
            "differences.complete_base_blocks_s": self_s["differences.complete_base_blocks"],
            "exact_cover.find_apc_s": self_s["exact_cover.find_apc"],
            "exact_cover.find_apc.calls": calls["exact_cover.find_apc"],
            "exact_cover.find_apc.found": outcomes[("exact_cover.find_apc", "ok")],
            "exact_cover.mask_partitionable.calls": self.counts["exact_cover.mask_partitionable"][0],
            "sequencing.certify_nonsequenceable_s": self_s["sequencing.certify_nonsequenceable"],
            "sequencing.find_admissible_sequence_s": self_s[search],
            "sequencing.is_admissible_s": self_s["sequencing.is_admissible"],
            "sequencing.explain_nonsequenceable_s": self_s["sequencing.explain_nonsequenceable"],
            "sequencing.verdicts.sequence": outcomes[(search, "ok")],
            "sequencing.verdicts.none": outcomes[(search, "none")],
            "sequencing.verdicts.budget": outcomes[(search, "BudgetExceededError")],
            "documents.save_s": self_s["documents.save"],
            "documents.load_s": self_s["documents.load"],
        }
