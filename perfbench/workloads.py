"""The four workloads.  Each is a ``prepare`` step, untimed, and a
``run_round`` step that performs one whole round of operations, times
every library call into its phase, and checks every output with the
independent checker.

Every round of a workload attempts the same operations, so the share of
failed operations does not depend on the seed or on the run length.  The
seed only picks inputs whose cost does not depend on it: hill-climb seeds
(averaged over rounds), and the order of the points before the last one in
the admissibility permutations.
"""

from __future__ import annotations

import random
import shutil
import sys
import traceback
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path
from time import perf_counter

import checker

# Orders whose GDD comes from the hill climb: 12^u with even u (73, 97,
# 121, 145) and 12^u 18^1 (103).  163 is left out: its climb time varies
# by a factor of two across seeds, which no run length here averages away.
CLIMB_ORDERS = (73, 97, 103, 121, 145)
# Orders whose GDD is the Bose type 3^u inflated by 4 (odd u = 21, 41).
# 997 is left out: one pass over it takes about 16 s, longer than a run.
BULK_ORDERS = (253, 493)
PSTS_ORDERS = (13, 19, 31, 37)
# The order-13 starter system is rigid: deleting two or more blocks of its
# class missing 0 always leaves fewer than 12 certifiable points.
PSTS_KNOWN_FAILURES = {(13, 2), (13, 3), (13, 4)}
SEQUENCE_BUDGET = 50_000
# Certified designs for the admissibility checks.  Orders 85 and 109 and
# up are left out: at 109 one last point exhausts 1 GB in the segment
# search, and at 85 one last point alone takes 0.35 s.
ADMISSIBLE_ORDERS = (37, 49, 61, 73, 97)


class Round:
    """Tallies of one round: phase times, operations, document bytes."""

    def __init__(self):
        self.phases: dict[str, float] = defaultdict(float)
        self.attempted = 0
        self.failed = 0
        self.doc_bytes = 0

    @contextmanager
    def phase(self, name: str):
        start = perf_counter()
        try:
            yield
        finally:
            self.phases[name] += perf_counter() - start

    def attempt(self, name: str, fn, *args, expected_error=None, **kwargs):
        """One operation: time it into its phase and count it.  Returns
        (result, error); an error counts the operation as failed."""
        self.attempted += 1
        try:
            with self.phase(name):
                return fn(*args, **kwargs), None
        except Exception as exc:
            self.failed += 1
            if expected_error is None or not isinstance(exc, expected_error):
                print(f"perfbench: {name} operation failed unexpectedly:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            return None, exc

    def metrics(self) -> dict[str, float]:
        return {
            "total_s": sum(self.phases.values()),
            "build_s": self.phases["build"],
            "write_s": self.phases["write"],
            "verify_s": self.phases["verify"],
            "search_s": self.phases["search"],
            "doc_mb": self.doc_bytes / 1e6,
        }


def cert_entries(certificate) -> dict:
    return {key: (apc.missed, apc.blocks) for key, apc in certificate.entries.items()}


def check_certified(built, n: int, *, a: int | None = None) -> None:
    """An STS(n) (``a`` None) or a PSTS of size n(n-1)/6 - a, certified."""
    blocks = built.design.blocks
    if built.design.n != n:
        raise checker.CheckError(f"asked for order {n}, got {built.design.n}")
    full = a is None
    checker.check_blocks(n, blocks, full=full, size=n * (n - 1) // 6 - (a or 0))
    checker.check_certificate(n, blocks, cert_entries(built.certificate))


def write_and_verify(ns, rnd: Round, built, path: Path, *, full: bool) -> None:
    """``nonseq-sts build``'s save, then ``nonseq-sts verify``: load,
    validate and verify the certificate; the loaded document must equal
    what was written and every verdict must be a pass."""
    doc = ns.DesignDocument(built.design, certificate=built.certificate, provenance=built.provenance)
    _, err = rnd.attempt("write", doc.save, path)
    if err is not None:
        return
    rnd.doc_bytes += path.stat().st_size
    verdicts, err = rnd.attempt("verify", verify_document, ns, path, full=full)
    if err is not None:
        return
    loaded, reports = verdicts
    if not all(reports):
        raise checker.CheckError(f"{path.name}: a validator rejected a correct design: {[str(r) for r in reports]}")
    if set(loaded.design.blocks) != set(built.design.blocks):
        raise checker.CheckError(f"{path.name}: loaded blocks differ from the saved ones")
    if cert_entries(loaded.certificate) != cert_entries(built.certificate):
        raise checker.CheckError(f"{path.name}: loaded certificate differs from the saved one")


def verify_document(ns, path: Path, *, full: bool):
    loaded = ns.DesignDocument.load(path)
    design = loaded.design
    reports = [ns.validate_sts(design) if full else ns.validate_psts(design)]
    if loaded.certificate is not None:
        reports.append(ns.verify_certificate(design, loaded.certificate))
    return loaded, reports


def fresh_dir(path: Path) -> Path:
    """An empty directory: a GDD cache nothing has written to yet."""
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


def round_seed(seed: int, r: int) -> int:
    return seed * 100_003 + r


class Climb:
    """certified_sts on hill-climb orders with an empty cache, then save,
    load and verify each result."""

    def prepare(self, ns, seed: int, tmp: Path):
        return None

    def run_round(self, ns, state, seed: int, r: int, tmp: Path) -> Round:
        rnd = Round()
        cache = fresh_dir(tmp / f"climb-cache-{r}")
        for n in CLIMB_ORDERS:
            built, err = rnd.attempt("build", ns.certified_sts, n, seed=round_seed(seed, r), cache_dir=cache)
            if err is not None:
                continue
            check_certified(built, n)
            write_and_verify(ns, rnd, built, tmp / f"climb-{n}.json", full=True)
        shutil.rmtree(cache)
        return rnd


class Bulk:
    """Bose-route orders built twice against one fresh cache directory (a
    cold pass that writes the cache, a warm pass that reads it back), then
    the result saved, loaded and verified."""

    def prepare(self, ns, seed: int, tmp: Path):
        return None

    def run_round(self, ns, state, seed: int, r: int, tmp: Path) -> Round:
        rnd = Round()
        cache = fresh_dir(tmp / f"bulk-cache-{r}")
        for n in BULK_ORDERS:
            cold, err = rnd.attempt("build", ns.certified_sts, n, seed=seed, cache_dir=cache)
            if err is not None:
                continue
            check_certified(cold, n)
            warm, err = rnd.attempt("build", ns.certified_sts, n, seed=seed, cache_dir=cache)
            if err is not None:
                continue
            if warm.design.blocks != cold.design.blocks or cert_entries(warm.certificate) != cert_entries(cold.certificate):
                raise checker.CheckError(f"order {n}: the cached build differs from the fresh one")
            write_and_verify(ns, rnd, warm, tmp / f"bulk-{n}.json", full=True)
        shutil.rmtree(cache)
        return rnd


class Psts:
    """certified_psts(n, a) for every admissible a, saved and verified.
    The known-red order-13 cases stay in and count as failed."""

    def prepare(self, ns, seed: int, tmp: Path):
        return None

    def run_round(self, ns, state, seed: int, r: int, tmp: Path) -> Round:
        rnd = Round()
        cache = fresh_dir(tmp / f"psts-cache-{r}")
        for n in PSTS_ORDERS:
            for a in range((n - 1) // 3 + 1):
                known_red = (n, a) in PSTS_KNOWN_FAILURES
                built, err = rnd.attempt(
                    "build",
                    ns.certified_psts,
                    n,
                    a,
                    seed=seed,
                    cache_dir=cache,
                    expected_error=ns.CertificationError if known_red else None,
                )
                if err is not None:
                    continue
                check_certified(built, n, a=a)
                write_and_verify(ns, rnd, built, tmp / f"psts-{n}-{a}.json", full=False)
        shutil.rmtree(cache)
        return rnd


def removal_design(ns, n: int, a: int):
    """The design certified_psts(n, a) deletes its way to, before it tries
    to certify it: a blocks of the class missing 0, least damaging first."""
    base = ns.base_case(n)
    entries = base.certificate.entries

    def damage(blk) -> int:
        return sum(1 for missed, apc in entries.items() if missed != 0 and blk in apc.blocks)

    removed = set(sorted(entries[0].blocks, key=lambda blk: (damage(blk), blk))[:a])
    return ns.Design.from_blocks(n, (blk for blk in base.design.blocks if blk not in removed))


class Sequence:
    """Sequence searches and admissibility checks, each on a design loaded
    and verified from its document first, as ``nonseq-sts verify`` then
    ``nonseq-sts sequence`` would."""

    def prepare(self, ns, seed: int, tmp: Path):
        # (group, name, design, certificate or None, deleted blocks a or None for an STS)
        inputs = [
            ("sequenceable", "sts-7", ns.develop([(0, 1, 3)], ns.CyclicGroup(7)), None, None),
            ("sequenceable", "sts-9", ns.bose_sts(9), None, None),
        ]
        for a in (2, 3, 4):
            inputs.append(("sequenceable", f"removal-13-a{a}", removal_design(ns, 13, a), None, a))
        for n in (13, 19, 25):
            built = ns.base_case(n)
            inputs.append(("certified", f"base-{n}", built.design, built.certificate, None))
        for a in range((19 - 1) // 3 + 1):
            built = ns.certified_psts(19, a)
            inputs.append(("certified", f"psts-19-a{a}", built.design, built.certificate, a))
        cache = fresh_dir(tmp / "sequence-cache")
        for n in ADMISSIBLE_ORDERS:
            built = ns.certified_sts(n, seed=0, cache_dir=cache)
            inputs.append(("admissible", f"sts-{n}", built.design, built.certificate, None))
        docs = []
        for group, name, design, certificate, a in inputs:
            n = design.n
            checker.check_blocks(n, design.blocks, full=a is None, size=n * (n - 1) // 6 - (a or 0))
            if certificate is not None:
                checker.check_certificate(n, design.blocks, cert_entries(certificate))
            path = tmp / f"sequence-{name}.json"
            ns.DesignDocument(design, certificate=certificate, provenance=name).save(path)
            docs.append((group, path, n, a is None))
        return docs

    def run_round(self, ns, docs, seed: int, r: int, tmp: Path) -> Round:
        rnd = Round()
        rng = random.Random(round_seed(seed, r))
        for group, path, n, full in docs:
            verdicts, err = rnd.attempt("verify", verify_document, ns, path, full=full)
            if err is not None:
                continue
            loaded, reports = verdicts
            if not all(reports):
                raise checker.CheckError(f"{path.name}: a validator rejected a correct design")
            design = loaded.design
            if group == "admissible":
                self._admissibility(ns, rnd, rng, design, loaded.certificate)
                continue
            seq, err = rnd.attempt(
                "search",
                ns.find_admissible_sequence,
                design,
                node_budget=SEQUENCE_BUDGET,
                expected_error=ns.BudgetExceededError if group == "certified" else None,
            )
            if err is not None:
                continue
            if group == "sequenceable":
                if seq is None:
                    raise checker.CheckError(f"{path.name}: no sequence found for a sequenceable design")
                checker.check_admissible(n, design.blocks, seq)
            elif seq is not None:
                raise checker.CheckError(f"{path.name}: a sequence {seq} returned for a certified design")
        return rnd

    @staticmethod
    def _admissibility(ns, rnd: Round, rng: random.Random, design, certificate) -> None:
        # One permutation per last point: the check's cost depends only on
        # the last point, so covering each once makes a round's cost fixed.
        n = design.n
        for last in range(n):
            seq = [p for p in range(n) if p != last]
            rng.shuffle(seq)
            seq.append(last)
            verdict, err = rnd.attempt("search", _admissible_and_explained, ns, design, certificate, seq)
            if err is not None:
                continue
            admissible, why = verdict
            if admissible:
                raise checker.CheckError(f"order {n}: a certified design accepted a sequence as admissible")
            checker.check_refutation(n, design.blocks, seq, why.start, why.end, why.segment, why.apc.blocks, why.apc.missed)


def _admissible_and_explained(ns, design, certificate, seq):
    return ns.is_admissible(design, seq), ns.explain_nonsequenceable(design, certificate, seq)


WORKLOADS = {"climb": Climb(), "bulk": Bulk(), "psts": Psts(), "sequence": Sequence()}
