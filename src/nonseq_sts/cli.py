"""Command-line interface: build, verify, sequence, certify, catalog.

stdout is machine-parseable, one ``KEY: value`` per line; human-facing
errors go to stderr.  Exit codes are stable: 0 success, 1 a check failed,
2 malformed input, invalid arguments or an unusable path (decided in
``main`` alone), 3 no admissible sequence exists, 4 search budget exhausted.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path
from typing import Optional

from .constructions import certified_psts, certified_sts
from .designs import validate_psts, validate_sts, verify_certificate
from .documents import DesignDocument
from .exact_cover import BudgetExceededError
from .sequencing import (
    CertificationError,
    SegmentPolicy,
    certify_nonsequenceable,
    find_admissible_sequence,
)

CACHE_ENV = "NONSEQ_STS_CACHE"


def _default_cache_dir() -> Path:
    return Path(os.environ.get(CACHE_ENV) or Path.home() / ".cache" / "nonseq-sts")


def _emit(key: str, value) -> None:
    print(f"{key}: {value}")


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


def cmd_build(args: argparse.Namespace) -> int:
    try:
        if args.a is None:
            built = certified_sts(args.n, seed=args.seed, cache_dir=args.cache_dir)
        else:
            built = certified_psts(args.n, args.a, x0=args.x0, seed=args.seed, cache_dir=args.cache_dir)
    except (BudgetExceededError, CertificationError) as exc:
        return _fail(str(exc), 1)
    out = args.out
    if out is None:
        out = f"sts-{args.n}.json" if args.a is None else f"psts-{args.n}-a{args.a}.json"
    doc = DesignDocument(built.design, certificate=built.certificate, provenance=built.provenance)
    doc.save(out)
    _emit("ORDER", built.design.n)
    _emit("BLOCKS", built.design.size)
    _emit("ENTRIES", len(built.certificate))
    _emit("PROVENANCE", built.provenance)
    _emit("OUT", out)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    doc = DesignDocument.load(args.file)
    design = doc.design
    _emit("ORDER", design.n)
    _emit("BLOCKS", design.size)
    psts = validate_psts(design)
    _emit("PSTS", psts)
    sts = validate_sts(design)
    _emit("STS", "ok" if sts else f"no ({sts})")
    cert_ok = True
    if doc.certificate is None:
        _emit("CERTIFICATE", "absent")
    else:
        rep = verify_certificate(design, doc.certificate)
        cert_ok = bool(rep)
        _emit("CERTIFICATE", "ok" if rep else f"fail ({rep.detail})")
        _emit("ENTRIES", len(doc.certificate))
    ok = bool(psts) and cert_ok
    _emit("VERDICT", "pass" if ok else "fail")
    return 0 if ok else 1


def cmd_sequence(args: argparse.Namespace) -> int:
    doc = DesignDocument.load(args.file)
    try:
        seq = find_admissible_sequence(doc.design, args.policy, node_budget=args.budget)
    except BudgetExceededError:
        _emit("RESULT", "BUDGET")
        return 4
    if seq is None:
        _emit("RESULT", "NONE (exhausted)")
        return 3
    _emit("RESULT", "SEQUENCE")
    _emit("SEQUENCE", " ".join(str(p) for p in seq))
    if doc.labels:
        _emit("LABELED", " ".join(doc.labels[p] for p in seq))
    return 0


def cmd_certify(args: argparse.Namespace) -> int:
    doc = DesignDocument.load(args.file)
    psts = validate_psts(doc.design)
    if not psts:
        _emit("PSTS", psts)
        _emit("VERDICT", "fail")
        return 1
    try:
        # entries that verify are kept; only absent or invalid ones are searched
        known = doc.certificate.entries if doc.certificate is not None else None
        cert = certify_nonsequenceable(doc.design, known=known)
    except CertificationError as exc:
        _emit("MISSING", " ".join(str(p) for p in exc.missing))
        _emit("VERDICT", "fail")
        return 1
    doc.certificate = cert
    out = args.out or args.file
    doc.save(out)
    _emit("ENTRIES", len(cert))
    _emit("OUT", out)
    _emit("VERDICT", "pass")
    return 0


def cmd_catalog(args: argparse.Namespace) -> int:
    outdir = Path(args.dir)
    outdir.mkdir(parents=True, exist_ok=True)
    failures = 0
    for n in range(args.min, args.max + 1):
        if n % 6 != 1 or n < 13:
            continue
        try:
            built = certified_sts(n, seed=args.seed, cache_dir=args.cache_dir)
        except (ValueError, BudgetExceededError) as exc:
            _emit(str(n), f"fail ({exc})")
            failures += 1
            continue
        sts = validate_sts(built.design)
        path = outdir / f"sts-{n}.json"
        DesignDocument(built.design, certificate=built.certificate, provenance=built.provenance).save(path)
        _emit(str(n), f"{'ok' if sts else f'fail ({sts})'} blocks={built.design.size} entries={len(built.certificate)} file={path}")
        if not sts:
            failures += 1
    return 1 if failures else 0


def node_budget(text: str) -> int:
    """An integer of at least 0; argparse exits 2 on anything else."""
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"must be at least 0, got {text}")
    return int(text)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nonseq-sts",
        description="Construct and verify nonsequenceable (partial) Steiner triple systems.",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"GDD cache directory (default: ${CACHE_ENV} or ~/.cache/nonseq-sts)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="build a certified nonsequenceable STS(n) or PSTS(n)")
    p.add_argument("n", type=int, help="order, must be 1 (mod 6) and not 7")
    p.add_argument("--a", type=int, default=None, help="remove a blocks from one almost parallel class")
    p.add_argument("--x0", type=int, default=0, help="point whose class loses blocks (with --a)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output file (default sts-N.json / psts-N-aA.json)")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("verify", help="validate a design document and its certificate")
    p.add_argument("file")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("sequence", help="search for an admissible point sequence")
    p.add_argument("file")
    p.add_argument("--policy", choices=[pol.value for pol in SegmentPolicy], default=SegmentPolicy.ALL_INTERVALS.value)
    p.add_argument("--budget", type=node_budget, default=10**8, help="search nodes before giving up")
    p.set_defaults(func=cmd_sequence)

    p = sub.add_parser("certify", help="find a certificate for an existing design file")
    p.add_argument("file")
    p.add_argument("--out", default=None, help="write here instead of back into the input file")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("catalog", help="build and verify a whole range of orders")
    p.add_argument("--min", type=int, default=13)
    p.add_argument("--max", type=int, required=True)
    p.add_argument("--dir", required=True, help="directory for the emitted documents")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_catalog)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.cache_dir is None:
        args.cache_dir = _default_cache_dir()
    try:
        return args.func(args)
    except (OSError, ValueError) as exc:  # DocumentError is a ValueError
        return _fail(str(exc), 2)


if __name__ == "__main__":
    sys.exit(main())
