"""The frozen catalogue: one digest row per built design.

Each row of ``catalogue.txt`` is ``n a blocks certificate``: ``a`` is
``-`` for ``certified_sts(n)`` and the number of deleted blocks for
``certified_psts(n, a)``; ``blocks`` and ``certificate`` are the first 16
hex digits of the sha256 of ``design.blocks`` and of the certificate in
canonical form (entries by missed point, each entry's expanded blocks
sorted).  The objects are hashed, not a document's bytes, so the document
format can change without touching a row.

    PYTHONPATH=src python tests/catalogue.py

rewrites the table from the package as it is.  A change that alters
outputs on purpose regenerates it and names the rows that changed.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Iterable, Optional

from nonseq_sts import certified_psts, certified_sts

TABLE = Path(__file__).with_name("catalogue.txt")
ORDERS = range(13, 1010, 6)
PARTIAL = [(37, a) for a in range(13)] + [(253, 84)]


def _digest(lines: Iterable[str]) -> str:
    sha = hashlib.sha256()
    for line in lines:
        sha.update(line.encode())
    return sha.hexdigest()[:16]


def digests(n: int, a: Optional[int]) -> tuple[str, str]:
    """(blocks digest, certificate digest) of the design built for a row."""
    built = certified_sts(n) if a is None else certified_psts(n, a)
    entries = built.certificate.entries
    return (
        _digest("%d %d %d\n" % blk for blk in built.design.blocks),
        _digest(
            f"{missed}:" + "".join(" %d %d %d" % blk for blk in sorted(entries[missed].blocks)) + "\n"
            for missed in sorted(entries)
        ),
    )


def read_table() -> list[tuple[int, Optional[int], str, str]]:
    rows = []
    for line in TABLE.read_text().splitlines():
        if line and not line.startswith("#"):
            n, a, blocks, cert = line.split()
            rows.append((int(n), None if a == "-" else int(a), blocks, cert))
    return rows


def main() -> None:
    lines = ["# n a blocks certificate: regenerate with PYTHONPATH=src python tests/catalogue.py"]
    for n, a in [*((n, None) for n in ORDERS), *PARTIAL]:
        lines.append(" ".join((str(n), "-" if a is None else str(a), *digests(n, a))))
    TABLE.write_text("\n".join(lines) + "\n")


if __name__ == "__main__":
    main()
