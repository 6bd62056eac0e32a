"""JSON interchange for designs and their certificates.

Schema (version 1):

    {
      "schema": 1,
      "n": 13,
      "blocks": [[0, 1, 4], ...],          # sorted, diff-friendly, repeats kept
      "labels": ["a", "b", ...],           # optional, one per point
      "certificate": [                     # optional
        {"missed": 0, "blocks": [[1, 6, 12], ...]},
        ...
      ],
      "provenance": "base-case(13)"
    }

``DesignDocument._fields`` is the one statement of this layout: the field
order, the optional fields left out, and each list field's elements.
``to_dict`` collects it into a dict.  ``save`` streams it as one line per
scalar field and one per element of each list field (block, label,
certificate entry), an empty list written ``[]`` on its key's line.  The
lines come straight from the design and the certificate, never through
``to_dict``: blocks, which ``Design`` holds as sorted ``int`` triples,
are written by one format string over the sorted block tuples, the text
``json.dumps`` writes; any other line, a certificate entry too, is one
``json.dumps``.  Indented files from older versions load the same.

Loading performs structural validation only (shapes, ranges, types, by
the rule ``Design`` enforces); semantic validation is the verifiers' job so
that a broken design can be loaded and then reported on; a certificate
entry that lists a block twice is refused, as it would otherwise fold
away.  Every JSON file is read by ``read_json`` and written by
``replace_file``.  ``load`` pauses the cyclic garbage collector: the
lists and tuples it allocates hold no cycles, yet at order 493 they set off
about 350 collections per load.
"""

from __future__ import annotations

import gc
import json
import os
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Iterable, Iterator, NamedTuple, Optional

from .designs import AlmostParallelClass, Design, NonseqCertificate

SCHEMA_VERSION = 1


class DocumentError(ValueError):
    """The file is not a well-formed design document."""


# One block's line: ``%d`` writes an exact int as ``json.dumps`` does.
_BLOCK_LINE = "[%d, %d, %d]".__mod__


class _ListField(NamedTuple):
    """A list field: its elements in file order, made lazily, the encoder
    of one element's line, and what ``to_dict`` holds for one element
    (the element itself when None)."""

    elements: Iterable
    encode: Callable[[Any], str] = json.dumps
    plain: Optional[Callable[[Any], Any]] = None


@dataclass
class DesignDocument:
    design: Design
    labels: Optional[tuple[str, ...]] = None
    certificate: Optional[NonseqCertificate] = None
    provenance: str = ""

    def _fields(self) -> Iterator[tuple[str, Any]]:
        """The document's fields in schema order, as (key, value) pairs;
        ``labels`` and ``certificate`` are left out when None, and kept
        when empty.  A list field's value is a ``_ListField``: blocks
        sorted, certificate entries by missed point and each class's
        blocks sorted."""
        yield "schema", SCHEMA_VERSION
        yield "n", self.design.n
        yield "blocks", _ListField(sorted(self.design.blocks), _BLOCK_LINE, list)
        if self.labels is not None:
            yield "labels", _ListField(self.labels)
        if self.certificate is not None:
            entries = sorted(self.certificate.entries.items())
            yield "certificate", _ListField(
                {"missed": missed, "blocks": [list(blk) for blk in sorted(apc.blocks)]} for missed, apc in entries
            )
        yield "provenance", self.provenance

    def to_dict(self) -> dict:
        """The document as the JSON value ``save`` writes: ``_fields``
        collected, each list field into a list of plain elements."""
        doc = {}
        for key, value in self._fields():
            if isinstance(value, _ListField):
                value = list(value.elements if value.plain is None else map(value.plain, value.elements))
            doc[key] = value
        return doc

    @classmethod
    def from_dict(cls, doc: dict) -> "DesignDocument":
        if not isinstance(doc, dict):
            raise DocumentError("document must be a JSON object")
        # ``type(x) is int`` throughout: JSON true/false load as bool, an int
        # subclass, and 1.0 compares equal to 1.
        schema = doc.get("schema")
        if type(schema) is not int or schema != SCHEMA_VERSION:
            raise DocumentError(f"unsupported schema version {schema!r}")
        n = doc.get("n")
        if type(n) is not int or n < 0:
            raise DocumentError(f"'n' must be a nonnegative integer, got {n!r}")
        design = _read_design(n, _read_list(doc, "blocks"))

        labels = None
        if "labels" in doc:
            raw = doc["labels"]
            if not isinstance(raw, list) or len(raw) != n or not all(isinstance(s, str) for s in raw):
                raise DocumentError("'labels' must be a list of n strings")
            labels = tuple(raw)

        certificate = None
        if "certificate" in doc:
            entries = {}
            for entry in _read_list(doc, "certificate"):
                if not isinstance(entry, dict) or type(entry.get("missed")) is not int:
                    raise DocumentError("certificate entries need an integer 'missed'")
                missed = entry["missed"]
                if not 0 <= missed < n:
                    raise DocumentError(f"certificate entry misses point {missed}, outside 0..{n - 1}")
                if missed in entries:
                    raise DocumentError(f"duplicate certificate entry for point {missed}")
                listed = [_read_block(blk, n) for blk in _read_list(entry, "blocks")]
                blocks = frozenset(listed)
                if len(blocks) != len(listed):  # refused, not folded away: no silent repair
                    repeat = next(blk for blk, count in Counter(listed).items() if count > 1)
                    raise DocumentError(f"certificate entry for point {missed} lists block {list(repeat)} twice")
                entries[missed] = AlmostParallelClass(blocks, missed)
            certificate = NonseqCertificate(entries)

        provenance = doc.get("provenance", "")
        if not isinstance(provenance, str):
            raise DocumentError("'provenance' must be a string")
        return cls(design, labels, certificate, provenance)

    def save(self, path: os.PathLike | str) -> None:
        """Write the document as JSON, one line per scalar field and per
        block, label and certificate entry, streamed from ``_fields``
        through ``replace_file``: neither the text nor ``to_dict()`` is ever
        whole in memory, each certificate entry's dict is dropped once its
        line is written, and a rewrite is atomic.  The bytes are those of
        ``json.dumps`` on each element of ``to_dict()``."""
        replace_file(path, _document_lines(self._fields()))

    @classmethod
    def load(cls, path: os.PathLike | str) -> "DesignDocument":
        """The document in the file at ``path``, read with the cyclic
        collector paused: the loaded lists and tuples hold no cycles, yet
        unpaused the seed-0 order-493 load runs about 320 gen-0, 30 gen-1
        and 2 full collections (85 and 7 at order 253).  Only a pause this
        load made is undone; the pause is process-wide, so a
        ``gc.disable()`` made by another thread during a load is undone
        when the load ends."""
        paused = gc.isenabled()
        gc.disable()
        try:
            return cls.from_dict(read_json(path))
        finally:
            if paused:
                gc.enable()


def read_json(path: os.PathLike | str):
    """The JSON value in the file at ``path``.  A file that is not UTF-8,
    not JSON, or nested too deeply to decode is a DocumentError."""
    try:
        return json.loads(Path(path).read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:
        raise DocumentError(f"not valid JSON: {exc}") from exc


def replace_file(path: os.PathLike | str, chunks: Iterable[str]) -> None:
    """Write ``chunks`` into a file beside ``path``, then replace ``path`` with
    it.  On any failure that file is removed and ``path`` is untouched; an
    ``OSError`` is re-raised naming ``path``, the file the caller knows."""
    tmp = Path(path).with_suffix(f".tmp{os.getpid()}")
    try:
        with tmp.open("w", encoding="utf-8") as fh:
            fh.writelines(chunks)
        os.replace(tmp, path)
    except BaseException as exc:
        tmp.unlink(missing_ok=True)
        if isinstance(exc, OSError) and exc.errno is not None:
            raise type(exc)(exc.errno, exc.strerror, os.fspath(path)) from exc
        raise


def _document_lines(fields: Iterable[tuple[str, Any]]) -> Iterator[str]:
    """The JSON text of ``fields``, a line at a time: one per scalar field
    and one per element of a list field, an empty list on its key's line."""
    sep = "{\n"
    for key, value in fields:
        head = f"{sep}{json.dumps(key)}: "
        if isinstance(value, _ListField):
            lines = map(value.encode, value.elements)
            first = next(lines, None)
            if first is None:
                yield head + "[]"
            else:
                yield head + "[\n" + first
                yield from map(",\n".__add__, lines)
                yield "\n]"
        else:
            yield head + json.dumps(value)
        sep = ",\n"
    yield "\n}\n"


def _read_list(doc: dict, key: str) -> list:
    value = doc.get(key)
    if not isinstance(value, list):
        raise DocumentError(f"'{key}' must be a list")
    return value


def _read_design(n: int, blocks: list) -> Design:
    """The design of a document's block lists, checked as they are by the
    ``Design`` constructor; only when it refuses them (an unsorted block
    written by hand, say) does ``_read_block`` sort them or name the fault."""
    if set(map(type, blocks)) <= {list}:
        try:
            return Design(n, tuple(map(tuple, blocks)))
        except ValueError:
            pass
    return Design(n, tuple(_read_block(blk, n) for blk in blocks))


def _read_block(blk, n: int) -> tuple[int, int, int]:
    # Unpack and sort by compares.
    a, b, c = blk if isinstance(blk, list) and len(blk) == 3 else (None, None, None)
    if type(a) is not int or type(b) is not int or type(c) is not int:
        raise DocumentError(f"block {blk!r} must be a list of 3 integers")
    if a > b:
        a, b = b, a
    if b > c:
        b, c = c, b
    if a > b:
        a, b = b, a
    if a == b or b == c or a < 0 or c >= n:
        raise DocumentError(f"block {blk!r} must have 3 distinct points in 0..{n - 1}")
    return a, b, c
