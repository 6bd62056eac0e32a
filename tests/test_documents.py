"""JSON round trips and structural validation of documents."""

import gc
import json
import re
import threading
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from pathlib import Path

from nonseq_sts import (
    ComposedEntries,
    DesignDocument,
    DocumentError,
    base_case,
    certified_psts,
    certified_sts,
    validate_sts,
    verify_certificate,
)
from nonseq_sts import designs
from nonseq_sts import documents as documents_module
from nonseq_sts.designs import AlmostParallelClass, Design, NonseqCertificate
from nonseq_sts.documents import _read_block

from oracles import document_dict_plainly, document_lines_by_dumps, read_block_plainly


@pytest.fixture()
def doc13():
    cd = base_case(13)
    return DesignDocument(cd.design, certificate=cd.certificate, provenance=cd.provenance)


def test_round_trip_is_lossless(tmp_path, doc13):
    path = tmp_path / "sts-13.json"
    doc13.save(path)
    loaded = DesignDocument.load(path)
    assert loaded == doc13
    # and a second cycle is byte-stable
    path2 = tmp_path / "again.json"
    loaded.save(path2)
    assert path.read_text() == path2.read_text()


def test_labels_round_trip(tmp_path):
    d = Design.from_blocks(3, [(0, 1, 2)])
    doc = DesignDocument(d, labels=("a", "b", "c"), provenance="manual")
    path = tmp_path / "labeled.json"
    doc.save(path)
    assert DesignDocument.load(path) == doc


def test_repeated_block_round_trips(tmp_path, doc13):
    # a broken design must reach the validators as it is, not with its
    # repeats silently merged
    doc13.design = Design.from_blocks(13, doc13.design.blocks + doc13.design.blocks[:1])
    path = tmp_path / "repeated.json"
    doc13.save(path)
    assert len(json.loads(path.read_text())["blocks"]) == 27
    loaded = DesignDocument.load(path)
    assert loaded.design.size == 27
    assert loaded == doc13


def test_save_replaces_the_target(tmp_path, doc13):
    path = tmp_path / "sts-13.json"
    path.write_text("an older, longer document " * 1000)
    doc13.save(path)
    assert DesignDocument.load(path) == doc13
    assert [p.name for p in tmp_path.iterdir()] == ["sts-13.json"]


def test_save_onto_a_directory_leaves_nothing_behind(tmp_path, doc13):
    target = tmp_path / "out"
    target.mkdir()
    with pytest.raises(OSError):
        doc13.save(target)
    assert [p.name for p in tmp_path.iterdir()] == ["out"]
    assert list(target.iterdir()) == []


@pytest.mark.parametrize(
    "bad",
    [DesignDocument(Design(3, ((0, 1, 2),)), provenance=object())],  # fails after the blocks are written
    ids=["unencodable-provenance"],
)
def test_failed_save_keeps_the_target(tmp_path, doc13, bad):
    path = tmp_path / "sts-13.json"
    doc13.save(path)
    before = path.read_bytes()
    with pytest.raises(TypeError):
        bad.save(path)
    assert path.read_bytes() == before
    assert [p.name for p in tmp_path.iterdir()] == ["sts-13.json"]


@st.composite
def documents(draw):
    """Small documents, not necessarily valid designs: any order from 0 and
    any triples, repeats allowed, with or without labels and a
    certificate."""
    n = draw(st.integers(0, 9))

    def triples(max_size):
        triple = st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True)
        return st.lists(triple, max_size=max_size) if n >= 3 else st.just([])

    design = Design.from_blocks(n, draw(triples(15)))
    labels = draw(st.none() | st.lists(st.text(max_size=3), min_size=n, max_size=n).map(tuple))
    certificate = None
    if draw(st.booleans()):
        entries = {}
        for missed in draw(st.sets(st.integers(0, n - 1)) if n else st.just(set())):
            blocks = draw(triples(4))
            entries[missed] = AlmostParallelClass.from_blocks(blocks, missed)
        certificate = NonseqCertificate(entries)
    return DesignDocument(design, labels, certificate, draw(st.text(max_size=10)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(documents())
def test_save_load_round_trip(tmp_path_factory, doc):
    tmp = tmp_path_factory.mktemp("docs")
    doc.save(tmp / "a.json")
    assert json.loads((tmp / "a.json").read_text()) == doc.to_dict()
    loaded = DesignDocument.load(tmp / "a.json")
    assert loaded == doc
    loaded.save(tmp / "b.json")
    assert (tmp / "a.json").read_bytes() == (tmp / "b.json").read_bytes()
    # older versions wrote what json.dump writes at indent 1, plus a newline
    indented = "".join(json.JSONEncoder(indent=1).iterencode(doc.to_dict())) + "\n"
    (tmp / "c.json").write_text(indented)
    assert DesignDocument.load(tmp / "c.json") == doc


# Labels and provenance with the characters JSON escapes: non-ASCII,
# lone surrogates, quotes, backslashes and newlines.
ESCAPED_TEXT = st.text(alphabet=st.sampled_from('ab"\\\n\té日\ud800\udfff'), max_size=4)

@st.composite
def documents_to_write(draw):
    """Documents of every shape ``save`` may meet: blocks as ``from_blocks``
    makes them, sorted triples in any order, repeats allowed, or none;
    labels absent or escaped; a certificate absent, or with classes that
    are empty or hold unsorted blocks."""
    n = draw(st.integers(0, 9))
    shape = draw(st.sampled_from(["from_blocks", "any-order", "empty"]))
    triple = st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True)
    if shape == "from_blocks" and n >= 3:
        design = Design.from_blocks(n, draw(st.lists(triple, max_size=12)))
    elif shape == "any-order" and n >= 3:
        design = Design(n, tuple(draw(st.lists(triple.map(sorted).map(tuple), max_size=12))))
    else:
        design = Design(n, ())
    labels = draw(st.none() | st.lists(ESCAPED_TEXT, min_size=n, max_size=n).map(tuple))
    certificate = None
    if draw(st.booleans()):
        triple = st.lists(st.integers(0, 9), min_size=3, max_size=3, unique=True).map(tuple)
        entries = {}
        for missed in draw(st.sets(st.integers(0, 9), max_size=4)):
            entries[missed] = AlmostParallelClass(frozenset(draw(st.lists(triple, max_size=3))), missed)
        certificate = NonseqCertificate(entries)
    return DesignDocument(design, labels, certificate, draw(ESCAPED_TEXT))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(documents_to_write())
def test_save_writes_json_dumps_per_element(tmp_path_factory, doc):
    """The streamed bytes are those of ``json.dumps`` on each element of
    the whole dict, and ``to_dict`` is that dict."""
    path = tmp_path_factory.mktemp("docs") / "doc.json"
    plain = document_dict_plainly(doc)
    assert doc.to_dict() == plain
    doc.save(path)
    assert path.read_bytes() == "".join(document_lines_by_dumps(plain)).encode("utf-8")


@pytest.fixture(scope="module")
def doc253():
    cd = certified_sts(253, seed=0)
    return DesignDocument(cd.design, certificate=cd.certificate, provenance=cd.provenance)


def traced_peak(fn, *args) -> int:
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_save_streams_without_the_dict(tmp_path, doc253):
    """Saving an order-253 document never holds what ``to_dict`` builds: its
    allocation peak stays under a quarter of ``to_dict``'s."""
    path = tmp_path / "sts-253.json"
    save_peak = traced_peak(doc253.save, path)
    dict_peak = traced_peak(doc253.to_dict)
    assert save_peak < dict_peak / 4, (save_peak, dict_peak)
    assert json.loads(path.read_text()) == doc253.to_dict()


def test_a_load_runs_no_collection(tmp_path, doc253):
    """The order-253 load allocates tens of thousands of lists and tuples
    with the collector paused, so no collection runs (unpaused, about 85
    gen-0 and 7 gen-1 collections run), and the loaded document is the
    saved one."""
    path = tmp_path / "sts-253.json"
    doc253.save(path)
    started = []

    def count(phase, info):
        if phase == "start":
            started.append(info["generation"])

    assert gc.isenabled()
    gc.callbacks.append(count)
    try:
        loaded = DesignDocument.load(path)
        during_load = len(started)  # allocates nothing the collector tracks
        DesignDocument.from_dict(documents_module.read_json(path))
    finally:
        gc.callbacks.remove(count)
    assert during_load == 0
    assert len(started) > 1, "the same reads unpaused run collections"
    assert loaded == doc253


def _write_bad_block(doc, path):
    raw = doc.to_dict()
    raw["blocks"][0] = [0, 0, 1]
    path.write_text(json.dumps(raw))


LOADS = {
    "valid": (DesignDocument.save, None),
    "not JSON": (lambda doc, path: path.write_text("{not JSON"), DocumentError),
    "bad block": (_write_bad_block, DocumentError),
    "missing": (lambda doc, path: None, OSError),
}


@pytest.mark.parametrize("enabled", [True, False], ids=["enabled", "disabled"])
@pytest.mark.parametrize("load", sorted(LOADS))
def test_load_leaves_the_collector_as_it_found_it(tmp_path, doc13, enabled, load):
    write, error = LOADS[load]
    path = tmp_path / "doc.json"
    write(doc13, path)
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if error is None:
            assert DesignDocument.load(path) == doc13
        else:
            with pytest.raises(error):
                DesignDocument.load(path)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


@pytest.mark.parametrize("pauser_ends_first", [True, False])
def test_overlapping_loads_leave_the_collector_enabled(tmp_path, monkeypatch, doc13, pauser_ends_first):
    """Two threads' loads overlap inside ``read_json``.  The first pauses the
    collector, the second finds it paused; whichever ends first, the
    collector is enabled once both have returned."""
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    entered = {path: threading.Event() for path in paths}
    release = {path: threading.Event() for path in paths}
    read_json = documents_module.read_json

    def waiting_read_json(path):
        entered[path].set()
        assert release[path].wait(10)
        return read_json(path)

    loaded = {}

    def load(path):
        loaded[path] = DesignDocument.load(path)

    for path in paths:
        doc13.save(path)
    monkeypatch.setattr(documents_module, "read_json", waiting_read_json)
    threads = {path: threading.Thread(target=load, args=(path,)) for path in paths}
    assert gc.isenabled()
    try:
        for path in paths:
            threads[path].start()
            assert entered[path].wait(10)
        assert not gc.isenabled()
        for path in paths if pauser_ends_first else paths[::-1]:
            release[path].set()
            threads[path].join(10)
            assert not threads[path].is_alive()
            # only the load that paused the collector enables it again
            assert gc.isenabled() is (path == paths[0] or len(loaded) == 2)
    finally:
        for event in release.values():
            event.set()
    assert gc.isenabled()
    assert loaded == {path: doc13 for path in paths}


def test_block_shape_is_checked_once_per_design(tmp_path, monkeypatch):
    """The block rule is checked once per design, when it is made; the
    validators, ``block_set``, the certificate check and the save check
    nothing again."""
    cd = base_case(13)
    calls = []
    check = designs._sorted_int_triples
    monkeypatch.setattr(designs, "_sorted_int_triples", lambda blocks: calls.append(blocks) or check(blocks))
    for copy in range(2):
        d = Design(cd.design.n, cd.design.blocks)
        for _ in range(2):
            assert validate_sts(d)
            assert d.block_set == cd.design.block_set
            assert verify_certificate(d, cd.certificate)
            DesignDocument(d, certificate=cd.certificate).save(tmp_path / "sts-13.json")
        assert len(calls) == copy + 1
    assert calls == [cd.design.blocks, cd.design.blocks]


def test_one_line_per_block_and_certificate_entry(tmp_path, doc13):
    path = tmp_path / "sts-13.json"
    doc13.save(path)
    lines = path.read_text().splitlines()
    elements = [line for line in lines if line.startswith(("[", '{"'))]
    raw = doc13.to_dict()
    assert [json.loads(line.rstrip(",")) for line in elements] == raw["blocks"] + raw["certificate"]
    assert [line for line in lines if line not in elements] == [
        "{",
        '"schema": 1,',
        '"n": 13,',
        '"blocks": [',
        "],",
        '"certificate": [',
        "],",
        '"provenance": "base-case(13)"',
        "}",
    ]


def test_blocks_stored_sorted(tmp_path, doc13):
    path = tmp_path / "x.json"
    doc13.save(path)
    raw = json.loads(path.read_text())
    assert raw["schema"] == 1
    assert raw["blocks"] == sorted(raw["blocks"])
    assert all(blk == sorted(blk) for blk in raw["blocks"])


@pytest.mark.parametrize(
    "mutate",
    [
        lambda d: d.update(schema=2),
        lambda d: d.update(n="thirteen"),
        lambda d: d.update(blocks=[[0, 1]]),
        lambda d: d.update(blocks=[[0, 1, 99]]),
        lambda d: d.update(labels=["a"]),
        lambda d: d.update(certificate=[{"missed": 99, "blocks": []}]),
        lambda d: d.update(certificate=[{"blocks": []}]),
        lambda d: d.pop("blocks"),
        # JSON true loads as a bool, which Python counts as the integer 1
        lambda d: d.update(n=True, blocks=[], certificate=[]),
        lambda d: d["certificate"][1].update(missed=True),
        lambda d: d["blocks"].append([True, 0, 2]),
        lambda d: d.update(schema=True),
        lambda d: d.update(schema=1.0),
        # a set would fold the repeat away
        lambda d: d["certificate"][0]["blocks"].append(d["certificate"][0]["blocks"][0]),
    ],
)
def test_structural_errors(doc13, mutate):
    raw = doc13.to_dict()
    mutate(raw)
    with pytest.raises(DocumentError):
        DesignDocument.from_dict(raw)


def test_duplicate_certificate_entries_rejected(doc13):
    raw = doc13.to_dict()
    raw["certificate"].append(raw["certificate"][0])
    with pytest.raises(DocumentError, match="duplicate"):
        DesignDocument.from_dict(raw)


def test_a_block_listed_twice_in_an_entry_is_named(doc13):
    raw = doc13.to_dict()
    entry = raw["certificate"][3]
    repeated = entry["blocks"][2]
    entry["blocks"].insert(0, repeated)
    with pytest.raises(DocumentError) as info:
        DesignDocument.from_dict(raw)
    assert str(info.value) == f"certificate entry for point 3 lists block {repeated} twice"


MALFORMED_FILES = {
    "truncated": b'{"schema": 1, "n": 13',
    # a UTF-16 byte order mark: the bytes are not UTF-8
    "undecodable": b"\xff\xfe" + '{"schema": 1}'.encode("utf-16-le"),
    # nested past the JSON decoder's recursion limit
    "deeply nested": b"[" * 100000 + b"]" * 100000,
}


@pytest.mark.parametrize("name", sorted(MALFORMED_FILES))
def test_malformed_file_is_a_document_error(tmp_path, name):
    path = tmp_path / "broken.json"
    path.write_bytes(MALFORMED_FILES[name])
    with pytest.raises(DocumentError, match="not valid JSON"):
        DesignDocument.load(path)


def fano_document() -> dict:
    """A small valid document that uses every field."""
    blocks = [(0, 1, 3), (1, 2, 4), (2, 3, 5), (3, 4, 6), (0, 4, 5), (1, 5, 6), (0, 2, 6)]
    certificate = NonseqCertificate({0: AlmostParallelClass.from_blocks([(1, 2, 4), (3, 5, 6)], 0)})
    doc = DesignDocument(Design.from_blocks(7, blocks), tuple("abcdefg"), certificate, "fano")
    return doc.to_dict()


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=8,
)


block_members = (
    st.integers(-2, 10)
    | st.integers()
    | st.booleans()
    | st.sampled_from([0.0, 1.0, 2.5, float("nan")])
    | st.text(max_size=2)
    | st.lists(st.integers(0, 3), max_size=3)
    | st.none()
)


def block_values(n: int):
    """Values to read as a block of order n: a valid block, 3 integers in
    -1..n (often a repeat or just out of range), or any short list or JSON
    value."""
    near = st.lists(st.integers(-1, n), min_size=3, max_size=3)
    valid = st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True) if n >= 3 else near
    return st.one_of(valid, near, st.lists(block_members, max_size=4), json_values)


@st.composite
def blocks_to_read(draw):
    """An order n and a value to read as one of its blocks."""
    n = draw(st.integers(0, 9))
    return n, draw(block_values(n))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(blocks_to_read())
def test_block_reader_matches_the_plain_reader(drawn):
    n, blk = drawn
    try:
        expected = read_block_plainly(blk, n)
    except DocumentError as exc:
        with pytest.raises(DocumentError) as raised:
            _read_block(blk, n)
        assert str(raised.value) == str(exc)
    else:
        assert _read_block(blk, n) == expected


@st.composite
def block_lists_to_read(draw):
    """An order n and a document's block list: valid blocks, sorted or
    not, most of the time, else any values ``block_values`` draws."""
    n = draw(st.integers(0, 9))
    valid = st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True) if n >= 3 else st.nothing()
    sorted_valid = valid.map(sorted)
    return n, draw(st.lists(st.one_of(sorted_valid, sorted_valid, valid, block_values(n)), max_size=6))


@settings(max_examples=500, deadline=None, derandomize=True)
@given(block_lists_to_read())
def test_blocks_load_as_the_plain_reader_reads_them(drawn):
    """``from_dict`` passes the document's block lists to the constructor
    as they are, and reads them one by one only when it refuses them: the
    document, and a certificate entry holding the same list, load the
    blocks the plain reader sorts, or raise its text for the first bad
    block."""
    n, blocks = drawn
    as_design = {"schema": 1, "n": n, "blocks": blocks}
    as_entry = {"schema": 1, "n": n, "blocks": [], "certificate": [{"missed": 0, "blocks": blocks}]}
    try:
        expected = [read_block_plainly(blk, n) for blk in blocks]
    except DocumentError as exc:
        for raw in (as_design, as_entry) if n else (as_design,):
            with pytest.raises(DocumentError) as raised:
                DesignDocument.from_dict(raw)
            assert str(raised.value) == str(exc)
        return
    assert DesignDocument.from_dict(as_design).design == Design(n, tuple(expected))
    if len(set(expected)) == len(expected) and n:
        assert DesignDocument.from_dict(as_entry).certificate.entries[0].blocks == frozenset(expected)


def test_sorted_blocks_are_checked_once_on_load(tmp_path, monkeypatch, doc13):
    """A saved document's blocks meet the constructor's column check once
    and no per-block reader, which reads only certificate blocks; blocks
    written unsorted by hand are read one by one and load sorted."""
    path = tmp_path / "sts-13.json"
    doc13.save(path)
    checked, read = [], []
    check, read_block = designs._sorted_int_triples, documents_module._read_block
    monkeypatch.setattr(designs, "_sorted_int_triples", lambda blocks: checked.append(blocks) or check(blocks))
    monkeypatch.setattr(documents_module, "_read_block", lambda blk, n: read.append(blk) or read_block(blk, n))
    assert DesignDocument.load(path) == doc13
    assert checked == [doc13.design.blocks]
    assert len(read) == sum(len(apc.blocks) for apc in doc13.certificate.entries.values())
    raw = doc13.to_dict()
    raw["blocks"] = [blk[::-1] for blk in raw["blocks"]]
    del read[:]
    assert DesignDocument.from_dict(raw) == doc13
    assert read[: len(raw["blocks"])] == raw["blocks"]


def containers(value):
    if isinstance(value, (dict, list)):
        yield value
        for child in value.values() if isinstance(value, dict) else value:
            yield from containers(child)


@st.composite
def mutated_documents(draw):
    """The Fano document after one to four drawn edits, each deleting,
    replacing or adding one entry of one of its objects or lists."""
    doc = fano_document()
    for _ in range(draw(st.integers(1, 4))):
        nodes = list(containers(doc))
        node = nodes[draw(st.integers(0, len(nodes) - 1))]
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        action = draw(st.sampled_from(["delete", "replace", "add"] if keys else ["add"]))
        if action == "add":
            if isinstance(node, dict):
                field = st.sampled_from(["schema", "n", "blocks", "labels", "certificate", "missed", "provenance"])
                node[draw(field | st.text(max_size=4))] = draw(json_values)
            else:
                node.append(draw(json_values))
        else:
            key = draw(st.sampled_from(keys))
            if action == "delete":
                del node[key]
            else:
                node[key] = draw(json_values)
    return doc


@settings(max_examples=300, deadline=None, derandomize=True)
@given(mutated_documents())
def test_mutated_dicts_load_or_raise_document_error(raw):
    try:
        DesignDocument.from_dict(raw)
    except DocumentError:
        pass


@settings(max_examples=200, deadline=None, derandomize=True)
@given(mutated_documents(), st.data())
def test_mutated_files_load_or_raise_document_error(tmp_path_factory, raw, data):
    text = json.dumps(raw).encode("utf-8")
    start = data.draw(st.integers(0, len(text)))
    stop = data.draw(st.integers(start, len(text)))
    path = tmp_path_factory.mktemp("docs") / "mutated.json"
    path.write_bytes(text[:start] + data.draw(st.binary(max_size=4)) + text[stop:])
    enabled = gc.isenabled()
    try:
        DesignDocument.load(path)
    except DocumentError:
        pass
    assert gc.isenabled() is enabled


FLAT_37 = Path(__file__).with_name("data") / "sts-37-flat.json"


def composed_doc(n=37, a=None) -> DesignDocument:
    built = certified_sts(n) if a is None else certified_psts(n, a)
    return DesignDocument(built.design, certificate=built.certificate, provenance=built.provenance)


@pytest.mark.parametrize("n,a", [(37, None), (55, None), (103, None), (67, 22)])
def test_a_composed_certificate_round_trips(tmp_path, n, a):
    """The saved text is ``to_dict()`` line by line, as the oracle writes
    it; the loaded certificate is composed and equal to the saved one."""
    doc = composed_doc(n, a)
    path = tmp_path / "composed.json"
    doc.save(path)
    text = path.read_text()
    assert json.loads(text) == doc.to_dict() == document_dict_plainly(doc)
    assert text == "".join(document_lines_by_dumps(doc.to_dict()))
    loaded = DesignDocument.load(path)
    assert type(loaded.certificate.entries) is ComposedEntries
    assert loaded == doc and verify_certificate(loaded.design, loaded.certificate)
    c = loaded.certificate.entries
    assert (c.hole, c.groups, c.parts, c.own) == (doc.certificate.entries.hole, doc.certificate.entries.groups,
                                                  doc.certificate.entries.parts, doc.certificate.entries.own)


def test_one_line_per_group_and_per_class(tmp_path):
    composed_doc().save(tmp_path / "sts-37.json")
    lines = (tmp_path / "sts-37.json").read_text().splitlines()
    start = lines.index('"certificate": {')
    assert lines[start + 1 : start + 5] == ['"hole": [', "36", "],", '"groups": [']
    assert [line.startswith('{"points": ') for line in lines[start + 5 : start + 8]] == [True] * 3
    assert lines[start + 8 : start + 10] == ["],", '"classes": [']
    assert [line.startswith('{"missed": ') for line in lines[start + 10 : start + 47]] == [True] * 37
    assert lines[start + 47 :] == ["]", "},", '"provenance": "gdd-fill(n=37, type=3:12^3)"', "}"]


def test_starter_certificates_stay_flat(doc13):
    assert isinstance(doc13.to_dict()["certificate"], list)


def test_a_flat_document_of_a_composed_order_loads_and_verifies():
    """An order-37 document whose certificate lists every class in full, as
    written before composed certificates had their own form."""
    loaded = DesignDocument.load(FLAT_37)
    built = certified_sts(37)
    assert type(loaded.certificate.entries) is dict
    assert verify_certificate(loaded.design, loaded.certificate)
    assert loaded.design == built.design and loaded.certificate == built.certificate


COMPOSED_FAULTS = {
    "not an object or list": (lambda c: "composed", "'certificate' must be a list"),
    "no hole": (lambda c: c.pop("hole"), "'hole' must be a list"),
    "hole point outside": (lambda c: c.update(hole=[37]), "certificate points must be ints in 0..36"),
    "hole point a bool": (lambda c: c.update(hole=[True]), "certificate points must be ints in 0..36"),
    "groups not a list": (lambda c: c.update(groups={}), "'groups' must be a list"),
    "group not an object": (lambda c: c["groups"].append([0, 1]), "certificate groups must be objects"),
    "group points not ints": (lambda c: c["groups"][0]["points"].append("1"), "certificate points must be ints in 0..36"),
    "no part": (lambda c: c["groups"][1].pop("part"), "'part' must be a list"),
    "part block malformed": (lambda c: c["groups"][1]["part"].append([0, 1]), "must be a list of 3 integers"),
    "part block repeated": (
        lambda c: c["groups"][2]["part"].append(c["groups"][2]["part"][0]),
        "certificate group 2 lists block [24, 29, 35] twice",
    ),
    "no classes": (lambda c: c.pop("classes"), "'classes' must be a list"),
    "class without missed": (lambda c: c["classes"][0].pop("missed"), "integer 'missed'"),
    "class missed outside": (lambda c: c["classes"][0].update(missed=40), "misses point 40, outside 0..36"),
    "class repeated": (lambda c: c["classes"].append(c["classes"][3]), "duplicate certificate entry for point 3"),
    "class group missing": (lambda c: c["classes"][4].pop("group"), "class for point 4 names no group: None"),
    "class group outside": (lambda c: c["classes"][4].update(group=3), "class for point 4 names no group: 3"),
    "class group a bool": (lambda c: c["classes"][4].update(group=False), "class for point 4 names no group: False"),
    "class block repeated": (
        lambda c: c["classes"][5]["blocks"].append(c["classes"][5]["blocks"][1]),
        "certificate entry for point 5 lists block",
    ),
}


@pytest.mark.parametrize("fault", sorted(COMPOSED_FAULTS))
def test_malformed_composed_fields_are_document_errors(fault):
    raw = composed_doc().to_dict()
    mutate, message = COMPOSED_FAULTS[fault]
    replaced = mutate(raw["certificate"])
    if fault == "not an object or list":
        raw["certificate"] = replaced
    with pytest.raises(DocumentError, match=re.escape(message)):
        DesignDocument.from_dict(raw)
