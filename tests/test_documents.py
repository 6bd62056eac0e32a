"""JSON round trips and structural validation of documents."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nonseq_sts import DesignDocument, DocumentError, base_case
from nonseq_sts.designs import AlmostParallelClass, Design, NonseqCertificate


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


@st.composite
def documents(draw):
    """Small documents, not necessarily valid designs: any triples,
    repeats allowed, with or without labels and a certificate."""
    n = draw(st.integers(3, 9))
    triple = st.lists(st.integers(0, n - 1), min_size=3, max_size=3, unique=True)
    design = Design.from_blocks(n, draw(st.lists(triple, max_size=15)))
    labels = draw(st.none() | st.lists(st.text(max_size=3), min_size=n, max_size=n).map(tuple))
    certificate = None
    if draw(st.booleans()):
        entries = {}
        for missed in draw(st.sets(st.integers(0, n - 1))):
            blocks = draw(st.lists(triple, max_size=4))
            entries[missed] = AlmostParallelClass.from_blocks(blocks, missed)
        certificate = NonseqCertificate(entries)
    return DesignDocument(design, labels, certificate, draw(st.text(max_size=10)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(documents())
def test_save_load_round_trip(tmp_path_factory, doc):
    tmp = tmp_path_factory.mktemp("docs")
    doc.save(tmp / "a.json")
    loaded = DesignDocument.load(tmp / "a.json")
    assert loaded == doc
    loaded.save(tmp / "b.json")
    assert (tmp / "a.json").read_bytes() == (tmp / "b.json").read_bytes()


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


def test_not_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{"schema": 1, "n": 13')
    with pytest.raises(DocumentError):
        DesignDocument.load(path)
