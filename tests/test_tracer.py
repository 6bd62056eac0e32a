"""The benchmark's tracer still finds every function it wraps.

``perfbench/tracer.py`` wraps package functions by module and name, so a
rename or deletion in the package would break ``perfbench/run.py --trace``
only when the benchmark runs.  Loading the tracer by path here makes such
a refactor fail the test suite instead.
"""

import importlib.util
from pathlib import Path

import nonseq_sts
from nonseq_sts import Design

from reference_systems import STS7_BLOCKS

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wraps_every_listed_function_and_restores_it(tmp_path):
    tracer = load_tracer_module().Tracer()
    try:
        tracer.install()
        wrapped = list(tracer._undo)
        cd = nonseq_sts.certified_sts(37)  # looked up after install, so it is the wrapper
        doc = nonseq_sts.DesignDocument(cd.design, certificate=cd.certificate, provenance=cd.provenance)
        doc.save(tmp_path / "sts-37.json")
        assert nonseq_sts.DesignDocument.load(tmp_path / "sts-37.json") == doc
        # The searches reach their traced entry points too.
        d13 = nonseq_sts.base_case(13).design
        nonseq_sts.certify_nonsequenceable(d13)
        assert not nonseq_sts.is_admissible(d13, range(13))
        assert nonseq_sts.find_admissible_sequence(Design.from_blocks(7, STS7_BLOCKS)) is not None
        # A composed build validates no GDD of its own; a direct build_gdd does.
        nonseq_sts.build_gdd(nonseq_sts.GddRequest(nonseq_sts.GroupType.of((12, 3))))
        metrics = tracer.layer_metrics()
    finally:
        tracer.uninstall()
    assert metrics["designs.from_blocks_s"] > 0
    assert metrics["constructions.certified_sts.self_s"] > 0
    # The validator and verifier layers still reach their traced entry
    # points.  A starter's flat certificate is checked one entry at a time
    # (13 entries, twice: order 37's fill and the test's own order 13); the
    # composed certificate of order 37 is checked as its structure.
    assert metrics["designs.validate_sts_s"] > 0
    assert metrics["designs.validate_gdd_s"] > 0
    assert metrics["designs.verify_certificate_s"] > 0
    assert metrics["designs.verify_apc.calls"] == 26
    # Documents are written and read through the traced methods.
    assert metrics["documents.save_s"] > 0
    assert metrics["documents.load_s"] > 0
    assert metrics["exact_cover.find_apc.calls"] > 0
    assert metrics["sequencing.is_admissible_s"] > 0
    assert metrics["exact_cover.mask_partitionable.calls"] > 0
    for owner, attr, original in wrapped:
        assert vars(owner)[attr] is original, (owner, attr)



def test_a_build_given_cache_dir_loads_and_saves_nothing(tmp_path):
    """Order 67 is 12^5 with a 7-point hole: each build inflates its GDD
    once and neither reads nor writes a document, whatever ``cache_dir``
    names."""
    tracer = load_tracer_module().Tracer()
    try:
        tracer.install()
        first = nonseq_sts.certified_sts(67, cache_dir=tmp_path)
        assert nonseq_sts.certified_sts(67, cache_dir=tmp_path) == first
        names = [span[0] for span in tracer.spans]
    finally:
        tracer.uninstall()
    assert names.count("constructions.certified_sts") == 2
    assert names.count("gdd.inflate") == 2 and "gdd.build_gdd" not in names
    assert "documents.load" not in names and "documents.save" not in names
    assert list(tmp_path.iterdir()) == []
