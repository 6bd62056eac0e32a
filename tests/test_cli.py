"""End-to-end CLI behaviour: commands, exit codes, machine-parseable output."""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import nonseq_sts
from nonseq_sts import SegmentPolicy, base_case
from nonseq_sts.cli import main
from nonseq_sts.documents import DesignDocument
from nonseq_sts.designs import Design

from reference_systems import STS7_BLOCKS, STS7_LABELS


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, dict(
        line.split(": ", 1) for line in out.strip().splitlines() if ": " in line
    )


@pytest.fixture()
def sts7_file(tmp_path):
    doc = DesignDocument(Design.from_blocks(7, STS7_BLOCKS), labels=STS7_LABELS)
    path = tmp_path / "sts-7.json"
    doc.save(path)
    return path


class TestBuild:
    def test_build_13(self, capsys, tmp_path):
        out = tmp_path / "sts-13.json"
        code, kv = run_cli(capsys, "build", 13, "--out", out)
        assert code == 0
        assert kv["BLOCKS"] == "26" and kv["ENTRIES"] == "13"
        raw = json.loads(out.read_text())
        assert len(raw["blocks"]) == 26
        assert len(raw["certificate"]) == 13

    def test_build_with_removals(self, capsys, tmp_path):
        out = tmp_path / "psts.json"
        code, kv = run_cli(capsys, "build", 13, "--a", 1, "--out", out)
        assert code == 0
        assert kv["BLOCKS"] == "25"

    def test_build_names_the_seed_used(self, capsys, tmp_path, monkeypatch):
        from nonseq_sts import BudgetExceededError
        from nonseq_sts import gdd as gdd_module

        real_climb = gdd_module.hill_climb_gdd

        def climb_failing_first_seed(req, **kwargs):
            if req.seed == 2:
                raise BudgetExceededError("forced failure")
            return real_climb(req, **kwargs)

        monkeypatch.setattr(gdd_module, "hill_climb_gdd", climb_failing_first_seed)
        argv = ["--cache-dir", tmp_path / "cache", "build", 49, "--seed", 2, "--out", tmp_path / "sts-49.json"]
        expected = "gdd-fill(n=49, type=3:12^4, seed=3 (requested 2))"
        code, kv = run_cli(capsys, *argv)
        assert code == 0 and kv["PROVENANCE"] == expected
        # the second build is a cache hit and says the same
        code, kv = run_cli(capsys, *argv)
        assert code == 0 and kv["PROVENANCE"] == expected
        assert json.loads((tmp_path / "sts-49.json").read_text())["provenance"] == expected

    def test_build_with_an_unwritable_cache_exits_0(self, capsys, tmp_path):
        """The GDD of order 49 is climbed; a cache under a regular file
        cannot hold it, so the store is skipped and the design is built."""
        (tmp_path / "file").write_text("")
        argv = ["--cache-dir", tmp_path / "file" / "cache", "build", 49, "--out", tmp_path / "sts-49.json"]
        code, kv = run_cli(capsys, *argv)
        assert code == 0 and kv["PROVENANCE"] == "gdd-fill(n=49, type=3:12^4, seed=0)"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["file", "sts-49.json"]

    def test_build_7_exits_2(self, capsys, tmp_path):
        assert main(["build", "7", "--out", str(tmp_path / "x.json")]) == 2

    def test_build_bad_a_exits_2(self, capsys, tmp_path):
        assert main(["build", "13", "--a", "5", "--out", str(tmp_path / "x.json")]) == 2

    def test_rigid_removal_exits_1(self, capsys, tmp_path):
        # a=2 at order 13 cannot be certified; surfaced as a failed check
        assert main(["build", "13", "--a", "2", "--out", str(tmp_path / "x.json")]) == 1


class TestVerify:
    def test_build_then_verify(self, capsys, tmp_path):
        out = tmp_path / "sts-37.json"
        assert main(["--cache-dir", str(tmp_path / "cache"), "build", "37", "--out", str(out)]) == 0
        capsys.readouterr()
        code, kv = run_cli(capsys, "verify", out)
        assert code == 0
        assert kv["PSTS"] == "ok" and kv["STS"] == "ok"
        assert kv["CERTIFICATE"] == "ok" and kv["VERDICT"] == "pass"

    def test_partial_system_verifies(self, capsys, tmp_path):
        out = tmp_path / "psts.json"
        assert main(["build", "19", "--a", "3", "--out", str(out)]) == 0
        capsys.readouterr()
        code, kv = run_cli(capsys, "verify", out)
        assert code == 0
        assert kv["PSTS"] == "ok"
        assert kv["STS"].startswith("no")  # informational: it is a partial system
        assert kv["VERDICT"] == "pass"

    def test_tampered_certificate_names_entry(self, capsys, tmp_path):
        out = tmp_path / "sts-13.json"
        assert main(["build", "13", "--out", str(out)]) == 0
        capsys.readouterr()
        raw = json.loads(out.read_text())
        raw["certificate"][3]["blocks"][0] = [0, 1, 2]  # not a design block
        out.write_text(json.dumps(raw))
        code, kv = run_cli(capsys, "verify", out)
        assert code == 1
        missed = raw["certificate"][3]["missed"]
        assert kv["CERTIFICATE"] == f"fail (entry {missed}: (0, 1, 2) is not a block of the design)"
        assert kv["VERDICT"] == "fail"

    def test_missing_file_exits_2(self, capsys, tmp_path):
        assert main(["verify", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("command", ["verify", "certify", "sequence"])
    @pytest.mark.parametrize(
        "content",
        [
            b'{"schema": 1, "n": 13, "blo',
            b"\xff\xfe" + '{"schema": 1}'.encode("utf-16-le"),
            b"[" * 100000 + b"]" * 100000,
        ],
        ids=["truncated", "undecodable", "deeply-nested"],
    )
    def test_malformed_json_exits_2(self, capsys, tmp_path, command, content):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        assert main([command, str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["verify", "certify", "sequence"])
    @pytest.mark.parametrize("schema", [True, 1.0], ids=["true", "float"])
    def test_schema_that_is_not_the_integer_1_exits_2(self, capsys, tmp_path, command, schema):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"schema": schema, "n": 3, "blocks": [[0, 1, 2]]}))
        assert main([command, str(bad)]) == 2
        assert "unsupported schema version" in capsys.readouterr().err

    def test_broken_design_fails(self, capsys, tmp_path):
        doc = DesignDocument(Design.from_blocks(4, [(0, 1, 2), (0, 1, 3)]))
        path = tmp_path / "broken.json"
        doc.save(path)
        code, kv = run_cli(capsys, "verify", path)
        assert code == 1
        assert kv["PSTS"].startswith("repeated-pair")


class TestUnusablePaths:
    """A path that cannot be read or written is bad input: exit 2 with one
    ``error:`` line and no traceback, and no file left beside the target."""

    def check(self, capsys, tmp_path, argv, files):
        assert main([str(a) for a in argv]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err
        assert sorted(p.name for p in tmp_path.iterdir()) == files
        return err

    def test_build_onto_a_directory(self, capsys, tmp_path):
        (tmp_path / "out").mkdir()
        err = self.check(capsys, tmp_path, ["build", 13, "--out", tmp_path / "out"], ["out"])
        assert f"'{tmp_path / 'out'}'" in err and ".tmp" not in err

    def test_build_into_a_missing_directory(self, capsys, tmp_path):
        # the error names the path given, not the temporary file beside it
        err = self.check(capsys, tmp_path, ["build", 13, "--out", tmp_path / "missing" / "x.json"], [])
        assert "missing/x.json" in err and ".tmp" not in err

    def test_certify_into_a_missing_directory(self, capsys, tmp_path):
        path = tmp_path / "f.json"
        DesignDocument(base_case(13).design).save(path)
        before = path.read_bytes()
        self.check(capsys, tmp_path, ["certify", path, "--out", tmp_path / "missing" / "y.json"], ["f.json"])
        assert path.read_bytes() == before

    def test_catalog_into_a_file(self, capsys, tmp_path):
        (tmp_path / "f").write_text("")
        self.check(capsys, tmp_path, ["catalog", "--max", 13, "--dir", tmp_path / "f"], ["f"])


class TestSequence:
    def test_order7_prints_a_sequence(self, capsys, sts7_file):
        code, kv = run_cli(capsys, "sequence", sts7_file)
        assert code == 0
        seq = [int(p) for p in kv["SEQUENCE"].split()]
        assert sorted(seq) == list(range(7))
        assert kv["LABELED"].split() == [STS7_LABELS[p] for p in seq]

    def test_single_block_design_has_a_sequence(self, capsys, tmp_path):
        path = tmp_path / "one-block.json"
        DesignDocument(Design.from_blocks(4, [(0, 1, 2)])).save(path)
        code, kv = run_cli(capsys, "sequence", path)
        assert code == 0
        assert kv["SEQUENCE"] == "0 1 3 2"

    def test_long_one_block_design_has_a_sequence(self, capsys, tmp_path):
        """The search places 1100 points without nesting a call per point."""
        path = tmp_path / "one-block-1100.json"
        DesignDocument(Design.from_blocks(1100, [(0, 1, 2)])).save(path)
        code, kv = run_cli(capsys, "sequence", path)
        assert (code, kv["RESULT"]) == (0, "SEQUENCE")

    def test_budget_exit_4(self, capsys, sts7_file):
        code, kv = run_cli(capsys, "sequence", sts7_file, "--budget", 1)
        assert code == 4
        assert kv["RESULT"] == "BUDGET"

    def test_budget_0_is_valid_and_a_negative_budget_exits_2(self, capsys, sts7_file):
        code, kv = run_cli(capsys, "sequence", sts7_file, "--budget", 0)
        assert (code, kv["RESULT"]) == (4, "BUDGET")
        with pytest.raises(SystemExit) as info:
            main(["sequence", str(sts7_file), "--budget", "-5"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == "" and "--budget: must be at least 0, got -5" in captured.err

    def test_interleaving_disjoint_blocks_succeeds(self, capsys, tmp_path):
        path = tmp_path / "two-blocks.json"
        DesignDocument(Design.from_blocks(6, [(0, 1, 2), (3, 4, 5)])).save(path)
        code, kv = run_cli(capsys, "sequence", path)
        assert code == 0

    def test_exhausted_search_exits_3(self, capsys, tmp_path):
        # all four triples on 4 points: every permutation starts with a block
        path = tmp_path / "all-triples.json"
        blocks = [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)]
        DesignDocument(Design.from_blocks(4, blocks)).save(path)
        code, kv = run_cli(capsys, "sequence", path)
        assert code == 3
        assert kv["RESULT"] == "NONE (exhausted)"

    @pytest.mark.parametrize("policy", [pol.value for pol in SegmentPolicy])
    def test_certified_design_is_exhausted(self, capsys, tmp_path, policy):
        path = tmp_path / "base-13.json"
        built = base_case(13)
        DesignDocument(built.design, certificate=built.certificate).save(path)
        code, kv = run_cli(capsys, "sequence", path, "--policy", policy)
        assert code == 3
        assert kv["RESULT"] == "NONE (exhausted)"

    def test_policy_flag(self, capsys, sts7_file):
        code, kv = run_cli(capsys, "sequence", sts7_file, "--policy", "prefixes-and-suffixes")
        assert code == 0


class TestCertify:
    def test_recertify_stripped_document(self, capsys, tmp_path):
        out = tmp_path / "sts-31.json"
        assert main(["build", "31", "--out", str(out)]) == 0
        capsys.readouterr()
        raw = json.loads(out.read_text())
        del raw["certificate"]
        out.write_text(json.dumps(raw))
        code, kv = run_cli(capsys, "certify", out)
        assert code == 0
        assert kv["ENTRIES"] == "31"
        assert len(json.loads(out.read_text())["certificate"]) == 31

    @pytest.mark.parametrize(
        "damage,searched",
        [("intact", []), ("corrupt entry", [3]), ("stripped", list(range(13)))],
    )
    def test_keeps_the_documents_own_entries(self, capsys, tmp_path, monkeypatch, damage, searched):
        from nonseq_sts import sequencing

        out = tmp_path / "sts-13.json"
        assert main(["build", "13", "--out", str(out)]) == 0
        capsys.readouterr()
        raw = json.loads(out.read_text())
        if damage == "stripped":
            del raw["certificate"]
        elif damage == "corrupt entry":
            entry = next(e for e in raw["certificate"] if e["missed"] == 3)
            entry["blocks"][0] = [0, 1, 2]  # not a design block
        out.write_text(json.dumps(raw))

        real_find_apc = sequencing.find_apc
        calls = []

        def spy(d, point):
            calls.append(point)
            return real_find_apc(d, point)

        monkeypatch.setattr(sequencing, "find_apc", spy)
        code, kv = run_cli(capsys, "certify", out)
        assert code == 0 and kv["ENTRIES"] == "13"
        assert calls == searched
        code, kv = run_cli(capsys, "verify", out)
        assert code == 0 and kv["CERTIFICATE"] == "ok"

    def test_broken_design_is_not_rewritten(self, capsys, tmp_path):
        out = tmp_path / "sts-13.json"
        assert main(["build", "13", "--out", str(out)]) == 0
        capsys.readouterr()
        raw = json.loads(out.read_text())
        raw["blocks"].append(raw["blocks"][0])
        out.write_text(json.dumps(raw, indent=1))
        before = out.read_bytes()
        code, kv = run_cli(capsys, "certify", out)
        assert code == 1
        assert kv["PSTS"].startswith("repeated-pair") and kv["VERDICT"] == "fail"
        assert "OUT" not in kv
        assert out.read_bytes() == before

    def test_sparse_design_fails_without_a_search(self, capsys, tmp_path, monkeypatch):
        # 99997 of the 100000 points lie in no block, so no point can have
        # an almost parallel class, and none is searched for
        from nonseq_sts import sequencing

        calls = []
        monkeypatch.setattr(sequencing, "find_apc", lambda d, point: calls.append(point))
        path = tmp_path / "sparse.json"
        path.write_text('{"schema": 1, "n": 100000, "blocks": [[0, 1, 2]]}')
        started = time.perf_counter()
        code, kv = run_cli(capsys, "certify", path)
        assert time.perf_counter() - started < 10
        assert code == 1 and kv["VERDICT"] == "fail"
        assert kv["MISSING"] == " ".join(str(p) for p in range(100000))
        assert calls == []

    def test_order7_lists_all_points(self, capsys, sts7_file):
        code, kv = run_cli(capsys, "certify", sts7_file, "--out", str(sts7_file) + ".out")
        assert code == 1
        assert kv["MISSING"] == "0 1 2 3 4 5 6"

    def test_recertify_reduced_partial_system(self, capsys, tmp_path):
        out = tmp_path / "psts.json"
        assert main(["build", "13", "--a", "1", "--out", str(out)]) == 0
        capsys.readouterr()
        raw = json.loads(out.read_text())
        del raw["certificate"]
        out.write_text(json.dumps(raw))
        code, kv = run_cli(capsys, "certify", out)
        assert code == 0
        assert kv["ENTRIES"] == "12"


class TestCatalog:
    def test_small_range(self, capsys, tmp_path):
        code, kv = run_cli(
            capsys,
            "--cache-dir", tmp_path / "cache",
            "catalog", "--min", 13, "--max", 38, "--dir", tmp_path / "out",
        )
        assert code == 0
        assert set(kv) == {"13", "19", "25", "31", "37"}
        for n in (13, 19, 25, 31, 37):
            assert (tmp_path / "out" / f"sts-{n}.json").exists()
            assert kv[str(n)].startswith("ok")


def test_console_entry_point_smoke(tmp_path):
    """The module is runnable as a subprocess, from a checkout too: the
    subprocess imports the package from where this process found it."""
    src = str(Path(nonseq_sts.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = tmp_path / "sts-13.json"
    proc = subprocess.run(
        [sys.executable, "-m", "nonseq_sts.cli", "build", "13", "--out", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0, proc.stderr
    assert "BLOCKS: 26" in proc.stdout
    proc = subprocess.run(
        [sys.executable, "-m", "nonseq_sts.cli", "verify", str(out)],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "VERDICT: pass" in proc.stdout
