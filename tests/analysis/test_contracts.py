"""Kernel-contract checker: rules fire on seeded fixtures, repo stays clean."""

from pathlib import Path

import ast

import pytest

from repro.analysis.contracts import check_contracts, collect_kernels
from repro.analysis.runner import default_contract_files, repo_root

FIXTURES = Path(__file__).parent / "fixtures"
BAD_CONTRACT = FIXTURES / "bad_contract.py"


def _rules(findings):
    return sorted({f.rule for f in findings})


class TestSeededViolations:
    def _findings(self):
        findings, _stats = check_contracts([BAD_CONTRACT], root=repo_root())
        return findings

    def test_every_contract_rule_fires(self):
        assert _rules(self._findings()) == [
            "KC001", "KC002", "KC003", "KC004", "KC006",
        ]

    def test_missing_reference_backend(self):
        [f] = [f for f in self._findings() if f.rule == "KC001"]
        assert "fixture_fastonly" in f.message
        assert "reference" in f.message

    def test_missing_fast_backend(self):
        [f] = [f for f in self._findings() if f.rule == "KC002"]
        assert "fixture_refonly" in f.message

    def test_signature_mismatch_names_both_sites(self):
        [f] = [f for f in self._findings() if f.rule == "KC003"]
        assert "fixture_mismatch" in f.message
        assert "('scores', 'values')" in f.message
        assert "('scores', 'v')" in f.message

    def test_dense_materialization_both_forms(self):
        dense = [f for f in self._findings() if f.rule == "KC004"]
        assert len(dense) == 2
        messages = " ".join(f.message for f in dense)
        assert "zeros" in messages
        assert "toarray" in messages

    def test_private_internals_are_warnings(self):
        [f] = [f for f in self._findings() if f.rule == "KC006"]
        assert f.severity == "warning"
        assert "_scatter_cache" in f.message

    def test_findings_carry_file_and_line(self):
        for f in self._findings():
            assert f.file.endswith("bad_contract.py")
            assert f.line > 0


class TestCallFormRegistration:
    def test_call_form_counts_as_backend(self, tmp_path):
        # the repo registers nm_prune_mask via the call form — the collector
        # must resolve it or the whole repo would falsely fail KC001
        mod = tmp_path / "callform.py"
        mod.write_text(
            "from repro.core.backend import FAST, REFERENCE, register_kernel\n"
            "def my_ref(x, y):\n"
            "    return x\n"
            "register_kernel('callform_kernel', REFERENCE)(my_ref)\n"
            "@register_kernel('callform_kernel', FAST)\n"
            "def my_fast(x, y):\n"
            "    return x\n"
        )
        findings, stats = check_contracts([mod], root=tmp_path)
        assert [f for f in findings if f.rule in ("KC001", "KC002", "KC003")] == []
        assert stats["kernel_registrations"] == 2

    def test_job_class_registers_fast_and_multicore(self, tmp_path):
        # a job class's constructor, ``self`` aside, is the signature of both
        # backends it registers, and KC003 compares it with the reference's
        mod = tmp_path / "jobform.py"
        mod.write_text(
            "from repro.core.backend import REFERENCE, register_kernel\n"
            "from repro.core.jobs import register_job_kernel\n"
            "@register_kernel('job_kernel', REFERENCE)\n"
            "def job_ref(q, k, scale=None):\n"
            "    return q\n"
            "@register_job_kernel('job_kernel', dict)\n"
            "class Job:\n"
            "    def __init__(self, q, v, scale=None):\n"
            "        self.tiles = ()\n"
        )
        findings, stats = check_contracts([mod], root=tmp_path)
        assert stats["kernel_registrations"] == 3
        mismatch = [f for f in findings if f.rule == "KC003"]
        backends = sorted(f.message.split("backend ")[1].split()[0] for f in mismatch)
        assert backends == ["'fast'", "'multicore'"]
        assert all("('q', 'v', 'scale')" in f.message for f in mismatch)

    def test_syntax_error_reported_not_raised(self, tmp_path):
        bad = tmp_path / "broken.py"
        bad.write_text("def oops(:\n")
        findings, _ = check_contracts([bad], root=tmp_path)
        assert [f.rule for f in findings] == ["KC000"]


class TestRepoIsClean:
    def test_every_repo_kernel_honors_the_contract(self):
        root = repo_root()
        findings, stats = check_contracts(default_contract_files(root), root=root)
        errors = [f for f in findings if f.severity == "error"]
        assert errors == [], "\n".join(f.format() for f in errors)
        # the registry the tests exercise is fully covered by the scan
        assert stats["kernels"] == 5
        assert stats["kernel_registrations"] == 14

    @pytest.mark.parametrize("kernel", [
        "nm_attention", "nm_attention_bwd", "row_block_attention", "row_block_attention_bwd",
    ])
    def test_fused_kernels_have_all_three_backend_sites(self, kernel):
        root = repo_root()
        sites = []
        for path in default_contract_files(root):
            tree = ast.parse(path.read_text(), filename=str(path))
            sites += [i for i in collect_kernels(tree, str(path)) if i.kernel == kernel]
        assert sorted(i.backend for i in sites) == ["fast", "multicore", "reference"]
        assert len({i.params for i in sites}) == 1
