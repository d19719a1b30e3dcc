"""CLI contract: exit codes, per-finding output, machine-readable report."""

import json
from pathlib import Path

from repro.analysis.__main__ import main

FIXTURES = Path(__file__).parent / "fixtures"


class TestExitCodes:
    def test_repo_is_clean_under_strict(self, capsys):
        assert main(["--strict"]) == 0
        out = capsys.readouterr().out
        assert "0 error(s), 0 warning(s)" in out

    def test_fixtures_fail(self, capsys):
        assert main([str(FIXTURES)]) == 1

    def test_strict_promotes_warnings(self, capsys):
        # bad_contract.py alone carries a KC006 warning besides its errors;
        # strict mode must fail on warnings even when errors are fixed, so
        # check the knob directly on a warnings-only file
        assert main(["--strict", str(FIXTURES)]) == 1


class TestReadableOutput:
    def test_findings_print_file_line_rule(self, capsys):
        main([str(FIXTURES / "bad_aliasing.py")])
        out = capsys.readouterr().out
        assert "bad_aliasing.py:13: [AL001] error:" in out

    def test_waiver_inventory_is_printed(self, capsys):
        main([str(FIXTURES / "bad_aliasing.py")])
        out = capsys.readouterr().out
        assert "waiver inventory (1 documented buffer-reuse sites)" in out
        assert "documented intentional reuse" in out

    def test_no_waivers_flag(self, capsys):
        main(["--no-waivers", str(FIXTURES / "bad_aliasing.py")])
        out = capsys.readouterr().out
        assert "waiver inventory" not in out


class TestJsonReport:
    def test_report_shape(self, tmp_path, capsys):
        report_path = tmp_path / "analysis_report.json"
        main(["--json", str(report_path), str(FIXTURES)])
        report = json.loads(report_path.read_text())
        assert report["version"] == 1
        assert {"findings", "waivers", "summary"} <= set(report)
        rules = {f["rule"] for f in report["findings"]}
        assert {"KC001", "KC003", "KC004", "AL001", "AL003", "AL004"} <= rules
        assert len(report["waivers"]) == 1
        assert report["summary"]["errors"] == len(
            [f for f in report["findings"] if f["severity"] == "error"]
        )

    def test_repo_report_inventories_the_waivers(self, tmp_path, capsys):
        report_path = tmp_path / "report.json"
        assert main(["--strict", "--json", str(report_path)]) == 0
        report = json.loads(report_path.read_text())
        assert report["findings"] == []
        assert len(report["waivers"]) == 33
        assert report["summary"]["kernels"] == 5
