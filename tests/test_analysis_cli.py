"""End-to-end tests for ``python -m repro analyze``: exit codes,
report formats, baseline workflow, config loading, engine errors."""

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

from repro.devtools.baseline import load_baseline
from repro.devtools.cli import (
    EXIT_CLEAN,
    EXIT_ERROR,
    EXIT_FINDINGS,
    main,
)

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"
RACEPKG = str(FIXTURES / "racepkg")
CLEANPKG = str(FIXTURES / "cleanpkg")


def _write_dirty(tmp_path, name="dirty.py"):
    # A module the per-module rules accept (docstring, __all__), so the
    # one REP203 finding is the whole report.
    path = tmp_path / name
    path.write_text(
        textwrap.dedent(
            '''
            """Tag helpers."""

            __all__ = ["names"]


            def names(tags):
                """Return the tags as a list."""
                tag_set = set(tags)
                return list(tag_set)
            '''
        )
    )
    return path


class TestExitCodes:
    def test_clean_package_exits_zero(self, capsys):
        code = main(["--no-config", "--no-baseline", CLEANPKG])
        assert code == EXIT_CLEAN
        assert "all clean" in capsys.readouterr().out

    def test_findings_exit_one(self, capsys):
        code = main(["--no-config", "--no-baseline", RACEPKG])
        assert code == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "REP201" in out and "REP204" in out

    def test_syntax_error_exits_two(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def broken(:\n")
        code = main(["--no-config", "--no-baseline", str(tmp_path)])
        assert code == EXIT_ERROR
        out = capsys.readouterr().out
        assert "REP000" in out
        assert "parse-error" in out

    def test_no_paths_is_usage_error(self, capsys):
        assert main(["--no-config"]) == EXIT_ERROR
        assert "no paths" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, capsys):
        code = main(["--no-config", "--enable", "REP999", CLEANPKG])
        assert code == EXIT_ERROR
        assert "unknown rule" in capsys.readouterr().err

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for rule_id in ("REP201", "REP202", "REP203", "REP204", "REP301", "REP302"):
            assert rule_id in out


class TestRuleSelection:
    def test_disable_drops_rule(self, tmp_path, capsys):
        _write_dirty(tmp_path)
        assert (
            main(["--no-config", "--no-baseline", str(tmp_path)])
            == EXIT_FINDINGS
        )
        capsys.readouterr()
        code = main(
            ["--no-config", "--no-baseline", "--disable", "REP203", str(tmp_path)]
        )
        assert code == EXIT_CLEAN

    def test_enable_is_exclusive(self, capsys):
        code = main(
            ["--no-config", "--no-baseline", "--enable", "REP301", RACEPKG]
        )
        # racepkg has no conformal findings, so REP301-only is clean.
        assert code == EXIT_CLEAN


class TestFormats:
    def test_json_format(self, tmp_path, capsys):
        _write_dirty(tmp_path)
        main(["--no-config", "--no-baseline", "--format", "json", str(tmp_path)])
        payload = json.loads(capsys.readouterr().out)
        assert payload["summary"]["checked_files"] == 1
        assert [d["rule_id"] for d in payload["diagnostics"]] == ["REP203"]

    def test_sarif_format(self, tmp_path, capsys):
        _write_dirty(tmp_path)
        main(["--no-config", "--no-baseline", "--format", "sarif", str(tmp_path)])
        sarif = json.loads(capsys.readouterr().out)
        assert sarif["version"] == "2.1.0"
        run = sarif["runs"][0]
        rule_ids = [r["id"] for r in run["tool"]["driver"]["rules"]]
        assert "REP203" in rule_ids
        result = run["results"][0]
        assert result["ruleId"] == "REP203"
        assert rule_ids[result["ruleIndex"]] == "REP203"
        location = result["locations"][0]["physicalLocation"]
        assert location["region"]["startLine"] >= 1
        assert location["region"]["startColumn"] >= 1

    def test_sarif_output_alongside_text(self, tmp_path, capsys):
        _write_dirty(tmp_path)
        artifact = tmp_path / "report.sarif"
        main(
            [
                "--no-config",
                "--no-baseline",
                "--sarif-output",
                str(artifact),
                str(tmp_path),
            ]
        )
        assert "REP203" in capsys.readouterr().out  # text still on stdout
        sarif = json.loads(artifact.read_text())
        assert sarif["runs"][0]["results"]

    def test_sarif_includes_engine_errors(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def broken(:\n")
        code = main(
            ["--no-config", "--no-baseline", "--format", "sarif", str(tmp_path)]
        )
        assert code == EXIT_ERROR
        sarif = json.loads(capsys.readouterr().out)
        assert any(
            r["ruleId"] == "REP000" for r in sarif["runs"][0]["results"]
        )


class TestBaseline:
    def test_write_then_suppress(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        code = main(
            [
                "--no-config",
                "--baseline",
                str(baseline),
                "--write-baseline",
                RACEPKG,
            ]
        )
        assert code == EXIT_CLEAN
        assert len(load_baseline(str(baseline)))
        capsys.readouterr()
        code = main(["--no-config", "--baseline", str(baseline), RACEPKG])
        assert code == EXIT_CLEAN
        captured = capsys.readouterr()
        assert "baselined finding(s) suppressed" in captured.err
        assert "all clean" in captured.out

    def test_stale_entries_noted(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        main(
            [
                "--no-config",
                "--baseline",
                str(baseline),
                "--write-baseline",
                RACEPKG,
            ]
        )
        capsys.readouterr()
        code = main(["--no-config", "--baseline", str(baseline), CLEANPKG])
        assert code == EXIT_CLEAN
        assert "stale baseline entry" in capsys.readouterr().err

    def test_new_finding_not_masked(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        first = tmp_path / "first"
        first.mkdir()
        _write_dirty(first)
        main(
            ["--no-config", "--baseline", str(baseline), "--write-baseline", str(first)]
        )
        _write_dirty(first, name="second.py")
        capsys.readouterr()
        code = main(["--no-config", "--baseline", str(baseline), str(first)])
        assert code == EXIT_FINDINGS
        assert "second.py" in capsys.readouterr().out

    def test_baseline_matches_relative_and_absolute_paths(
        self, tmp_path, monkeypatch, capsys
    ):
        (tmp_path / "pkg").mkdir()
        _write_dirty(tmp_path / "pkg")
        monkeypatch.chdir(tmp_path)
        code = main(
            ["--no-config", "--baseline", "baseline.json", "--write-baseline", "pkg"]
        )
        assert code == EXIT_CLEAN
        capsys.readouterr()
        absolute = [str(tmp_path / "baseline.json"), str(tmp_path / "pkg")]
        code = main(["--no-config", "--baseline", absolute[0], absolute[1]])
        assert code == EXIT_CLEAN
        assert "stale baseline entry" not in capsys.readouterr().err

    def test_malformed_baseline_exits_two(self, tmp_path, capsys):
        baseline = tmp_path / "baseline.json"
        baseline.write_text("{\"version\": 99}")
        code = main(["--no-config", "--baseline", str(baseline), CLEANPKG])
        assert code == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_write_baseline_without_path_exits_two(self, capsys):
        code = main(["--no-config", "--no-baseline", "--write-baseline", CLEANPKG])
        assert code == EXIT_ERROR
        assert "--write-baseline" in capsys.readouterr().err


class TestConfigLoading:
    def _project_dir(self, tmp_path, keys):
        (tmp_path / "pyproject.toml").write_text("[tool.reprolint]\n" + keys)
        return tmp_path

    def test_analysis_exclude_from_pyproject(self, tmp_path, capsys):
        root = self._project_dir(tmp_path, 'exclude = ["*/generated/*"]\n')
        generated = root / "generated"
        generated.mkdir()
        _write_dirty(generated)
        code = main(["--no-baseline", str(root)])
        assert code == EXIT_CLEAN

    def test_configured_baseline_path(self, tmp_path, capsys):
        root = self._project_dir(tmp_path, 'baseline = "accepted.json"\n')
        _write_dirty(root)
        code = main(["--write-baseline", str(root)])
        assert code == EXIT_CLEAN
        # The relative baseline is anchored at the pyproject directory.
        assert len(load_baseline(str(root / "accepted.json")))

    def test_configured_disable(self, tmp_path, capsys):
        root = self._project_dir(tmp_path, 'disable = ["REP203"]\n')
        _write_dirty(root)
        assert main(["--no-baseline", str(root)]) == EXIT_CLEAN


class TestModuleEntryPoint:
    """`python -m repro analyze` must delegate, including leading options
    (argparse REMAINDER would otherwise swallow them)."""

    def _run(self, *arguments):
        return subprocess.run(
            [sys.executable, "-m", "repro", "analyze", *arguments],
            capture_output=True,
            text=True,
            cwd=str(Path(__file__).parent.parent),
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )

    def test_delegates_with_leading_option(self):
        proc = self._run("--no-config", "--no-baseline", CLEANPKG)
        assert proc.returncode == EXIT_CLEAN, proc.stderr
        assert "all clean" in proc.stdout

    def test_findings_propagate_exit_code(self):
        proc = self._run("--no-config", "--no-baseline", RACEPKG)
        assert proc.returncode == EXIT_FINDINGS, proc.stderr

    def test_help_via_stub_parser(self):
        proc = subprocess.run(
            [sys.executable, "-m", "repro", "--help"],
            capture_output=True,
            text=True,
            cwd=str(Path(__file__).parent.parent),
            env={"PYTHONPATH": "src", "PATH": "/usr/bin:/bin"},
        )
        assert proc.returncode == 0
        assert "analyze" in proc.stdout
