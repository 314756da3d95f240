"""Engine-level tests for reprolint: role classification, file
collection, suppressions, config loading, reporters, CLI exit codes,
and the one parse both rule packs share."""

import ast
import json
from collections import Counter
from pathlib import Path

import pytest

from repro.devtools import (
    Diagnostic,
    LintConfig,
    analyze_paths,
    classify_role,
    lint_source,
    load_config,
    render_json,
    render_text,
)
from repro.devtools.analysis.project import collect_suppressions
from repro.devtools.cli import EXIT_CLEAN, EXIT_ERROR, EXIT_FINDINGS, main
from repro.devtools.engine import collect_files
from repro.devtools.rules import ALL_RULES, get_rule

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"


class TestClassifyRole:
    @pytest.mark.parametrize(
        "path",
        ["tests/test_models.py", "tests/helpers.py", "pkg/tests/inner.py"],
    )
    def test_tests_directory(self, path):
        assert classify_role(path) == "test"

    @pytest.mark.parametrize("path", ["test_standalone.py", "conftest.py"])
    def test_test_basenames(self, path):
        assert classify_role(path) == "test"

    @pytest.mark.parametrize(
        "path", ["src/repro/models/cqr.py", "src/repro/__main__.py", "setup.py"]
    )
    def test_source_files(self, path):
        assert classify_role(path) == "src"

    def test_custom_test_dirs(self):
        config = LintConfig(test_dirs=frozenset({"checks"}))
        assert classify_role("checks/probe.py", config) == "test"
        assert classify_role("tests/probe.py", config) == "src"


class TestCollectFiles:
    def test_walks_directories_and_sorts(self, tmp_path):
        (tmp_path / "b.py").write_text("x = 1\n")
        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "notes.txt").write_text("not python\n")
        sub = tmp_path / "sub"
        sub.mkdir()
        (sub / "c.py").write_text("x = 1\n")
        files = collect_files([str(tmp_path)])
        assert [f.rsplit("/", 1)[-1] for f in files] == ["a.py", "b.py", "c.py"]

    def test_missing_path_raises(self):
        with pytest.raises(FileNotFoundError):
            collect_files(["/no/such/path_anywhere"])

    def test_exclude_globs(self, tmp_path):
        (tmp_path / "keep.py").write_text("x = 1\n")
        (tmp_path / "skip.py").write_text("x = 1\n")
        config = LintConfig(exclude=("*skip.py",))
        files = collect_files([str(tmp_path)], config)
        assert [f.rsplit("/", 1)[-1] for f in files] == ["keep.py"]

    def test_repeated_paths_are_collected_once(self, tmp_path, monkeypatch):
        (tmp_path / "a.py").write_text("x = 1\n")
        (tmp_path / "b.py").write_text("x = 1\n")
        monkeypatch.chdir(tmp_path)
        files = collect_files(
            [str(tmp_path / "b.py"), str(tmp_path), "a.py", str(tmp_path / "a.py")]
        )
        # First spelling wins, first-seen order is kept.
        assert files == [str(tmp_path / "b.py"), str(tmp_path / "a.py")]


class TestSuppressionParsing:
    def test_comma_separated_list(self):
        marks = collect_suppressions("x = 1  # reprolint: disable=REP101, REP104\n")
        assert marks[1] == frozenset({"REP101", "REP104"})

    def test_plain_comments_ignored(self):
        assert collect_suppressions("x = 1  # a normal comment\n") == {}

    def test_unterminated_source_does_not_crash(self):
        assert collect_suppressions("s = '''open\n") == {}


class TestLintConfig:
    def test_enable_beats_disable(self):
        config = LintConfig(
            enable=frozenset({"REP104"}), disable=frozenset({"REP104"})
        )
        assert config.rule_enabled("REP104", "no-assert-in-src")
        assert not config.rule_enabled("REP101", "rng-discipline")

    def test_disable_accepts_names_and_ids(self):
        config = LintConfig(disable=frozenset({"rng-discipline"}))
        assert not config.rule_enabled("REP101", "rng-discipline")
        assert config.rule_enabled("REP104", "no-assert-in-src")


class TestLoadConfig:
    def write_pyproject(self, tmp_path, body):
        (tmp_path / "pyproject.toml").write_text(body)
        return str(tmp_path / "anything.py")

    def test_reads_section(self, tmp_path):
        anchor = self.write_pyproject(
            tmp_path,
            '[tool.reprolint]\ndisable = ["REP108"]\nexclude = ["legacy/*"]\n'
            'test-dirs = ["tests", "checks"]\n',
        )
        config = load_config(anchor)
        assert config.disable == frozenset({"REP108"})
        assert config.exclude == ("legacy/*",)
        assert config.test_dirs == frozenset({"tests", "checks"})

    def test_missing_section_gives_defaults(self, tmp_path):
        anchor = self.write_pyproject(tmp_path, '[project]\nname = "x"\n')
        assert load_config(anchor) == LintConfig()

    def test_unknown_key_raises(self, tmp_path):
        anchor = self.write_pyproject(
            tmp_path, '[tool.reprolint]\ntypo-key = ["REP101"]\n'
        )
        with pytest.raises(ValueError, match="unknown keys"):
            load_config(anchor)

    def test_wrong_type_raises(self, tmp_path):
        anchor = self.write_pyproject(tmp_path, '[tool.reprolint]\ndisable = "REP101"\n')
        with pytest.raises(ValueError, match="list of strings"):
            load_config(anchor)

    def test_reads_scope_tables(self, tmp_path):
        anchor = self.write_pyproject(
            tmp_path,
            '[tool.reprolint]\ndisable = []\n'
            '[tool.reprolint.perf]\npaths = ["src/repro/perf/*"]\n'
            'disable = ["REP102"]\n',
        )
        config = load_config(anchor)
        assert len(config.scopes) == 1
        scope = config.scopes[0]
        assert scope.name == "perf"
        assert scope.paths == ("src/repro/perf/*",)
        assert scope.disable == frozenset({"REP102"})

    def test_scope_unknown_key_raises(self, tmp_path):
        anchor = self.write_pyproject(
            tmp_path,
            '[tool.reprolint.perf]\npaths = ["src/*"]\nexclude = ["x"]\n',
        )
        with pytest.raises(ValueError, match=r"reprolint\.perf.*unknown keys"):
            load_config(anchor)

    def test_scope_requires_paths(self, tmp_path):
        anchor = self.write_pyproject(
            tmp_path, '[tool.reprolint.perf]\ndisable = ["REP102"]\n'
        )
        with pytest.raises(ValueError, match="paths"):
            load_config(anchor)


class TestScopedFiltering:
    def scoped_config(self, **kwargs):
        from repro.devtools.config import ScopeConfig

        return LintConfig(
            scopes=(ScopeConfig(name="perf", paths=("src/repro/perf/*",), **kwargs),)
        )

    def test_scope_disables_rule_inside_paths_only(self):
        config = self.scoped_config(disable=frozenset({"REP104"}))
        code = "def f(x):\n    assert x\n    return x\n"
        inside = lint_source(code, path="src/repro/perf/bench.py", config=config)
        outside = lint_source(code, path="src/repro/core/cqr.py", config=config)
        assert "REP104" not in {f.rule_id for f in inside}
        assert "REP104" in {f.rule_id for f in outside}

    def test_scope_enable_keeps_only_listed_rules(self):
        config = self.scoped_config(enable=frozenset({"REP103"}))
        code = "def f(x, cache={}):\n    assert x\n    return cache\n"
        inside = lint_source(code, path="src/repro/perf/bench.py", config=config)
        assert {f.rule_id for f in inside} == {"REP103"}

    def test_scope_cannot_resurrect_base_disabled_rule(self):
        from repro.devtools.config import ScopeConfig

        config = LintConfig(
            disable=frozenset({"REP104"}),
            scopes=(
                ScopeConfig(
                    name="perf",
                    paths=("src/repro/perf/*",),
                    enable=frozenset({"REP104"}),
                ),
            ),
        )
        assert not config.rule_enabled_for(
            "src/repro/perf/bench.py", "REP104", "no-assert-in-src"
        )


class TestEngineBehaviour:
    def test_syntax_error_becomes_rep000(self):
        findings = lint_source("def broken(:\n", path="src/pkg/bad.py")
        assert [f.rule_id for f in findings] == ["REP000"]
        assert findings[0].rule_name == "parse-error"

    def test_config_disable_filters_rules(self):
        code = "def f(x):\n    assert x\n    return x\n"
        config = LintConfig(disable=frozenset({"REP104"}))
        hits = lint_source(code, path="src/pkg/mod.py", config=config)
        assert "REP104" not in {f.rule_id for f in hits}

    def test_findings_are_sorted(self):
        code = (
            "import numpy as np\n"
            "def f(x, cache={}):\n"
            "    assert x\n"
            "    np.random.seed(0)\n"
            "    return cache\n"
        )
        findings = lint_source(code, path="src/pkg/mod.py")
        positions = [(f.line, f.column, f.rule_id) for f in findings]
        assert positions == sorted(positions)

    def test_get_rule_round_trip(self):
        for rule in ALL_RULES:
            assert get_rule(rule.rule_id) is rule
            assert get_rule(rule.name) is rule
        with pytest.raises(KeyError):
            get_rule("REP999")


class TestReporters:
    def make_diag(self):
        return Diagnostic(
            path="src/m.py",
            line=3,
            column=4,
            rule_id="REP104",
            rule_name="no-assert-in-src",
            message="assert found",
        )

    def test_text_clean(self):
        assert render_text([], checked_files=5) == "checked 5 file(s): all clean"

    def test_text_with_findings(self):
        out = render_text([self.make_diag()], checked_files=2)
        assert "src/m.py:3:4: REP104 [no-assert-in-src] assert found" in out
        assert "found 1 issue(s) in 2 file(s) (REP104: 1)" in out

    def test_json_document(self):
        document = json.loads(render_json([self.make_diag()], checked_files=2))
        assert document["version"] == 1
        assert document["summary"] == {
            "checked_files": 2,
            "total": 1,
            "by_rule": {"REP104": 1},
        }
        assert document["diagnostics"][0]["rule_id"] == "REP104"


class TestCli:
    def write(self, tmp_path, name, body):
        target = tmp_path / name
        target.write_text(body)
        return str(target)

    def test_clean_file_exits_zero(self, tmp_path, capsys):
        clean = self.write(
            tmp_path,
            "clean.py",
            '"""Docstring."""\n\n__all__ = ["f"]\n\n\ndef f():\n'
            '    """Return one."""\n    return 1\n',
        )
        assert main(["--no-config", clean]) == EXIT_CLEAN
        assert "all clean" in capsys.readouterr().out

    def test_findings_exit_one(self, tmp_path, capsys):
        dirty = self.write(tmp_path, "dirty.py", "def f(x):\n    assert x\n")
        assert main(["--no-config", dirty]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "REP104" in out

    def test_missing_path_exits_two(self, capsys):
        assert main(["--no-config", "/no/such/dir"]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_unknown_rule_exits_two(self, tmp_path, capsys):
        clean = self.write(tmp_path, "x.py", "x = 1\n")
        assert main(["--no-config", "--disable", "REP999", clean]) == EXIT_ERROR
        assert "unknown rule" in capsys.readouterr().err

    def test_no_paths_exits_two(self, capsys):
        assert main(["--no-config"]) == EXIT_ERROR
        assert "no paths" in capsys.readouterr().err

    def test_enable_narrows_to_one_rule(self, tmp_path, capsys):
        dirty = self.write(
            tmp_path, "dirty.py", "def f(x):\n    assert x\n    return None\n"
        )
        assert main(["--no-config", "--enable", "REP101", dirty]) == EXIT_CLEAN
        capsys.readouterr()

    def test_json_format(self, tmp_path, capsys):
        dirty = self.write(tmp_path, "dirty.py", "def f(x):\n    assert x\n")
        assert main(["--no-config", "--format", "json", dirty]) == EXIT_FINDINGS
        document = json.loads(capsys.readouterr().out)
        assert document["summary"]["by_rule"].get("REP104") == 1

    def test_list_rules(self, capsys):
        assert main(["--list-rules"]) == EXIT_CLEAN
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.rule_id in out

    def test_overlapping_paths_report_each_finding_once(self, tmp_path, capsys):
        module = self.write(
            tmp_path,
            "m.py",
            "import numpy as np\n\n\ndef draw():\n    return np.random.normal()\n",
        )
        assert main(["--no-config", str(tmp_path), module]) == EXIT_FINDINGS
        out = capsys.readouterr().out
        assert "found 3 issue(s) in 1 file(s) (REP101: 1, REP105: 1, REP108: 1)" in out


class TestAnalysisConfigLoading:
    """The whole-program rules read the same ``[tool.reprolint]`` table."""

    def write_pyproject(self, tmp_path, body):
        (tmp_path / "pyproject.toml").write_text(body)
        return str(tmp_path / "anything.py")

    def test_reads_top_level_baseline(self, tmp_path):
        anchor = self.write_pyproject(
            tmp_path,
            "[tool.reprolint]\n"
            'disable = ["REP104", "REP203"]\n'
            'baseline = "accepted.json"\n',
        )
        config = load_config(anchor)
        # The relative baseline anchors at the pyproject directory.
        assert config.baseline == str(tmp_path / "accepted.json")
        assert config.disable == frozenset({"REP104", "REP203"})
        assert config.scopes == ()

    def test_missing_analysis_table_gives_defaults(self, tmp_path):
        anchor = self.write_pyproject(tmp_path, "[tool.reprolint]\n")
        config = load_config(anchor)
        assert config.baseline is None
        assert config.rule_enabled("REP201", "closure-mutates-captured-state")

    def test_analysis_unknown_key_raises(self, tmp_path):
        # The old whole-program table is refused, never read as a scope
        # or ignored, whatever keys it holds.
        anchor = self.write_pyproject(
            tmp_path,
            "[tool.reprolint.analysis]\n"
            'disable = ["REP203"]\nbaseline = "analysis-baseline.json"\n',
        )
        with pytest.raises(ValueError, match=r"analysis\] is no longer read"):
            load_config(anchor)

    def test_analysis_baseline_type_checked(self, tmp_path):
        anchor = self.write_pyproject(tmp_path, "[tool.reprolint]\nbaseline = 3\n")
        with pytest.raises(ValueError, match="baseline must be a string"):
            load_config(anchor)

    def test_analysis_rule_enable_beats_disable(self):
        config = LintConfig(enable=frozenset({"REP301"}), disable=frozenset({"REP301"}))
        assert config.rule_enabled("REP301", "calibration-data-in-fit")
        assert not config.rule_enabled("REP302", "refit-after-calibrate")
        assert not config.rule_enabled("REP101", "rng-discipline")


class TestCliHardening:
    """Engine failures must be reported as exit 2, never a traceback
    and never a clean/dirty verdict on code the engine could not see."""

    def test_syntax_error_file_exits_two(self, tmp_path, capsys):
        (tmp_path / "broken.py").write_text("def broken(:\n")
        assert main(["--no-config", str(tmp_path)]) == EXIT_ERROR
        out = capsys.readouterr().out
        assert "REP000" in out

    def test_empty_scope_paths_exits_two(self, tmp_path, capsys):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.reprolint.perf]\npaths = []\n"
        )
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main([str(tmp_path)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "error:" in err
        assert "paths" in err

    def test_scopeless_table_exits_two(self, tmp_path, capsys):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.reprolint.perf]\ndisable = ["REP102"]\n'
        )
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main([str(tmp_path)]) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err

    def test_malformed_analysis_table_exits_two(self, tmp_path, capsys):
        (tmp_path / "pyproject.toml").write_text(
            '[tool.reprolint.analysis]\nbaseline = "analysis-baseline.json"\n'
        )
        (tmp_path / "ok.py").write_text("x = 1\n")
        assert main([str(tmp_path)]) == EXIT_ERROR
        err = capsys.readouterr().err
        assert "error: [tool.reprolint.analysis] is no longer read" in err
        assert "Traceback" not in err

    def test_unwritable_sarif_output_exits_two(self, tmp_path, capsys):
        (tmp_path / "ok.py").write_text("x = 1\n")
        target = tmp_path / "missing" / "report.sarif"
        code = main(["--no-config", "--sarif-output", str(target), str(tmp_path)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "report.sarif" in err
        assert "Traceback" not in err


class TestSarifReporter:
    def make_diag(self, rule_id="REP104", name="no-assert-in-src"):
        return Diagnostic(
            path="src/m.py",
            line=3,
            column=4,
            rule_id=rule_id,
            rule_name=name,
            message="assert found",
        )

    def test_sarif_shape(self):
        from repro.devtools.reporters import render_sarif

        document = json.loads(
            render_sarif([self.make_diag()], tool_name="reprolint", rules=ALL_RULES)
        )
        assert document["version"] == "2.1.0"
        assert document["$schema"].startswith("https://")
        run = document["runs"][0]
        assert run["tool"]["driver"]["name"] == "reprolint"
        ids = [rule["id"] for rule in run["tool"]["driver"]["rules"]]
        assert ids == sorted(ids)
        result = run["results"][0]
        assert result["ruleId"] == "REP104"
        assert ids[result["ruleIndex"]] == "REP104"
        region = result["locations"][0]["physicalLocation"]["region"]
        # SARIF columns are 1-based; Diagnostic columns are 0-based.
        assert region == {"startLine": 3, "startColumn": 5}

    def test_sarif_unknown_rule_gets_index_minus_one(self):
        from repro.devtools.reporters import render_sarif

        diag = self.make_diag(rule_id="REP000", name="parse-error")
        document = json.loads(
            render_sarif([diag], tool_name="reprolint", rules=())
        )
        result = document["runs"][0]["results"][0]
        assert result["ruleId"] == "REP000"
        assert "ruleIndex" not in result or result["ruleIndex"] == -1

    def test_sarif_empty_run_is_valid(self):
        from repro.devtools.reporters import render_sarif

        document = json.loads(render_sarif([], tool_name="reprolint", rules=ALL_RULES))
        assert document["runs"][0]["results"] == []

    def test_lint_cli_sarif_output(self, tmp_path, capsys):
        dirty = tmp_path / "dirty.py"
        dirty.write_text("def f(x):\n    assert x\n")
        artifact = tmp_path / "lint.sarif"
        code = main(
            ["--no-config", "--sarif-output", str(artifact), str(dirty)]
        )
        assert code == EXIT_FINDINGS
        capsys.readouterr()
        document = json.loads(artifact.read_text())
        assert any(
            r["ruleId"] == "REP104" for r in document["runs"][0]["results"]
        )


class TestOnePass:
    """Both rule packs run from one parse and report what they did apart."""

    def test_fixture_findings_are_pinned(self):
        result = analyze_paths([str(FIXTURES)], LintConfig())
        assert result.errors == []
        found = sorted(
            (d.rule_id, Path(d.path).relative_to(FIXTURES).as_posix(), d.line)
            for d in result.diagnostics
        )
        assert found == [
            ("REP101", "racepkg/rng.py", 36),
            ("REP201", "racepkg/tasks.py", 10),
            ("REP201", "racepkg/tasks.py", 21),
            ("REP201", "racepkg/tasks.py", 29),
            ("REP202", "racepkg/rng.py", 14),
            ("REP202", "racepkg/rng.py", 22),
            ("REP202", "racepkg/rng.py", 29),
            ("REP202", "racepkg/rng.py", 36),
            ("REP203", "racepkg/ordering.py", 7),
            ("REP203", "racepkg/ordering.py", 14),
            ("REP203", "racepkg/ordering.py", 19),
            ("REP203", "racepkg/ordering.py", 24),
            ("REP204", "racepkg/clock.py", 14),
            ("REP204", "racepkg/clock.py", 19),
            ("REP204", "racepkg/clock.py", 28),
            ("REP301", "leakpkg/pipeline.py", 11),
            ("REP301", "leakpkg/pipeline.py", 17),
            ("REP301", "leakpkg/pipeline.py", 25),
            ("REP302", "leakpkg/refit.py", 7),
            ("REP302", "leakpkg/refit.py", 13),
        ]

    def test_each_file_parsed_once(self, monkeypatch):
        parsed = Counter()
        real_parse = ast.parse

        def counting_parse(source, filename="<unknown>", *args, **kwargs):
            parsed[filename] += 1
            return real_parse(source, filename, *args, **kwargs)

        monkeypatch.setattr(ast, "parse", counting_parse)
        result = analyze_paths([str(FIXTURES)], LintConfig())
        # Both packs ran: per-module REP101 and whole-program REP2xx/3xx.
        assert {d.rule_id[:4] for d in result.diagnostics} == {"REP1", "REP2", "REP3"}
        assert set(parsed) == set(collect_files([str(FIXTURES)]))
        assert set(parsed.values()) == {1}
