"""Self-check: the shipped tree must be reprolint-clean.

This is the acceptance gate for the whole suite: one run of both rule
packs (with the project's ``[tool.reprolint]`` configuration) over
``src`` and ``tests`` yields zero findings, and the CLI says so through
its exit code.  Any regression that reintroduces a legacy RNG call, a
bare assert in src, a drifting ``__all__``, a calibration leak or a
completion-order race fails here before it reaches CI.  The paths are
absolute, so the config's path globs are exercised in that spelling.
"""

from pathlib import Path

from repro.devtools.cli import EXIT_CLEAN, main

REPO_ROOT = Path(__file__).resolve().parent.parent


def test_cli_exits_clean_on_repo(capsys):
    code = main([str(REPO_ROOT / "src"), str(REPO_ROOT / "tests")])
    out = capsys.readouterr().out
    assert code == EXIT_CLEAN, out
    assert "all clean" in out
