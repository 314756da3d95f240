"""Rule-pack tests: every seeded fixture violation is caught, and the
clean near-miss fixtures stay clean (false positives become tests)."""

import textwrap
from pathlib import Path

import pytest

from repro.devtools import ALL_RULES, analyze_paths, lint_source
from repro.devtools.rules import AnalysisRule

FIXTURES = Path(__file__).parent / "fixtures" / "analysis"
# The whole-program pack alone: snippets here carry no docstring or
# __all__, which the per-module rules would report.
DEEP_RULES = [rule for rule in ALL_RULES if issubclass(rule, AnalysisRule)]


def _findings(*paths, rules=None):
    result = analyze_paths([str(p) for p in paths], rules=rules)
    assert not result.errors
    return result.diagnostics


def _by_rule(diagnostics):
    grouped = {}
    for diagnostic in diagnostics:
        grouped.setdefault(diagnostic.rule_id, []).append(diagnostic)
    return grouped


@pytest.fixture(scope="module")
def fixture_findings():
    return _findings(FIXTURES)


class TestSeededFixtures:
    def test_every_rule_fires_on_its_fixture(self, fixture_findings):
        fired = {d.rule_id for d in fixture_findings}
        assert fired == {
            "REP101",  # racepkg/rng.py's legacy np.random.normal draw
            "REP201",
            "REP202",
            "REP203",
            "REP204",
            "REP301",
            "REP302",
        }

    def test_clean_package_stays_clean(self, fixture_findings):
        clean = [d for d in fixture_findings if "cleanpkg" in d.path]
        assert clean == []

    def test_rep201_closure_captures(self, fixture_findings):
        hits = _by_rule(fixture_findings)["REP201"]
        assert all("tasks.py" in d.path for d in hits)
        names = {d.message.split("'")[1] for d in hits}
        assert names == {"results", "counts", "seen"}

    def test_rep202_rng_variants(self, fixture_findings):
        hits = _by_rule(fixture_findings)["REP202"]
        assert all("rng.py" in d.path for d in hits)
        messages = " | ".join(d.message for d in hits)
        assert "unseeded default_rng()" in messages
        assert "module-level generator 'SHARED_RNG'" in messages
        assert "random.random()" in messages
        assert "numpy.random.normal()" in messages

    def test_rep203_ordering_variants(self, fixture_findings):
        hits = _by_rule(fixture_findings)["REP203"]
        assert all("ordering.py" in d.path for d in hits)
        assert len(hits) == 4  # loop, join, list(), comprehension

    def test_rep204_clock_flows(self, fixture_findings):
        hits = _by_rule(fixture_findings)["REP204"]
        assert all("clock.py" in d.path for d in hits)
        messages = " | ".join(d.message for d in hits)
        assert "time.time" in messages
        assert "os.urandom" in messages
        # The one-call-away flow is attributed through the helper.
        assert "via racepkg.clock._digest_cell" in messages

    def test_rep301_cross_module_leak(self, fixture_findings):
        """The acceptance-criterion fixture: calibration data reaching
        fit() across a module boundary is caught and attributed."""
        hits = _by_rule(fixture_findings)["REP301"]
        assert all("pipeline.py" in d.path for d in hits)
        messages = " | ".join(d.message for d in hits)
        assert "via leakpkg.training.train_model" in messages
        assert "via leakpkg.training.run_training" in messages
        # Plus the direct, seam-tainted leak inside the same function.
        assert any("via" not in d.message for d in hits)

    def test_rep302_refit_variants(self, fixture_findings):
        hits = _by_rule(fixture_findings)["REP302"]
        assert all("refit.py" in d.path for d in hits)
        assert len(hits) == 2  # calibrate() and manual-scores variants


def _analyze_source(source, path="snippet.py"):
    return lint_source(textwrap.dedent(source), path, rules=DEEP_RULES)


class TestRulePrecision:
    """Near-misses distilled from real src/repro patterns; each of these
    was a candidate false positive during development."""

    def test_thread_safe_journal_record_not_flagged(self):
        # repro.eval.experiments._run_grid records through an RLock'd
        # journal from task bodies; method calls on non-container
        # captures are deliberately out of REP201's scope.
        findings = _analyze_source(
            """
            def run(journal, items, parallel_map):
                def fn(item):
                    value = item * 2
                    journal.record(str(item), {"v": value})
                    return value
                return parallel_map(fn, items)
            """
        )
        assert findings == []

    def test_seeded_generator_param_not_flagged(self):
        # check_random_state-style seeding: default_rng(seed) has args.
        findings = _analyze_source(
            """
            import numpy as np

            def run(seed, items, parallel_map):
                def fn(index):
                    rng = np.random.default_rng((seed, index))
                    return rng.normal()
                return parallel_map(fn, items)
            """
        )
        assert findings == []

    def test_cqr_fit_on_train_rows_not_flagged(self):
        # The shape of repro.core.cqr: calibration rows feed cqr_score
        # and calibrate-like stats, train rows feed fit.
        findings = _analyze_source(
            """
            def fit(band, X, y, split_train_calibration, rng, cqr_score):
                train_idx, cal_idx = split_train_calibration(len(y), 0.25, rng)
                band.fit(X[train_idx], y[train_idx])
                y_cal = y[cal_idx]
                lower, upper = band.predict_band(X[cal_idx])
                scores = cqr_score(y_cal, lower, upper)
                return scores
            """
        )
        assert findings == []

    def test_refit_followed_by_recalibrate_not_flagged(self):
        findings = _analyze_source(
            """
            def update(model, X, y):
                model.calibrate(X, y)
                model.fit(X, y)
                model.calibrate(X, y)
                return model
            """
        )
        assert findings == []

    def test_sorted_set_iteration_not_flagged(self):
        findings = _analyze_source(
            """
            def names(records):
                unique = {r.name for r in records}
                out = []
                for name in sorted(unique):
                    out.append(name)
                return out, len(unique), ", ".join(sorted(unique))
            """
        )
        assert findings == []

    def test_timing_around_fingerprint_not_flagged(self):
        findings = _analyze_source(
            """
            import time

            def timed(fingerprint, config):
                start = time.perf_counter()
                key = fingerprint(config)
                elapsed = time.perf_counter() - start
                return key, elapsed
            """
        )
        assert findings == []

    def test_scores_from_fitted_not_flagged(self):
        # repro.models.adaptive.from_fitted consumes calibration scores
        # without refitting -- consuming scores is not a sink.
        findings = _analyze_source(
            """
            def promote(band, primary, from_fitted):
                scores = primary.cqr_.calibration_scores_
                return from_fitted(band, scores)
            """
        )
        assert findings == []


class TestRuleUnits:
    def test_rep301_annotation_source(self):
        findings = _analyze_source(
            """
            def train(model, holdout: "CalibrationSet", y):
                model.fit(holdout, y)
            """
        )
        assert [d.rule_id for d in findings] == ["REP301"]
        assert "holdout" in findings[0].message

    def test_rep301_train_test_split_seam(self):
        findings = _analyze_source(
            """
            def leak(model, X, y, train_test_split):
                X_train, X_test, y_train, y_test = train_test_split(X, y)
                model.fit(X_test, y_train)
            """
        )
        assert [d.rule_id for d in findings] == ["REP301"]

    def test_rep301_gradient_tree_fit_is_a_sink(self):
        # GradientTree.fit_gradients trains a tree exactly like fit().
        findings = _analyze_source(
            """
            def grow(tree, X_cal, g, h):
                tree.fit_gradients(X_cal, g, h)
            """
        )
        assert [d.rule_id for d in findings] == ["REP301"]
        assert "X_cal" in findings[0].message

    def test_rep201_requires_submission(self):
        # Mutating a captured list from a nested function that is NOT
        # submitted anywhere is ordinary Python.
        findings = _analyze_source(
            """
            def build(items):
                out = []
                def push(item):
                    out.append(item)
                for item in items:
                    push(item)
                return out
            """
        )
        assert findings == []

    def test_rep204_keyword_seed_sink(self):
        findings = _analyze_source(
            """
            import time

            def wait(policy):
                return policy.delay(seed=time.time_ns())
            """
        )
        assert [d.rule_id for d in findings] == ["REP204"]

    def test_same_named_modules_are_both_analysed(self, tmp_path):
        """Two non-package ``util.py`` share one dotted name; the
        whole-program rules must still see each file's functions."""
        source = textwrap.dedent(
            """
            def names(tags):
                return list(set(tags))
            """
        )
        for directory in ("a", "b"):
            (tmp_path / directory).mkdir()
            (tmp_path / directory / "util.py").write_text(source)
        findings = _findings(tmp_path, rules=DEEP_RULES)
        flagged = sorted(Path(d.path).parent.name for d in findings)
        assert [d.rule_id for d in findings] == ["REP203", "REP203"]
        assert flagged == ["a", "b"]

    def test_inline_suppression_honoured(self, tmp_path):
        source = textwrap.dedent(
            """
            def names(tags):
                tag_set = set(tags)
                return list(tag_set)  # reprolint: disable=REP203
            """
        )
        plain = tmp_path / "plain.py"
        plain.write_text(source.replace("  # reprolint: disable=REP203", ""))
        suppressed = tmp_path / "suppressed.py"
        suppressed.write_text(source)
        assert analyze_paths([str(plain)], rules=DEEP_RULES).diagnostics, (
            "rule should fire without the suppression comment"
        )
        result = analyze_paths([str(suppressed)], rules=DEEP_RULES)
        assert result.diagnostics == []
        assert result.checked_files == 1
