"""Per-rule tests for reprolint: each rule fires on a minimal bad
snippet and stays silent on the corresponding good one."""

import textwrap

import pytest

from repro.devtools import lint_source
from repro.devtools.rules import (
    AlphaValidationRule,
    DocstringCoverageRule,
    DunderAllRule,
    EstimatorContractRule,
    FloatEqualityRule,
    MutableDefaultRule,
    NoAssertRule,
    RngDisciplineRule,
)


def run_rule(rule_class, code):
    return lint_source(
        textwrap.dedent(code), path="src/pkg/mod.py", rules=[rule_class()]
    )


class TestRngDiscipline:
    def test_fires_on_np_random_seed(self):
        findings = run_rule(
            RngDisciplineRule,
            """
            import numpy as np
            np.random.seed(0)
            """,
        )
        assert [f.rule_id for f in findings] == ["REP101"]
        assert "seed" in findings[0].message

    def test_fires_on_legacy_draw_via_alias(self):
        findings = run_rule(
            RngDisciplineRule,
            """
            import numpy.random as npr
            x = npr.normal(0.0, 1.0, 10)
            """,
        )
        assert [f.rule_id for f in findings] == ["REP101"]

    def test_fires_on_from_import(self):
        findings = run_rule(
            RngDisciplineRule,
            """
            from numpy.random import uniform
            x = uniform(0.0, 1.0)
            """,
        )
        assert [f.rule_id for f in findings] == ["REP101"]

    def test_fires_on_randomstate(self):
        findings = run_rule(
            RngDisciplineRule,
            """
            import numpy as np
            rng = np.random.RandomState(7)
            """,
        )
        assert [f.rule_id for f in findings] == ["REP101"]
        assert "default_rng" in findings[0].message

    def test_silent_on_generator_discipline(self):
        findings = run_rule(
            RngDisciplineRule,
            """
            import numpy as np

            def draw(rng: np.random.Generator):
                seeded = np.random.default_rng(np.random.SeedSequence(1))
                return rng.normal(), seeded.uniform()
            """,
        )
        assert findings == []

    def test_applies_in_tests_too(self):
        findings = lint_source(
            "import numpy as np\nnp.random.seed(1)\n",
            path="tests/test_x.py",
            rules=[RngDisciplineRule()],
        )
        assert [f.rule_id for f in findings] == ["REP101"]


class TestFloatEquality:
    def test_fires_on_arithmetic_comparison(self):
        findings = run_rule(
            FloatEqualityRule,
            """
            def f(a, b, c):
                return (a + b) / 2.0 == c
            """,
        )
        assert [f.rule_id for f in findings] == ["REP102"]

    def test_fires_on_float_producing_call(self):
        findings = run_rule(
            FloatEqualityRule,
            """
            import numpy as np

            def f(x):
                return np.mean(x) != 1.5
            """,
        )
        assert [f.rule_id for f in findings] == ["REP102"]

    def test_zero_guard_is_exempt(self):
        findings = run_rule(
            FloatEqualityRule,
            """
            import numpy as np

            def f(x):
                std = np.std(x)
                if std == 0.0:
                    return 0.0
                return np.mean(x) / std
            """,
        )
        assert findings == []

    def test_parameter_dispatch_is_exempt(self):
        # `self.nu == 0.5` style dispatch on a user-set parameter must pass.
        findings = run_rule(
            FloatEqualityRule,
            """
            def kernel(nu):
                if nu == 0.5:
                    return "exponential"
                return "general"
            """,
        )
        assert findings == []

    def test_not_applied_to_tests(self):
        findings = lint_source(
            "def f(x):\n    return (x + 1.0) / 2.0 == 3.0\n",
            path="tests/test_exact.py",
            rules=[FloatEqualityRule()],
        )
        assert findings == []


class TestMutableDefaults:
    def test_fires_on_list_literal(self):
        findings = run_rule(
            MutableDefaultRule,
            """
            def accumulate(value, into=[]):
                into.append(value)
                return into
            """,
        )
        assert [f.rule_id for f in findings] == ["REP103"]

    def test_fires_on_dict_constructor_and_kwonly(self):
        findings = run_rule(
            MutableDefaultRule,
            """
            def configure(*, options=dict()):
                return options
            """,
        )
        assert [f.rule_id for f in findings] == ["REP103"]

    def test_silent_on_none_and_immutable_defaults(self):
        findings = run_rule(
            MutableDefaultRule,
            """
            def configure(options=None, scale=1.0, names=("a", "b")):
                if options is None:
                    options = {}
                return options, scale, names
            """,
        )
        assert findings == []


class TestNoAssert:
    def test_fires_in_src(self):
        findings = run_rule(
            NoAssertRule,
            """
            def check(x):
                assert x > 0, "x must be positive"
                return x
            """,
        )
        assert [f.rule_id for f in findings] == ["REP104"]

    def test_silent_in_tests(self):
        findings = lint_source(
            "def test_ok():\n    assert 1 + 1 == 2\n",
            path="tests/test_ok.py",
            rules=[NoAssertRule()],
        )
        assert findings == []

    def test_silent_on_explicit_raise(self):
        findings = run_rule(
            NoAssertRule,
            """
            def check(x):
                if x <= 0:
                    raise ValueError("x must be positive")
                return x
            """,
        )
        assert findings == []


class TestDunderAll:
    def test_fires_when_missing(self):
        findings = run_rule(DunderAllRule, "def f():\n    return 1\n")
        assert [f.rule_id for f in findings] == ["REP105"]
        assert "does not declare __all__" in findings[0].message

    def test_fires_on_phantom_export(self):
        findings = run_rule(
            DunderAllRule,
            """
            __all__ = ["gone"]
            """,
        )
        assert [f.rule_id for f in findings] == ["REP105"]
        assert "'gone'" in findings[0].message

    def test_fires_on_unlisted_public_def(self):
        findings = run_rule(
            DunderAllRule,
            """
            __all__ = ["listed"]

            def listed():
                return 1

            def unlisted():
                return 2
            """,
        )
        assert len(findings) == 1
        assert "unlisted" in findings[0].message

    def test_silent_on_consistent_module(self):
        findings = run_rule(
            DunderAllRule,
            """
            __all__ = ["CONSTANT", "helper"]

            CONSTANT = 3

            def helper():
                return CONSTANT

            def _private():
                return None
            """,
        )
        assert findings == []

    def test_conditional_bindings_count(self):
        findings = run_rule(
            DunderAllRule,
            """
            __all__ = ["parser"]

            try:
                import tomllib as parser
            except ImportError:
                parser = None
            """,
        )
        assert findings == []


class TestEstimatorContract:
    def test_fires_when_fit_returns_other_value(self):
        findings = run_rule(
            EstimatorContractRule,
            """
            class Model:
                def fit(self, X, y):
                    self.coef_ = X.mean()
                    return self.coef_
            """,
        )
        assert [f.rule_id for f in findings] == ["REP106"]
        assert "return self" in findings[0].message

    def test_fires_when_fit_never_returns(self):
        findings = run_rule(
            EstimatorContractRule,
            """
            class Model:
                def fit(self, X, y):
                    self.coef_ = X.mean()
            """,
        )
        assert [f.rule_id for f in findings] == ["REP106"]

    def test_fires_when_predict_mutates_state(self):
        findings = run_rule(
            EstimatorContractRule,
            """
            class Model:
                def predict_interval(self, X):
                    self.last_X_ = X
                    return X, X
            """,
        )
        assert [f.rule_id for f in findings] == ["REP106"]
        assert "read-only" in findings[0].message

    def test_silent_on_contract_compliant_class(self):
        findings = run_rule(
            EstimatorContractRule,
            """
            class Model:
                def fit(self, X, y):
                    self.coef_ = X.mean()
                    return self

                def predict(self, X):
                    prediction = X @ self.coef_
                    return prediction
            """,
        )
        assert findings == []

    def test_abstract_fit_and_super_chain_are_exempt(self):
        findings = run_rule(
            EstimatorContractRule,
            """
            class Base:
                def fit(self, X, y):
                    raise NotImplementedError

            class Child(Base):
                def fit(self, X, y):
                    return super().fit(X, y)
            """,
        )
        assert findings == []


class TestAlphaValidation:
    def test_fires_on_unchecked_alpha(self):
        findings = run_rule(
            AlphaValidationRule,
            """
            def quantile_index(n, alpha):
                return int(n * (1 - alpha))
            """,
        )
        assert [f.rule_id for f in findings] == ["REP107"]

    def test_silent_when_validated_locally(self):
        findings = run_rule(
            AlphaValidationRule,
            """
            def quantile_index(n, alpha):
                if not 0.0 < alpha < 1.0:
                    raise ValueError(f"alpha must be in (0, 1), got {alpha}")
                return int(n * (1 - alpha))
            """,
        )
        assert findings == []

    def test_silent_when_delegated(self):
        findings = run_rule(
            AlphaValidationRule,
            """
            def interval(scores, alpha):
                return conformal_quantile(scores, alpha)
            """,
        )
        assert findings == []

    def test_delegation_through_closure_counts(self):
        findings = run_rule(
            AlphaValidationRule,
            """
            def experiment(X, y, alpha=0.1):
                def builder():
                    return Regressor(alpha=alpha)
                return builder()
            """,
        )
        assert findings == []

    def test_private_helpers_exempt(self):
        findings = run_rule(
            AlphaValidationRule,
            """
            def _quantile_index(n, alpha):
                return int(n * (1 - alpha))

            class _Adapter:
                def __init__(self, alpha):
                    self.alpha = alpha
            """,
        )
        assert findings == []


class TestDocstringCoverage:
    def test_fires_on_missing_module_docstring(self):
        findings = run_rule(DocstringCoverageRule, "__all__ = []\n")
        assert [f.rule_id for f in findings] == ["REP108"]
        assert "module has no docstring" in findings[0].message

    def test_fires_on_undocumented_export(self):
        findings = run_rule(
            DocstringCoverageRule,
            '''
            """Module docstring."""

            __all__ = ["exported"]

            def exported():
                return 1
            ''',
        )
        assert [f.rule_id for f in findings] == ["REP108"]
        assert "exported" in findings[0].message

    def test_silent_on_documented_module(self):
        findings = run_rule(
            DocstringCoverageRule,
            '''
            """Module docstring."""

            __all__ = ["CONSTANT", "exported"]

            CONSTANT = 2

            def exported():
                """Do the thing."""
                return CONSTANT

            def _private_without_docstring():
                return None
            ''',
        )
        assert findings == []


class TestInlineSuppression:
    @pytest.mark.parametrize("token", ["REP104", "no-assert-in-src", "all"])
    def test_disable_comment_silences_the_line(self, token):
        code = f"def f(x):\n    assert x  # reprolint: disable={token}\n    return x\n"
        findings = lint_source(code, path="src/pkg/mod.py", rules=[NoAssertRule()])
        assert findings == []

    def test_disable_comment_is_line_scoped(self):
        code = (
            "def f(x):\n"
            "    assert x  # reprolint: disable=REP104\n"
            "    assert x\n"
            "    return x\n"
        )
        findings = lint_source(code, path="src/pkg/mod.py", rules=[NoAssertRule()])
        assert len(findings) == 1
        assert findings[0].line == 3

    def test_unrelated_rule_not_suppressed(self):
        code = "def f(x):\n    assert x  # reprolint: disable=REP101\n    return x\n"
        findings = lint_source(code, path="src/pkg/mod.py", rules=[NoAssertRule()])
        assert len(findings) == 1
