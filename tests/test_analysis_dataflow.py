"""Unit tests for the whole-program analysis core: project/symbol
tables, CFG construction, reaching definitions, taint propagation, and
call-graph resolution across modules."""

import ast
import textwrap

import pytest

from repro.devtools.analysis.cfg import build_cfg
from repro.devtools.analysis.dataflow import (
    TaintAnalysis,
    assigned_names,
    reaching_definitions,
)
from repro.devtools.analysis.project import Project, module_name_for
from repro.devtools.analysis.interproc import ProjectContext
from repro.devtools.analysis.callgraph import (
    build_call_graph,
    resolve_function_reference,
)


def _project(**sources):
    """Build a Project from ``name='source'`` keyword modules.

    ``pkg__mod`` becomes module ``pkg.mod`` at path ``pkg/mod.py``.
    """
    project = Project()
    for key, source in sources.items():
        name = key.replace("__", ".")
        path = name.replace(".", "/") + ".py"
        project.add_source(textwrap.dedent(source), path, name=name)
    return project


def _function_cfg(source, name=None):
    tree = ast.parse(textwrap.dedent(source))
    fn = next(
        node
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef)
        and (name is None or node.name == name)
    )
    return build_cfg(fn.body)


class TestModuleNaming:
    def test_package_chain(self, tmp_path):
        pkg = tmp_path / "outer" / "inner"
        pkg.mkdir(parents=True)
        (tmp_path / "outer" / "__init__.py").write_text("")
        (pkg / "__init__.py").write_text("")
        (pkg / "mod.py").write_text("x = 1\n")
        assert module_name_for(pkg / "mod.py") == "outer.inner.mod"
        assert module_name_for(pkg / "__init__.py") == "outer.inner"

    def test_bare_file(self, tmp_path):
        (tmp_path / "loose.py").write_text("x = 1\n")
        assert module_name_for(tmp_path / "loose.py") == "loose"


class TestProjectTables:
    def test_registers_nested_and_methods(self):
        project = _project(
            mod="""
            class Box:
                def fit(self, X):
                    def helper(v):
                        return v
                    return helper(X)

            def top():
                pass
            """
        )
        assert "mod.Box.fit" in project.functions
        assert "mod.Box.fit.<locals>.helper" in project.functions
        assert "mod.top" in project.functions
        assert project.functions["mod.Box.fit"].parent_class == "Box"
        assert project.functions["mod.Box.fit"].params() == ["X"]

    def test_syntax_error_becomes_engine_error(self):
        project = Project()
        assert project.add_source("def broken(:\n", "bad.py") is None
        assert len(project.errors) == 1
        assert project.errors[0].path == "bad.py"
        assert project.errors[0].rule_name == "parse-error"
        assert "parsed" in project.errors[0].message

    def test_alias_resolution_absolute_and_relative(self):
        project = _project(
            pkg__util="""
            def helper():
                return 1
            """,
            pkg__user="""
            from pkg.util import helper
            from .util import helper as h2
            import pkg.util as util_mod

            def caller():
                return helper() + h2()
            """,
        )
        assert project.resolve("pkg.user", "helper") == "pkg.util.helper"
        assert project.resolve("pkg.user", "h2") == "pkg.util.helper"
        assert project.resolve("pkg.user", "util_mod.helper") == "pkg.util.helper"
        assert project.resolve("pkg.user", "nothing") is None


class TestCfg:
    def test_branch_creates_join(self):
        cfg = _function_cfg(
            """
            def f(a):
                if a:
                    x = 1
                else:
                    x = 2
                return x
            """
        )
        # entry/header, two arms, join at minimum.
        assert len(cfg.blocks) >= 4
        header = next(
            b
            for b in cfg.blocks
            if any(isinstance(s, ast.If) for s in b.statements)
        )
        assert len(header.successors) == 2  # one per arm
        join = next(
            b
            for b in cfg.blocks
            if any(isinstance(s, ast.Return) for s in b.statements)
        )
        assert len(cfg.predecessors(join)) == 2  # both arms re-join

    def test_loop_has_back_edge(self):
        cfg = _function_cfg(
            """
            def f(n):
                total = 0
                while n:
                    n -= 1
                return total
            """
        )
        # Some block must have the loop header among its successors AND
        # the header must have >1 predecessor (entry + back edge).
        headers = [
            b
            for b in cfg.blocks
            if any(isinstance(s, ast.While) for s in b.statements)
        ]
        assert headers
        assert len(cfg.predecessors(headers[0])) >= 2


class TestReachingDefinitions:
    def test_both_branch_definitions_reach_join(self):
        cfg = _function_cfg(
            """
            def f(a):
                if a:
                    x = 1
                else:
                    x = 2
                return x
            """
        )
        rd = reaching_definitions(cfg)
        return_block = next(
            b
            for b in cfg.blocks
            if any(isinstance(s, ast.Return) for s in b.statements)
        )
        x_defs = {site for site in rd[return_block.id] if site[0] == "x"}
        assert len(x_defs) == 2  # one from each arm

    def test_loop_body_definition_reaches_itself(self):
        cfg = _function_cfg(
            """
            def f(n):
                x = 0
                while n:
                    x = x + 1
                return x
            """
        )
        rd = reaching_definitions(cfg)
        body_block = next(
            b
            for b in cfg.blocks
            if any(
                isinstance(s, ast.Assign)
                and isinstance(s.value, ast.BinOp)
                for s in b.statements
            )
        )
        # Around the back edge, the body's own definition of x reaches
        # the body entry alongside the initial x = 0.
        x_defs = {site for site in rd[body_block.id] if site[0] == "x"}
        assert len(x_defs) == 2

    def test_assigned_names_forms(self):
        stmts = ast.parse(
            "a, (b, c) = t\nd += 1\nfor e in xs: pass\nwith open(p) as f: pass\n"
        ).body
        assert assigned_names(stmts[0]) == ["a", "b", "c"]
        assert assigned_names(stmts[1]) == ["d"]
        assert assigned_names(stmts[2]) == ["e"]
        assert assigned_names(stmts[3]) == ["f"]


def _taint(source, sources_names, seams=None):
    """Run TaintAnalysis over one function; taint Name loads in
    ``sources_names``; return (analysis, sink-call labels by callee name)."""
    cfg = _function_cfg(source)

    def expr_sources(expr):
        if isinstance(expr, ast.Name) and expr.id in sources_names:
            return [("src", expr.id)]
        return []

    analysis = TaintAnalysis(cfg, expr_sources, call_result_positions=seams)
    analysis.run()
    hits = {}

    def visit(stmt, state):
        for node in ast.walk(stmt):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
                for arg in node.args:
                    hits.setdefault(node.func.id, frozenset())
                    hits[node.func.id] |= analysis.expr_labels(arg, state)
                for kw in node.keywords:
                    hits[node.func.id] = hits.get(
                        node.func.id, frozenset()
                    ) | analysis.expr_labels(kw.value, state)

    analysis.visit_statements(visit)
    return analysis, hits


class TestTaint:
    def test_tuple_unpacking_propagates(self):
        _, hits = _taint(
            """
            def f(dirty):
                a, b = dirty, 1
                sink(a)
                clean(b)
            """,
            {"dirty"},
        )
        assert ("src", "dirty") in hits["sink"]
        assert not hits["clean"]

    def test_keyword_argument_carries_taint(self):
        _, hits = _taint(
            """
            def f(dirty):
                x = dirty + 1
                sink(value=x)
            """,
            {"dirty"},
        )
        assert ("src", "dirty") in hits["sink"]

    def test_seam_taints_only_listed_positions(self):
        def seams(call):
            if isinstance(call.func, ast.Name) and call.func.id == "split":
                return [("seam", "split")], [1]
            return None

        _, hits = _taint(
            """
            def f(n):
                train, cal = split(n)
                fit(train)
                score(cal)
            """,
            set(),
            seams=seams,
        )
        assert not hits["fit"]
        assert ("seam", "split") in hits["score"]

    def test_branch_merge_unions_labels(self):
        _, hits = _taint(
            """
            def f(dirty, flag):
                if flag:
                    x = dirty
                else:
                    x = 0
                sink(x)
            """,
            {"dirty"},
        )
        assert ("src", "dirty") in hits["sink"]

    def test_sanitizer_calls_drop_taint(self):
        _, hits = _taint(
            """
            def f(dirty):
                n = len(dirty)
                sink(n)
            """,
            {"dirty"},
        )
        assert not hits["sink"]

    def test_augassign_accumulates(self):
        _, hits = _taint(
            """
            def f(dirty):
                acc = 0
                acc += dirty
                sink(acc)
            """,
            {"dirty"},
        )
        assert ("src", "dirty") in hits["sink"]


class TestCallGraph:
    def test_resolves_across_modules(self):
        project = _project(
            pkg__lib="""
            def target():
                return 0
            """,
            pkg__app="""
            from pkg.lib import target

            def run():
                return target()
            """,
        )
        graph = build_call_graph(project)
        assert "pkg.lib.target" in graph.callees("pkg.app.run")

    def test_resolves_nested_and_self_methods(self):
        project = _project(
            mod="""
            class Runner:
                def outer(self):
                    def inner():
                        return 1
                    self.helper()
                    return inner()

                def helper(self):
                    return 2
            """
        )
        graph = build_call_graph(project)
        callees = graph.callees("mod.Runner.outer")
        assert "mod.Runner.outer.<locals>.inner" in callees
        assert "mod.Runner.helper" in callees

    def test_bare_reference_counts_as_edge(self):
        project = _project(
            mod="""
            def task():
                return 1

            def submitter(pool):
                pool.submit(task)
            """
        )
        graph = build_call_graph(project)
        assert "mod.task" in graph.callees("mod.submitter")

    def test_reachability_is_transitive(self):
        project = _project(
            mod="""
            def c():
                return 1

            def b():
                return c()

            def a():
                return b()
            """
        )
        graph = build_call_graph(project)
        assert {"mod.a", "mod.b", "mod.c"} <= graph.reachable({"mod.a"})

    def test_unresolvable_reference_is_none(self):
        project = _project(mod="def f(x):\n    return x.method()\n")
        fn = project.functions["mod.f"]
        call = next(
            n for n in ast.walk(fn.node) if isinstance(n, ast.Call)
        )
        assert resolve_function_reference(project, fn, call.func) is None


class TestProjectContext:
    def test_cfg_cached_and_lambda_wrapped(self):
        project = _project(
            mod="""
            square = lambda v: v * v

            def f():
                return 1
            """
        )
        context = ProjectContext(project)
        first = context.cfg("mod.f")
        assert context.cfg("mod.f") is first
