"""REP2xx -- concurrency / determinism rules.

The repository's parallel primitives (``repro.perf.parallel`` and the
runtime watchdog) promise one thing: for a pure task function, results
are bit-identical for every worker count and schedule.  These rules
find the ways task bodies quietly break that purity:

* **REP201 closure-mutates-captured-state** -- a function submitted to a
  parallel primitive mutates a mutable container captured from the
  enclosing scope (``results.append`` from inside a pooled closure):
  completion order becomes data.
* **REP202 nondeterministic-rng-in-task** -- unseeded ``default_rng()``,
  module-level generator objects, or global-state ``random.*`` calls
  reachable from a parallel task body: the draw depends on scheduling.
* **REP203 unordered-iteration** -- iterating a ``set`` into an ordered
  result (list, tuple, join, accumulation): set order varies with hash
  seeding and across processes.  (Dict iteration is insertion-ordered
  in supported Pythons and deliberately not flagged.)
* **REP204 wall-clock-in-fingerprint** -- wall-clock or entropy values
  flowing into checkpoint fingerprints, hashes, or ``seed=``/``jitter=``
  arguments: resume identity and retry schedules stop being functions
  of the configuration.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.devtools.analysis.callgraph import (
    owned_nodes,
    resolve_function_reference,
)
from repro.devtools.analysis.dataflow import assigned_names
from repro.devtools.analysis.interproc import (
    ProjectContext,
    SinkSpec,
    compute_param_leaks,
    find_source_flows,
)
from repro.devtools.analysis.project import (
    FunctionInfo,
    ModuleInfo,
    resolve_dotted,
)
from repro.devtools.diagnostics import Diagnostic
from repro.devtools.rules.base import AnalysisRule

__all__ = [
    "ClosureCaptureRule",
    "TaskRngRule",
    "UnorderedIterationRule",
    "WallClockFingerprintRule",
]

# Callee names that submit work to a pool / subprocess; the first
# positional argument is the task function.
_SUBMIT_NAMES = frozenset(
    {
        "parallel_map",
        "parallel_map_outcomes",
        "run_in_subprocess",
        "submit",
        "map_async",
        "apply_async",
    }
)
# ``executor.map(fn, ...)`` -- only flagged when the receiver looks like
# an executor/pool, so ``builtins.map`` and ``Pool.map`` both resolve
# sensibly without type inference.
_EXECUTOR_HINTS = ("pool", "executor", "ex")

_MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "setdefault",
        "pop",
        "popitem",
        "remove",
        "discard",
        "clear",
        "__setitem__",
    }
)
_CONTAINER_CONSTRUCTORS = frozenset(
    {"list", "dict", "set", "bytearray", "defaultdict", "OrderedDict", "Counter", "deque"}
)


def _is_submission_call(call: ast.Call) -> bool:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id in _SUBMIT_NAMES
    if isinstance(func, ast.Attribute):
        if func.attr in _SUBMIT_NAMES:
            return True
        if func.attr == "map" and isinstance(func.value, ast.Name):
            receiver = func.value.id.lower()
            return any(hint in receiver for hint in _EXECUTOR_HINTS)
    return False


def _task_argument(call: ast.Call) -> Optional[ast.expr]:
    """The task-function argument of a submission call."""
    for keyword in call.keywords:
        if keyword.arg == "fn":
            return keyword.value
    return call.args[0] if call.args else None


def _submission_sites(
    context: ProjectContext,
) -> List[Tuple[FunctionInfo, ast.Call, ast.expr]]:
    """(enclosing function, submission call, task expression) triples."""
    sites = []
    for function in context.functions():
        for node in owned_nodes(function):
            if isinstance(node, ast.Call) and _is_submission_call(node):
                task = _task_argument(node)
                if task is not None:
                    sites.append((function, node, task))
    return sites


def _container_bindings(function: FunctionInfo) -> Set[str]:
    """Names bound to builtin mutable containers in ``function``'s scope."""
    containers: Set[str] = set()
    for node in owned_nodes(function):
        if isinstance(node, ast.Assign):
            value = node.value
            is_container = isinstance(
                value, (ast.List, ast.Dict, ast.Set, ast.ListComp, ast.DictComp, ast.SetComp)
            ) or (
                isinstance(value, ast.Call)
                and isinstance(value.func, ast.Name)
                and value.func.id in _CONTAINER_CONSTRUCTORS
            )
            if not is_container:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    containers.add(target.id)
    return containers


def _local_bindings(task_node: ast.AST) -> Set[str]:
    """Names the task function binds itself (params + assignments)."""
    bound: Set[str] = set()
    if isinstance(task_node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
        args = task_node.args
        for arg in args.posonlyargs + args.args + args.kwonlyargs:
            bound.add(arg.arg)
        if args.vararg:
            bound.add(args.vararg.arg)
        if args.kwarg:
            bound.add(args.kwarg.arg)
    for node in ast.walk(task_node):
        if isinstance(node, ast.stmt):
            bound.update(assigned_names(node))
    return bound


class ClosureCaptureRule(AnalysisRule):
    """REP201: parallel task closures must not mutate captured containers."""

    rule_id = "REP201"
    name = "closure-mutates-captured-state"
    summary = (
        "a function submitted to a parallel primitive mutates a mutable "
        "container captured from the enclosing scope"
    )
    rationale = (
        "appends/stores from pooled workers interleave in completion "
        "order, so the accumulated result depends on scheduling; return "
        "values instead -- parallel_map already restores input order"
    )

    def check(self, context: ProjectContext) -> List[Diagnostic]:
        findings: List[Diagnostic] = []
        for function, call, task_expr in _submission_sites(context):
            module = context.module_of(function)
            if module is None:
                continue
            task_node = self._resolve_task(context, function, task_expr)
            if task_node is None:
                continue
            captured_containers = _container_bindings(function)
            local = _local_bindings(task_node)
            nonlocals: Set[str] = set()
            for node in ast.walk(task_node):
                if isinstance(node, ast.Nonlocal):
                    nonlocals.update(node.names)
            local -= nonlocals
            for node, name in self._mutations(task_node):
                if name in local:
                    continue
                if name not in captured_containers and name not in nonlocals:
                    continue
                findings.append(
                    self.diagnostic(
                        node,
                        module,
                        f"task function mutates captured {name!r} (submitted "
                        f"to a parallel primitive at line "
                        f"{call.lineno}); results become completion-order "
                        "dependent -- return values and let the map collect "
                        "them in input order",
                    )
                )
        return findings

    def _resolve_task(
        self,
        context: ProjectContext,
        function: FunctionInfo,
        task_expr: ast.expr,
    ) -> Optional[ast.AST]:
        if isinstance(task_expr, ast.Lambda):
            return task_expr
        qualname = resolve_function_reference(context.project, function, task_expr)
        if qualname is None:
            return None
        return context.project.functions[qualname].node

    def _mutations(self, task_node: ast.AST) -> Iterable[Tuple[ast.AST, str]]:
        for node in ast.walk(task_node):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                receiver = node.func.value
                if (
                    isinstance(receiver, ast.Name)
                    and node.func.attr in _MUTATING_METHODS
                ):
                    yield node, receiver.id
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Subscript) and isinstance(
                        target.value, ast.Name
                    ):
                        yield node, target.value.id
                    elif isinstance(node, ast.AugAssign) and isinstance(
                        target, ast.Name
                    ):
                        # Plain ``x += 1`` on a captured name needs an
                        # explicit nonlocal; the nonlocal filter above
                        # decides whether this one is a capture.
                        yield node, target.id
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if isinstance(target, ast.Subscript) and isinstance(
                        target.value, ast.Name
                    ):
                        yield node, target.value.id


_GLOBAL_RNG_CONSTRUCTORS = frozenset(
    {"default_rng", "Generator", "RandomState"}
)
_STDLIB_RANDOM = "random"


class TaskRngRule(AnalysisRule):
    """REP202: RNG draws inside parallel task bodies must be seeded + local."""

    rule_id = "REP202"
    name = "nondeterministic-rng-in-task"
    summary = (
        "unseeded default_rng(), module-level generator state, or "
        "global random.* reachable from a parallel task body"
    )
    rationale = (
        "a generator shared across workers (or seeded from entropy) makes "
        "draws depend on scheduling; derive per-task seeds with "
        "spawn_seeds/SeedSequence and construct the generator inside the task"
    )

    def check(self, context: ProjectContext) -> List[Diagnostic]:
        findings: List[Diagnostic] = []
        roots: Set[str] = set()
        lambda_tasks: List[Tuple[FunctionInfo, ast.Lambda]] = []
        for function, _call, task_expr in _submission_sites(context):
            if isinstance(task_expr, ast.Lambda):
                lambda_tasks.append((function, task_expr))
                continue
            qualname = resolve_function_reference(
                context.project, function, task_expr
            )
            if qualname is not None:
                roots.add(qualname)
        reachable = context.callgraph.reachable(roots)
        for qualname in sorted(reachable):
            function = context.project.functions.get(qualname)
            module = context.module_of(function) if function else None
            if function is None or module is None:
                continue
            findings.extend(
                self._check_body(module, owned_nodes(function), qualname)
            )
        for function, lam in lambda_tasks:
            module = context.module_of(function)
            if module is None:
                continue
            findings.extend(
                self._check_body(
                    module, list(ast.walk(lam)), f"{function.qualname}.<lambda>"
                )
            )
        return findings

    def _check_body(
        self, module: ModuleInfo, nodes: Sequence[ast.AST], where: str
    ) -> List[Diagnostic]:
        findings: List[Diagnostic] = []
        for node in nodes:
            if isinstance(node, ast.Call):
                dotted = resolve_dotted(module, node.func)
                terminal = dotted.rsplit(".", 1)[-1] if dotted else ""
                if terminal == "default_rng" and not node.args and not node.keywords:
                    findings.append(
                        self.diagnostic(
                            node,
                            module,
                            "unseeded default_rng() inside a parallel task "
                            f"body ({where}): every worker draws fresh "
                            "entropy; derive the seed from "
                            "spawn_seeds/SeedSequence((seed, task_key))",
                        )
                    )
                elif dotted.startswith(f"{_STDLIB_RANDOM}."):
                    findings.append(
                        self.diagnostic(
                            node,
                            module,
                            f"global-state {dotted}() called from a parallel "
                            f"task body ({where}); the stdlib random module "
                            "shares one hidden state across every worker -- "
                            "use a per-task np.random.Generator",
                        )
                    )
                elif (
                    dotted.startswith("numpy.random.")
                    and terminal not in _GLOBAL_RNG_CONSTRUCTORS
                    # Capitalised terminals are bit-generator / seeding
                    # classes (SeedSequence, PCG64...), not global draws.
                    and not terminal[:1].isupper()
                ):
                    findings.append(
                        self.diagnostic(
                            node,
                            module,
                            f"legacy global-state {dotted}() called from a "
                            f"parallel task body ({where}); np.random.* draws "
                            "from one process-wide state -- use a per-task "
                            "Generator from a spawned seed",
                        )
                    )
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                bound = module.module_globals.get(node.id)
                if (
                    isinstance(bound, ast.Call)
                    and resolve_dotted(module, bound.func)
                    .rsplit(".", 1)[-1]
                    in _GLOBAL_RNG_CONSTRUCTORS
                ):
                    findings.append(
                        self.diagnostic(
                            node,
                            module,
                            f"module-level generator {node.id!r} used inside "
                            f"a parallel task body ({where}); a shared "
                            "Generator advances in completion order -- "
                            "construct one per task from a spawned seed",
                        )
                    )
        return findings


_ORDER_INDEPENDENT_WRAPPERS = frozenset(
    {"sorted", "set", "frozenset", "len", "any", "all", "max", "min", "sum"}
)
_ORDERED_CONSUMERS = frozenset({"list", "tuple", "enumerate"})


class UnorderedIterationRule(AnalysisRule):
    """REP203: set iteration must not feed ordered results."""

    rule_id = "REP203"
    name = "unordered-iteration"
    summary = (
        "iteration over a set feeding an ordered result (list, join, "
        "accumulation) without sorted()"
    )
    rationale = (
        "set order depends on hash seeding and differs across processes; "
        "fingerprints and parallel-merged results built from it are not "
        "reproducible -- wrap the set in sorted()"
    )

    def check(self, context: ProjectContext) -> List[Diagnostic]:
        findings: List[Diagnostic] = []
        for module in context.project.modules.values():
            set_vars = self._set_typed_names(module.tree)
            for node in ast.walk(module.tree):
                findings.extend(self._check_node(module, node, set_vars))
        return findings

    def _set_typed_names(self, tree: ast.Module) -> Set[str]:
        """Names assigned from set-typed expressions, anywhere in the module."""
        names: Set[str] = set()
        # Two passes so ``b = a`` after ``a = set()`` resolves.
        for _ in range(2):
            for node in ast.walk(tree):
                if isinstance(node, ast.Assign):
                    if self._is_set_expr(node.value, names):
                        for target in node.targets:
                            if isinstance(target, ast.Name):
                                names.add(target.id)
        return names

    def _is_set_expr(self, expr: ast.expr, set_vars: Set[str]) -> bool:
        if isinstance(expr, (ast.Set, ast.SetComp)):
            return True
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Name):
            if expr.func.id in ("set", "frozenset"):
                return True
        if isinstance(expr, ast.Name):
            return expr.id in set_vars
        if isinstance(expr, ast.BinOp) and isinstance(
            expr.op, (ast.BitOr, ast.BitAnd, ast.Sub, ast.BitXor)
        ):
            return self._is_set_expr(expr.left, set_vars) or self._is_set_expr(
                expr.right, set_vars
            )
        if isinstance(expr, ast.Call) and isinstance(expr.func, ast.Attribute):
            if expr.func.attr in (
                "union",
                "intersection",
                "difference",
                "symmetric_difference",
            ):
                return self._is_set_expr(expr.func.value, set_vars)
        return False

    def _check_node(
        self, module: ModuleInfo, node: ast.AST, set_vars: Set[str]
    ) -> List[Diagnostic]:
        findings: List[Diagnostic] = []
        if isinstance(node, ast.For) and self._is_set_expr(node.iter, set_vars):
            if self._has_ordered_effect(node):
                findings.append(
                    self.diagnostic(
                        node,
                        module,
                        "for-loop over a set accumulates an ordered result; "
                        "set order is hash-seed dependent -- iterate "
                        "sorted(...) instead",
                    )
                )
        elif isinstance(node, (ast.ListComp, ast.GeneratorExp)):
            if any(
                self._is_set_expr(gen.iter, set_vars) for gen in node.generators
            ) and not self._order_independent_context(node):
                findings.append(
                    self.diagnostic(
                        node,
                        module,
                        "comprehension over a set builds an ordered sequence; "
                        "set order is hash-seed dependent -- iterate "
                        "sorted(...) instead",
                    )
                )
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
            if (
                node.func.id in _ORDERED_CONSUMERS
                and node.args
                and self._is_set_expr(node.args[0], set_vars)
            ):
                findings.append(
                    self.diagnostic(
                        node,
                        module,
                        f"{node.func.id}() over a set produces a hash-seed "
                        "dependent order -- use sorted(...)",
                    )
                )
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
            if (
                node.func.attr == "join"
                and node.args
                and self._is_set_expr(node.args[0], set_vars)
            ):
                findings.append(
                    self.diagnostic(
                        node,
                        module,
                        "str.join over a set produces a hash-seed dependent "
                        "string -- join sorted(...) instead",
                    )
                )
        return findings

    def _order_independent_context(self, node: ast.AST) -> bool:
        parent = getattr(node, "_reprolint_parent", None)
        return (
            isinstance(parent, ast.Call)
            and isinstance(parent.func, ast.Name)
            and parent.func.id in _ORDER_INDEPENDENT_WRAPPERS
        )

    def _has_ordered_effect(self, loop: ast.For) -> bool:
        for node in ast.walk(loop):
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
                if node.func.attr in ("append", "extend", "insert", "write"):
                    return True
            elif isinstance(node, ast.AugAssign):
                return True
            elif isinstance(node, (ast.Yield, ast.YieldFrom)):
                return True
        return False


_CLOCK_SOURCES = frozenset(
    {
        "time.time",
        "time.time_ns",
        "time.monotonic",
        "time.monotonic_ns",
        "time.perf_counter",
        "time.perf_counter_ns",
        "time.process_time",
        "os.urandom",
        "uuid.uuid1",
        "uuid.uuid4",
        "secrets.token_bytes",
        "secrets.token_hex",
        "secrets.randbits",
    }
)
_CLOCK_TERMINALS = frozenset({"now", "utcnow", "today"})
_FINGERPRINT_SINKS = frozenset(
    {
        "cell_fingerprint",
        "fingerprint",
        "md5",
        "sha1",
        "sha256",
        "sha512",
        "blake2b",
        "blake2s",
    }
)
_SEED_KWARGS = frozenset({"seed", "jitter", "random_state"})


class WallClockFingerprintRule(AnalysisRule):
    """REP204: wall-clock/entropy must never reach fingerprints or seeds."""

    rule_id = "REP204"
    name = "wall-clock-in-fingerprint"
    summary = (
        "time/entropy values flowing into checkpoint fingerprints, "
        "hashes, or seed=/jitter= arguments"
    )
    rationale = (
        "a fingerprint containing the clock never matches on resume and a "
        "seed from entropy is a different experiment every run; identity "
        "and jitter must be functions of the configuration only"
    )

    def _is_clock_source(self, module: ModuleInfo, expr: ast.expr) -> bool:
        if not isinstance(expr, ast.Call):
            return False
        dotted = resolve_dotted(module, expr.func)
        if dotted in _CLOCK_SOURCES:
            return True
        if dotted.startswith("datetime.") and dotted.rsplit(".", 1)[-1] in (
            _CLOCK_TERMINALS
        ):
            return True
        return False

    def check(self, context: ProjectContext) -> List[Diagnostic]:
        sink = SinkSpec(
            call_names=_FINGERPRINT_SINKS, keyword_names=_SEED_KWARGS
        )
        leaks = compute_param_leaks(context, sink)

        def sources_for(function: FunctionInfo):
            module = context.module_of(function)

            def expr_sources(expr: ast.expr):
                if module is not None and self._is_clock_source(module, expr):
                    dotted = resolve_dotted(module, expr.func)  # type: ignore[attr-defined]
                    return [("clock", dotted, expr.lineno)]
                return []

            return expr_sources

        flows = find_source_flows(
            context,
            expr_sources_for=sources_for,
            seams_for=lambda function: None,
            sink=sink,
            leaks=leaks,
        )
        findings: List[Diagnostic] = []
        for flow in flows:
            module = context.module_of(flow.function)
            if module is None:
                continue
            labels = sorted(
                str(label[1]) for label in flow.labels if isinstance(label, tuple)
            )
            origin = ", ".join(labels) or "a wall-clock/entropy call"
            via = f" via {flow.via}" if flow.via else ""
            findings.append(
                self.diagnostic(
                    flow.call,
                    module,
                    f"value derived from {origin} reaches a fingerprint/seed "
                    f"sink{via}; checkpoint identity and retry jitter must "
                    "depend only on configuration",
                )
            )
        return findings
