"""Thread discipline (RPR1xx): threads are confined, shared state is locked.

The serving tier runs on one thread, the event loop.  RPR103 makes that
a checked statement: any call that creates a thread or a lock —
``threading.Thread``/``Lock``/..., a ``ThreadPoolExecutor``,
``asyncio.to_thread``, ``loop.run_in_executor`` — is flagged unless its
module opts out with a ``# repro: threads`` pragma.  Reading thread
state (``threading.get_ident``, ``active_count``) and process pools stay
legal.

A module that owns a thread (the durability manager's checkpoint saver)
declares which instance attribute crosses threads, and which lock guards
it, inline on the attribute's assignment::

    self._saver_error = None  # guarded-by: _saver_lock

Every later read or write of a guarded attribute must then sit inside a
``with self.<lock>:`` block (lexically — including nested functions).
``__init__`` is exempt: the object is not yet shared while it is being
built.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.lint.framework import (
    Finding,
    LintConfig,
    Rule,
    SourceModule,
    register,
    resolve_call,
)

__all__ = ["GuardedAttributeRule", "UnknownGuardLockRule", "ThreadConfinementRule"]

_GUARDED_BY = re.compile(r"#.*guarded-by:\s*(?P<lock>[A-Za-z0-9_]+)")

#: Canonical constructors of a thread, a thread pool or a lock.
THREAD_CONSTRUCTORS = frozenset(
    {
        "threading.Thread",
        "threading.Timer",
        "threading.Lock",
        "threading.RLock",
        "threading.Condition",
        "threading.Semaphore",
        "threading.BoundedSemaphore",
        "threading.Event",
        "threading.Barrier",
        "_thread.start_new_thread",
        "_thread.allocate_lock",
        "concurrent.futures.ThreadPoolExecutor",
        "concurrent.futures.thread.ThreadPoolExecutor",
        "multiprocessing.pool.ThreadPool",
        "asyncio.to_thread",
    }
)

#: Methods whose body runs before/after the object is shared.
_EXEMPT_METHODS = frozenset({"__init__", "__new__", "__init_subclass__"})


def _self_attr(node: ast.AST) -> str | None:
    """``attr`` when ``node`` is exactly ``self.attr``; else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


class _ClassAudit(ast.NodeVisitor):
    """Walk one class body tracking which guard locks are lexically held."""

    def __init__(
        self, rule: Rule, module: SourceModule, guarded: dict[str, str]
    ) -> None:
        self.rule = rule
        self.module = module
        self.guarded = guarded
        self.held: list[str] = []
        self.findings: list[Finding] = []

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if node.name in _EXEMPT_METHODS and not self.held:
            return
        self.generic_visit(node)

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        # Nested classes get their own audit pass from the rule driver.
        return

    def visit_With(self, node: ast.With) -> None:
        acquired: list[str] = []
        for item in node.items:
            # The context expression itself runs unguarded.
            self.visit(item.context_expr)
            attr = _self_attr(item.context_expr)
            if attr is not None:
                acquired.append(attr)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        self.held.extend(acquired)
        for statement in node.body:
            self.visit(statement)
        del self.held[len(self.held) - len(acquired):]

    visit_AsyncWith = visit_With

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = _self_attr(node)
        lock = self.guarded.get(attr) if attr is not None else None
        if lock is not None and lock not in self.held:
            access = "write" if isinstance(node.ctx, (ast.Store, ast.Del)) else "read"
            self.findings.append(
                self.rule.finding(
                    self.module,
                    node,
                    f"{access} of `self.{attr}` (guarded-by {lock}) "
                    f"outside `with self.{lock}:`; acquire the lock",
                )
            )
        self.generic_visit(node)


def _class_guard_map(
    module: SourceModule, cls: ast.ClassDef
) -> tuple[dict[str, str], dict[str, int], set[str]]:
    """(attr -> lock, annotation lines, attrs assigned anywhere in class)."""
    guarded: dict[str, str] = {}
    annotation_lines: dict[str, int] = {}
    assigned: set[str] = set()
    for node in ast.walk(cls):
        targets: list[ast.expr] = []
        if isinstance(node, ast.Assign):
            targets = node.targets
        elif isinstance(node, (ast.AnnAssign, ast.AugAssign)):
            targets = [node.target]
        for target in targets:
            attr = _self_attr(target)
            if attr is None:
                continue
            assigned.add(attr)
            match = _GUARDED_BY.search(module.comments.get(node.lineno, ""))
            if match:
                guarded[attr] = match.group("lock")
                annotation_lines.setdefault(attr, node.lineno)
    return guarded, annotation_lines, assigned


@register
class GuardedAttributeRule(Rule):
    code = "RPR101"
    summary = "guarded-by attribute accessed outside its `with <lock>` block"

    def run(self, module: SourceModule, config: LintConfig) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            guarded, _, _ = _class_guard_map(module, node)
            if not guarded:
                continue
            audit = _ClassAudit(self, module, guarded)
            for statement in node.body:
                audit.visit(statement)
            findings.extend(audit.findings)
        return findings


@register
class UnknownGuardLockRule(Rule):
    code = "RPR102"
    summary = "guarded-by names a lock the class never assigns"

    def run(self, module: SourceModule, config: LintConfig) -> list[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            guarded, lines, assigned = _class_guard_map(module, node)
            for attr, lock in sorted(guarded.items()):
                if lock not in assigned:
                    findings.append(
                        Finding(
                            file=module.path,
                            rule=self.code,
                            line=lines[attr],
                            col=node.col_offset,
                            symbol=module.symbol_for(node),
                            message=(
                                f"`self.{attr}` declares guarded-by {lock} "
                                f"but {node.name} never assigns that lock; "
                                "fix the annotation or create the lock in "
                                "__init__"
                            ),
                        )
                    )
        return findings


def _thread_constructors(module: SourceModule, node: ast.AST) -> list[str]:
    """Thread/lock constructors that ``node`` calls (or a class subclasses)."""
    if isinstance(node, ast.Call):
        if isinstance(node.func, ast.Attribute) and node.func.attr == "run_in_executor":
            return ["run_in_executor"]
        calls = [node]
    elif isinstance(node, ast.ClassDef):
        # ``class Saver(threading.Thread)`` builds threads through its own
        # name; flag the subclass where it is declared.
        calls = [ast.Call(func=base, args=[], keywords=[]) for base in node.bases]
    else:
        return []
    found: list[str] = []
    for call in calls:
        target = resolve_call(module, call)
        if target is not None and target in THREAD_CONSTRUCTORS:
            found.append(target)
    return found


@register
class ThreadConfinementRule(Rule):
    code = "RPR103"
    summary = "thread or lock created outside a `# repro: threads` module"

    def run(self, module: SourceModule, config: LintConfig) -> list[Finding]:
        if "threads" in module.pragmas:
            return []
        return [
            self.finding(
                module,
                node,
                f"`{target}` starts a thread or makes a lock in the thread-"
                "confined tier; run the work on the event loop, or mark the "
                "module that owns a thread with `# repro: threads`",
            )
            for node in ast.walk(module.tree)
            for target in _thread_constructors(module, node)
        ]
