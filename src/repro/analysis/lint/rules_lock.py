"""Lock discipline (RPR1xx): annotated shared state only moves under its lock.

Threaded modules (metrics, observability rings, the durability saver)
declare which instance attributes are shared across threads and which
lock guards them:

* inline, on the attribute's assignment::

      self._events = deque()  # guarded-by: _lock

  Several names (``# guarded-by: _lock, _idle``) mean the locks alias
  one underlying mutex (a ``Condition`` built over the ``Lock``) — any
  of them satisfies the rule.

* or in a module manifest, for classes whose ``__init__`` is generated::

      GUARDED_BY = {"EventJournal._events": "_lock"}

Every later read or write of a guarded attribute must then sit inside a
``with self.<lock>:`` block (lexically — including nested functions), or
inside a method annotated ``# holds-lock: <lock>`` (a helper documented
as called with the lock held).  ``__init__`` is exempt: the object is
not yet shared while it is being built.
"""

from __future__ import annotations

import ast
import re

from repro.analysis.lint.framework import (
    Finding,
    LintConfig,
    Rule,
    SourceModule,
    dotted_name,
    register,
)

__all__ = ["GuardedAttributeRule", "UnknownGuardLockRule"]

_GUARDED_BY = re.compile(r"#.*guarded-by:\s*(?P<locks>[A-Za-z0-9_,\s]+)")
_HOLDS_LOCK = re.compile(r"#.*holds-lock:\s*(?P<locks>[A-Za-z0-9_,\s]+)")

#: Methods whose body runs before/after the object is shared.
_EXEMPT_METHODS = frozenset({"__init__", "__new__", "__init_subclass__"})


def _parse_locks(raw: str) -> frozenset[str]:
    return frozenset(name.strip() for name in raw.split(",") if name.strip())


def _self_attr(node: ast.AST) -> str | None:
    """``attr`` when ``node`` is exactly ``self.attr``; else None."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def _manifest(module: SourceModule) -> dict[str, frozenset[str]]:
    """Module-level ``GUARDED_BY = {"Class.attr": "_lock"}`` entries."""
    entries: dict[str, frozenset[str]] = {}
    for node in module.tree.body:
        if not (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id == "GUARDED_BY"
            and isinstance(node.value, ast.Dict)
        ):
            continue
        for key, value in zip(node.value.keys, node.value.values):
            if isinstance(key, ast.Constant) and isinstance(value, ast.Constant):
                entries[str(key.value)] = _parse_locks(str(value.value))
    return entries


class _ClassAudit(ast.NodeVisitor):
    """Walk one class body tracking which guard locks are lexically held."""

    def __init__(
        self,
        rule: Rule,
        module: SourceModule,
        guarded: dict[str, frozenset[str]],
    ) -> None:
        self.rule = rule
        self.module = module
        self.guarded = guarded
        self.held: list[frozenset[str]] = []
        self.findings: list[Finding] = []

    def _currently_held(self) -> frozenset[str]:
        merged: set[str] = set()
        for locks in self.held:
            merged |= locks
        return frozenset(merged)

    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        if node.name in _EXEMPT_METHODS and not self.held:
            return
        comment = self.module.comment_on_or_above(node.lineno)
        holds = _HOLDS_LOCK.search(comment)
        pushed = False
        if holds:
            self.held.append(_parse_locks(holds.group("locks")))
            pushed = True
        self.generic_visit(node)
        if pushed:
            self.held.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_ClassDef(self, node: ast.ClassDef) -> None:
        # Nested classes get their own audit pass from the rule driver.
        return

    def visit_With(self, node: ast.With) -> None:
        acquired: set[str] = set()
        for item in node.items:
            # The context expression itself runs unguarded.
            self.visit(item.context_expr)
            attr = _self_attr(item.context_expr)
            if attr is not None:
                acquired.add(attr)
            if item.optional_vars is not None:
                self.visit(item.optional_vars)
        self.held.append(frozenset(acquired))
        for statement in node.body:
            self.visit(statement)
        self.held.pop()

    visit_AsyncWith = visit_With

    def visit_Attribute(self, node: ast.Attribute) -> None:
        attr = _self_attr(node)
        if attr is not None and attr in self.guarded:
            required = self.guarded[attr]
            if not (required & self._currently_held()):
                access = (
                    "write" if isinstance(node.ctx, (ast.Store, ast.Del)) else "read"
                )
                lock_names = " or ".join(sorted(required))
                self.findings.append(
                    self.rule.finding(
                        self.module,
                        node,
                        f"{access} of `self.{attr}` (guarded-by {lock_names}) "
                        f"outside `with self.{lock_names.split(' or ')[0]}:`; "
                        "acquire the lock or annotate the helper "
                        f"`# holds-lock: {sorted(required)[0]}`",
                    )
                )
        self.generic_visit(node)


def _class_guard_map(
    module: SourceModule,
    cls: ast.ClassDef,
    manifest: dict[str, frozenset[str]],
) -> tuple[dict[str, frozenset[str]], dict[str, int], set[str]]:
    """(attr -> locks, annotation lines, attrs assigned anywhere in class)."""
    guarded: dict[str, frozenset[str]] = {}
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
            comment = module.comments.get(node.lineno, "")
            match = _GUARDED_BY.search(comment)
            if match:
                locks = _parse_locks(match.group("locks"))
                guarded[attr] = guarded.get(attr, frozenset()) | locks
                annotation_lines.setdefault(attr, node.lineno)
    for key, locks in manifest.items():
        owner, _, attr = key.rpartition(".")
        if owner in ("", cls.name):
            guarded[attr] = guarded.get(attr, frozenset()) | locks
            annotation_lines.setdefault(attr, cls.lineno)
    return guarded, annotation_lines, assigned


@register
class GuardedAttributeRule(Rule):
    code = "RPR101"
    summary = "guarded-by attribute accessed outside its `with <lock>` block"

    def run(self, module: SourceModule, config: LintConfig) -> list[Finding]:
        manifest = _manifest(module)
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            guarded, _, _ = _class_guard_map(module, node, manifest)
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
        manifest = _manifest(module)
        findings: list[Finding] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            guarded, lines, assigned = _class_guard_map(module, node, manifest)
            for attr, locks in sorted(guarded.items()):
                missing = sorted(lock for lock in locks if lock not in assigned)
                if missing:
                    findings.append(
                        Finding(
                            file=module.path,
                            rule=self.code,
                            line=lines.get(attr, node.lineno),
                            col=node.col_offset,
                            symbol=module.symbol_for(node),
                            message=(
                                f"`self.{attr}` declares guarded-by "
                                f"{', '.join(missing)} but {node.name} never "
                                "assigns that lock; fix the annotation or "
                                "create the lock in __init__"
                            ),
                        )
                    )
        return findings
