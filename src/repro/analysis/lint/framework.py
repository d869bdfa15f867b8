"""Rule framework for the project-invariant linter.

One parse per file: a :class:`SourceModule` bundles the AST with
everything the rules keep re-deriving — the comment map (via
:mod:`tokenize`, so a ``#`` inside a string never reads as an
annotation), per-line ``# repro: noqa[...]`` suppressions, module-level
``# repro: <pragma>`` markers, import aliasing (``np`` → ``numpy``,
``from time import sleep`` → ``time.sleep``), parent links and enclosing
``Class.method`` symbols for baseline keys.

Rules are small classes registered by module import (:func:`register`);
:func:`analyze_source` runs every registered rule over one module and
applies the suppression filter centrally, so a rule only ever *emits*.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass, field, replace
from pathlib import Path

__all__ = [
    "Finding",
    "LintConfig",
    "Rule",
    "SourceModule",
    "all_rules",
    "analyze_file",
    "analyze_paths",
    "analyze_source",
    "dotted_name",
    "register",
    "resolve_call",
    "rule_table",
]

_CODE_PATTERN = re.compile(r"^RPR\d{3}$")

# ``# repro: noqa`` or ``# repro: noqa[RPR001,RPR101]`` — blanket or coded.
_NOQA_PATTERN = re.compile(r"#\s*repro:\s*noqa(?:\[(?P<codes>[A-Z0-9,\s]+)\])?")
# Any other ``# repro: <word>`` comment is a module pragma (wall-clock, ...).
_PRAGMA_PATTERN = re.compile(r"#\s*repro:\s*(?!noqa)(?P<pragma>[a-z][a-z0-9-]*)")

#: Sentinel stored in the noqa map for a blanket (un-coded) suppression.
NOQA_ALL = "ALL"


@dataclass(frozen=True)
class Finding:
    """One rule violation at one source location.

    ``symbol`` is the enclosing ``Class.method`` (or function) qualname —
    the baseline matches on (file, rule, symbol), never on line numbers,
    so unrelated edits above a grandfathered finding cannot resurrect it.
    """

    file: str
    rule: str
    line: int
    col: int
    symbol: str
    message: str

    @property
    def key(self) -> tuple[str, str, str]:
        return (self.file, self.rule, self.symbol)

    def to_dict(self) -> dict[str, object]:
        return {
            "file": self.file,
            "rule": self.rule,
            "line": self.line,
            "col": self.col,
            "symbol": self.symbol,
            "message": self.message,
        }

    def render(self) -> str:
        return (
            f"{self.file}:{self.line}:{self.col}: "
            f"{self.rule} [{self.symbol}] {self.message}"
        )


@dataclass(frozen=True)
class LintConfig:
    """Project policy knobs; the defaults ARE the repo's policy.

    ``wall_clock_modules`` are path suffixes (posix form) allowed to read
    the wall clock: the CLI and the benchmarks' conftest report elapsed
    run time.  Everything else
    must take a clock value as an argument.  A module can also opt in
    locally with a ``# repro: wall-clock`` comment.
    """

    wall_clock_modules: tuple[str, ...] = (
        # Duration measurement (perf_counter) is allowed everywhere; the
        # entries here may additionally read *wall-clock timestamps*.
        "repro/cli.py",
        "benchmarks/conftest.py",
    )
    select: tuple[str, ...] = ()

    def module_allows_wall_clock(self, module: SourceModule) -> bool:
        if "wall-clock" in module.pragmas:
            return True
        path = module.path.replace("\\", "/")
        return any(path.endswith(suffix) for suffix in self.wall_clock_modules)


DEFAULT_CONFIG = LintConfig()


@dataclass
class SourceModule:
    """One parsed file plus the derived maps every rule shares."""

    path: str
    text: str
    tree: ast.Module
    comments: dict[int, str] = field(default_factory=dict)
    noqa: dict[int, set[str]] = field(default_factory=dict)
    pragmas: set[str] = field(default_factory=set)
    #: local name -> dotted module path (``np`` -> ``numpy``).
    module_aliases: dict[str, str] = field(default_factory=dict)
    #: local name -> dotted origin (``sleep`` -> ``time.sleep``).
    from_imports: dict[str, str] = field(default_factory=dict)
    parents: dict[ast.AST, ast.AST] = field(default_factory=dict)

    @classmethod
    def parse(cls, path: str, text: str) -> SourceModule:
        tree = ast.parse(text, filename=path)
        module = cls(path=path, text=text, tree=tree)
        module._collect_comments()
        module._collect_imports()
        module._link_parents()
        return module

    # ------------------------------------------------------------------
    # Derived maps
    # ------------------------------------------------------------------
    def _collect_comments(self) -> None:
        try:
            tokens = tokenize.generate_tokens(io.StringIO(self.text).readline)
            for token in tokens:
                if token.type != tokenize.COMMENT:
                    continue
                line = token.start[0]
                # Several comments on one line cannot happen; keep last.
                self.comments[line] = token.string
                noqa = _NOQA_PATTERN.search(token.string)
                if noqa:
                    codes = noqa.group("codes")
                    if codes is None:
                        self.noqa[line] = {NOQA_ALL}
                    else:
                        self.noqa[line] = {
                            code.strip()
                            for code in codes.split(",")
                            if code.strip()
                        }
                pragma = _PRAGMA_PATTERN.search(token.string)
                if pragma:
                    self.pragmas.add(pragma.group("pragma"))
        except tokenize.TokenError:
            # A file that parses but does not tokenize cleanly keeps its
            # AST findings; it just loses comment-driven behavior.
            pass

    def _collect_imports(self) -> None:
        for node in ast.walk(self.tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    local = alias.asname or alias.name.split(".")[0]
                    target = alias.name if alias.asname else alias.name.split(".")[0]
                    self.module_aliases[local] = target
            elif isinstance(node, ast.ImportFrom) and node.module and node.level == 0:
                for alias in node.names:
                    if alias.name == "*":
                        continue
                    local = alias.asname or alias.name
                    self.from_imports[local] = f"{node.module}.{alias.name}"

    def _link_parents(self) -> None:
        for parent in ast.walk(self.tree):
            for child in ast.iter_child_nodes(parent):
                self.parents[child] = parent

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def comment_on_or_above(self, line: int) -> str:
        """The comment on ``line``, else the full-line comment just above."""
        if line in self.comments:
            return self.comments[line]
        above = self.comments.get(line - 1, "")
        # Only a *standalone* comment line above counts as an annotation
        # for the def below — a trailing comment on unrelated code does not.
        if above and self.text.splitlines()[line - 2].lstrip().startswith("#"):
            return above
        return ""

    def symbol_for(self, node: ast.AST) -> str:
        """``Class.method`` / ``function`` qualname enclosing ``node``."""
        parts: list[str] = []
        current: ast.AST | None = node
        while current is not None:
            if isinstance(
                current, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                parts.append(current.name)
            current = self.parents.get(current)
        return ".".join(reversed(parts)) if parts else "<module>"

    def suppressed(self, code: str, line: int) -> bool:
        codes = self.noqa.get(line)
        if not codes:
            return False
        return NOQA_ALL in codes or code in codes


def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain; None for anything else."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def resolve_call(module: SourceModule, call: ast.Call) -> str | None:
    """Canonical dotted target of a call, imports resolved.

    ``np.random.seed(...)`` resolves to ``numpy.random.seed`` under
    ``import numpy as np``; ``sleep(...)`` to ``time.sleep`` under
    ``from time import sleep``.  Attribute chains rooted in unknown
    locals (``rng.normal()``, ``self.clock.now()``) resolve with their
    local root untouched, so rules matching canonical stdlib/numpy paths
    never fire on instance methods.
    """
    name = dotted_name(call.func)
    if name is None:
        return None
    root, _, rest = name.partition(".")
    if not rest:
        return module.from_imports.get(name, name)
    if root in module.module_aliases:
        return f"{module.module_aliases[root]}.{rest}"
    if root in module.from_imports:
        return f"{module.from_imports[root]}.{rest}"
    return name


class Rule:
    """One invariant check; subclasses set ``code`` and implement ``run``."""

    code: str = ""
    summary: str = ""

    def run(self, module: SourceModule, config: LintConfig) -> list[Finding]:
        raise NotImplementedError

    def finding(
        self, module: SourceModule, node: ast.AST, message: str
    ) -> Finding:
        return Finding(
            file=module.path,
            rule=self.code,
            line=getattr(node, "lineno", 1),
            col=getattr(node, "col_offset", 0),
            symbol=module.symbol_for(node),
            message=message,
        )


_REGISTRY: dict[str, Rule] = {}


def register(rule_cls: type[Rule]) -> type[Rule]:
    """Class decorator adding a rule to the global registry."""
    if not _CODE_PATTERN.match(rule_cls.code):
        raise ValueError(f"rule code {rule_cls.code!r} must match RPRxxx")
    if rule_cls.code in _REGISTRY and not isinstance(
        _REGISTRY[rule_cls.code], rule_cls
    ):
        raise ValueError(f"duplicate rule code {rule_cls.code}")
    _REGISTRY[rule_cls.code] = rule_cls()
    return rule_cls


def all_rules() -> dict[str, Rule]:
    return dict(sorted(_REGISTRY.items()))


def rule_table() -> list[tuple[str, str]]:
    """(code, summary) rows for docs and ``--rules`` output."""
    return [(code, rule.summary) for code, rule in all_rules().items()]


def analyze_source(
    text: str,
    path: str = "<string>",
    config: LintConfig = DEFAULT_CONFIG,
) -> list[Finding]:
    """Run every registered (selected) rule over one source text."""
    module = SourceModule.parse(path, text)
    findings: list[Finding] = []
    for code, rule in all_rules().items():
        if config.select and code not in config.select:
            continue
        for finding in rule.run(module, config):
            if not module.suppressed(finding.rule, finding.line):
                findings.append(finding)
    findings.sort(key=lambda f: (f.file, f.line, f.col, f.rule))
    return findings


def analyze_file(
    path: Path, root: Path, config: LintConfig = DEFAULT_CONFIG
) -> list[Finding]:
    text = path.read_text(encoding="utf-8")
    try:
        rel = path.resolve().relative_to(root.resolve())
        shown = rel.as_posix()
    except ValueError:
        shown = path.as_posix()
    try:
        return analyze_source(text, shown, config)
    except SyntaxError as error:
        return [
            Finding(
                file=shown,
                rule="RPR000",
                line=error.lineno or 1,
                col=error.offset or 0,
                symbol="<module>",
                message=f"file does not parse: {error.msg}",
            )
        ]


def analyze_paths(
    paths: list[Path], root: Path, config: LintConfig = DEFAULT_CONFIG
) -> list[Finding]:
    """Lint files and directory trees; deterministic order, one parse each."""
    files: list[Path] = []
    for path in paths:
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    findings: list[Finding] = []
    for file in files:
        findings.extend(analyze_file(file, root, config))
    return findings


def with_select(config: LintConfig, codes: tuple[str, ...]) -> LintConfig:
    return replace(config, select=codes)
