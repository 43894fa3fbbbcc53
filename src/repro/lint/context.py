"""Per-file analysis context shared by every rule.

One :class:`ModuleUnderLint` is built per file: the parsed AST, the
dotted module name (derived from the path, or overridden by a
``# repro: lint-module[...]`` comment so fixture snippets can pretend to
live anywhere), the suppression table parsed from
``# repro: lint-ok[RULE,...]`` comments, and the source ranges of
classes implementing the Protocol interface (determinism rules apply
inside those regardless of the module's package).

The tree is walked exactly once, at construction, into a node index:
rules ask :meth:`ModuleUnderLint.nodes` for the node types they inspect
and read the shared facts derived from it (import aliases, enclosing
functions, protocol ranges) instead of re-walking the module.
"""

from __future__ import annotations

import ast
import io
import re
import tokenize
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Iterator, TypeVar, overload

#: suppression comment: ``# repro: lint-ok[DET001]`` or ``[DET001,POOL002]``
_SUPPRESS_RE = re.compile(r"#\s*repro:\s*lint-ok\[([A-Za-z0-9_,\s]*)\]")
#: malformed variant (``lint-ok`` without a bracketed rule list)
_SUPPRESS_LOOSE_RE = re.compile(r"#\s*repro:\s*lint-ok(?!\[)")
#: fixture module override: ``# repro: lint-module[repro.sim.fake]``;
#: anchored at the comment's start (used with ``match``), so a doc comment
#: that merely quotes the syntax -- like this one -- is not an override
_MODULE_RE = re.compile(r"#\s*repro:\s*lint-module\[([A-Za-z0-9_.]+)\]")

#: base-class names marking "this class implements the Protocol
#: interface"; subclass chains in one file are followed transitively.
PROTOCOL_BASE_NAMES = frozenset(
    {"ProtocolProcess", "_CoordinationBase", "DetectorOracle"}
)

#: nodes that open a new stack frame (see :func:`own_scope`)
_SCOPE_NODES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)

_N = TypeVar("_N", bound=ast.AST)
_M = TypeVar("_M", bound=ast.AST)


@dataclass
class Suppression:
    """One parsed ``lint-ok`` comment."""

    line: int
    rules: frozenset[str]


def module_name_for_path(path: Path) -> str | None:
    """The dotted module name, derived from a ``repro`` package root.

    Walks up the path looking for the top-level ``repro`` directory; a
    file outside any ``repro`` tree (e.g. a test fixture) gets ``None``
    and must rely on a ``lint-module`` override to enter package-scoped
    rules.
    """
    parts = list(path.resolve().parts)
    for i in range(len(parts) - 1, -1, -1):
        if parts[i] == "repro":
            dotted = parts[i:-1] + [path.stem]
            if path.stem == "__init__":
                dotted = parts[i:-1]
            return ".".join(dotted)
    return None


def in_packages(module: str | None, packages: tuple[str, ...]) -> bool:
    """Is the dotted ``module`` inside any of the package prefixes?"""
    if module is None:
        return False
    return any(
        module == pkg or module.startswith(pkg + ".") for pkg in packages
    )


def resolve(aliases: dict[str, str], node: ast.expr) -> str | None:
    """Dotted origin of an attribute chain, via an import alias map."""
    parts: list[str] = []
    cur: ast.expr = node
    while isinstance(cur, ast.Attribute):
        parts.append(cur.attr)
        cur = cur.value
    if not isinstance(cur, ast.Name):
        return None
    base = aliases.get(cur.id)
    if base is None:
        return None
    parts.append(base)
    return ".".join(reversed(parts))


def own_scope(*roots: ast.AST) -> Iterator[ast.AST]:
    """Nodes under ``roots`` that run on the roots' own stack frame.

    Nested ``def``/``async def``/``lambda`` bodies are separate scopes
    and are skipped whole (a root that is itself one yields nothing).
    """
    stack: list[ast.AST] = list(roots)
    while stack:
        node = stack.pop()
        if isinstance(node, _SCOPE_NODES):
            continue
        yield node
        stack.extend(ast.iter_child_nodes(node))


class ModuleUnderLint:
    """Everything the rules need to know about one source file."""

    def __init__(self, path: Path, display_path: str, source: str) -> None:
        self.path = path
        self.display_path = display_path
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=str(path))
        self.suppressions: dict[int, Suppression] = {}
        self.malformed_suppressions: list[int] = []
        self.module: str | None = module_name_for_path(path)
        self._scan_comments()
        # The one whole-tree walk: positions in ast.walk order, per type.
        self._walk = list(ast.walk(self.tree))
        self._positions: dict[type[ast.AST], list[int]] = {}
        for pos, node in enumerate(self._walk):
            self._positions.setdefault(type(node), []).append(pos)
        self._aliases: dict[frozenset[str], dict[str, str]] = {}
        self._function_spans = [
            (node.lineno, node.end_lineno or node.lineno, node.name)
            for node in self.nodes(ast.FunctionDef, ast.AsyncFunctionDef)
        ]
        self.protocol_class_ranges = self._find_protocol_classes()

    # -- the node index -----------------------------------------------------

    @overload
    def nodes(self, kind: type[_N], /) -> list[_N]: ...

    @overload
    def nodes(self, kind: type[_N], other: type[_M], /) -> list[_N | _M]: ...

    @overload
    def nodes(
        self,
        kind: type[ast.AST],
        other: type[ast.AST],
        third: type[ast.AST],
        /,
        *more: type[ast.AST],
    ) -> list[ast.AST]: ...

    def nodes(self, *kinds: type[ast.AST]) -> list[Any]:
        """Every node of the given types (subclasses included), in
        ``ast.walk`` order; several types are merged in that order."""
        merged = sorted(
            pos
            for node_type, positions in self._positions.items()
            if issubclass(node_type, kinds)
            for pos in positions
        )
        return [self._walk[pos] for pos in merged]

    def import_aliases(self, tracked: frozenset[str]) -> dict[str, str]:
        """Local name -> dotted origin for imports of the ``tracked`` modules.

        ``import random as r`` -> ``{"r": "random"}``;
        ``from random import shuffle as s`` -> ``{"s": "random.shuffle"}``;
        ``from datetime import datetime`` ->
        ``{"datetime": "datetime.datetime"}``.
        """
        cached = self._aliases.get(tracked)
        if cached is not None:
            return cached
        aliases: dict[str, str] = {}
        for node in self.nodes(ast.Import, ast.ImportFrom):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if root in tracked:
                        aliases[alias.asname or root] = (
                            alias.name if alias.asname else root
                        )
            elif node.module and node.module.split(".")[0] in tracked:
                for alias in node.names:
                    aliases[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )
        self._aliases[tracked] = aliases
        return aliases

    def enclosing_function(self, line: int) -> str | None:
        """Name of the innermost function whose source span holds ``line``."""
        enclosing = [
            (last - first, name)
            for first, last, name in self._function_spans
            if first <= line <= last
        ]
        return min(enclosing)[1] if enclosing else None

    # -- comments -----------------------------------------------------------

    def _scan_comments(self) -> None:
        try:
            tokens = tokenize.generate_tokens(io.StringIO(self.source).readline)
            comments = [
                (tok.start[0], tok.string)
                for tok in tokens
                if tok.type == tokenize.COMMENT
            ]
        except tokenize.TokenError:  # pragma: no cover - ast.parse catches first
            comments = []
        for lineno, text in comments:
            override = _MODULE_RE.match(text)
            if override:
                self.module = override.group(1)
            match = _SUPPRESS_RE.search(text)
            if match:
                rules = frozenset(
                    part.strip() for part in match.group(1).split(",") if part.strip()
                )
                if not rules:
                    self.malformed_suppressions.append(lineno)
                    continue
                # A comment alone on its line covers the next line; a
                # trailing comment covers its own line.
                stripped = self.lines[lineno - 1].strip() if lineno <= len(self.lines) else ""
                target = lineno + 1 if stripped.startswith("#") else lineno
                self.suppressions[target] = Suppression(target, rules)
            elif _SUPPRESS_LOOSE_RE.search(text):
                self.malformed_suppressions.append(lineno)

    def suppressed(self, rule: str, line: int) -> bool:
        """True when ``rule`` is waived at ``line`` by a ``lint-ok`` comment."""
        entry = self.suppressions.get(line)
        return entry is not None and rule in entry.rules

    # -- package / protocol scope -------------------------------------------

    def in_packages(self, packages: tuple[str, ...]) -> bool:
        """Is this module inside any of the dotted package prefixes?"""
        return in_packages(self.module, packages)

    def _find_protocol_classes(self) -> tuple[tuple[int, int], ...]:
        """(first, last) line ranges of Protocol-interface classes."""
        protocol_names = set(PROTOCOL_BASE_NAMES)
        ranges: list[tuple[int, int]] = []
        # Two passes so subclasses of in-file protocol classes count too.
        classes = self.nodes(ast.ClassDef)
        for _ in range(2):
            for node in classes:
                for base in node.bases:
                    name = _base_name(base)
                    if name in protocol_names:
                        protocol_names.add(node.name)
                        span = (node.lineno, node.end_lineno or node.lineno)
                        if span not in ranges:
                            ranges.append(span)
                        break
        return tuple(sorted(ranges))

    def in_protocol_class(self, node: ast.AST) -> bool:
        """Is the node's line inside a Protocol-interface class body?"""
        line = getattr(node, "lineno", None)
        if line is None:
            return False
        return any(first <= line <= last for first, last in self.protocol_class_ranges)


def _base_name(base: ast.expr) -> str | None:
    if isinstance(base, ast.Name):
        return base.id
    if isinstance(base, ast.Attribute):
        return base.attr
    return None
