"""Incremental analysis cache for warm re-lints.

The expensive part of a lint run is phase 1: reading, parsing, and
summarizing every file.  The cache stores, per display path, the
content hash plus the serialized :class:`~repro.lint.project.FileSummary`
and that file's rule findings; a warm run re-parses only files whose
bytes changed and rebuilds phase 2 (index, call graph, effect fixpoint,
whole-program rules) from the summaries — which is how an edit to one
helper correctly updates transitive findings in *unchanged* files.

Invalidation is wholesale and conservative: the cache carries the
:func:`analyzer_digest` (a hash of this package's own sources, so any
edit to a rule or to the summary extraction counts as a new analyzer)
and a signature of the selected ruleset (ids and severities); any
mismatch discards every entry.  Corrupt or unreadable cache files
degrade to a cold run, never to an error — the cache is an
accelerator, not a dependency.
"""

from __future__ import annotations

import hashlib
import json
import os
from dataclasses import dataclass
from functools import cache
from pathlib import Path
from typing import TYPE_CHECKING, Any, Sequence

from .findings import LintFinding
from .project import (
    CallSite,
    ClassDecl,
    FileSummary,
    FunctionDecl,
    IntrinsicEffect,
    Ref,
    SpecPlacement,
)

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .registry import Rule

#: cache file name inside the cache directory
CACHE_FILE = "analysis.json"

#: the analyzer whose sources key the cache: this package
_PACKAGE_DIR = Path(__file__).resolve().parent


@cache
def analyzer_digest() -> str:
    """sha256 over the analyzer's ``.py`` sources, sorted by path.

    Cached findings and summaries are only as good as the code that
    produced them, so the digest — not a hand-bumped version number —
    is what a cache must match to be reused.
    """
    digest = hashlib.sha256()
    for path in sorted(_PACKAGE_DIR.rglob("*.py")):
        digest.update(path.relative_to(_PACKAGE_DIR).as_posix().encode("utf-8"))
        digest.update(b"\0")
        digest.update(path.read_bytes())
        digest.update(b"\0")
    return digest.hexdigest()


def ruleset_signature(rules: Sequence["Rule"]) -> str:
    """A short stable signature of the analyzer and selected ruleset.

    Selecting different rules (or changing a rule's severity) must
    invalidate cached findings, since they were computed under the old
    set; the analyzer digest folds in so code changes do too.
    """
    text = ",".join(
        f"{rule.id}={rule.severity.value}"
        for rule in sorted(rules, key=lambda r: r.id)
    )
    digest = hashlib.sha256(
        f"{analyzer_digest()}|{text}".encode("utf-8")
    ).hexdigest()
    return digest[:16]


def file_digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


# -- summary (de)serialization ------------------------------------------------


def summary_to_dict(summary: FileSummary) -> dict[str, object]:
    return {
        "display_path": summary.display_path,
        "sha256": summary.sha256,
        "module": summary.module,
        "functions": [
            [f.qualname, f.line, f.col, f.is_async, f.class_name, f.protocol_scope]
            for f in summary.functions
        ],
        "classes": [
            [
                c.name,
                list(c.bases),
                list(c.methods),
                [list(pair) for pair in c.attr_types],
            ]
            for c in summary.classes
        ],
        "imports": [list(pair) for pair in summary.imports],
        "calls": [
            [
                s.caller,
                s.ref.kind,
                list(s.ref.parts),
                s.line,
                s.col,
                s.in_return,
            ]
            for s in summary.calls
        ],
        "intrinsics": [
            [i.function, i.effect, i.detail, i.line, i.col]
            for i in summary.intrinsics
        ],
        "placements": [
            [
                p.caller,
                p.factory,
                p.ref.kind,
                list(p.ref.parts),
                p.is_call,
                p.line,
                p.col,
            ]
            for p in summary.placements
        ],
        "suppressions": [
            [line, list(rules)] for line, rules in summary.suppressions
        ],
        "findings": [f.as_dict() for f in summary.findings],
    }


def summary_from_dict(data: dict[str, object]) -> FileSummary:
    functions = tuple(
        FunctionDecl(
            qualname=str(row[0]),
            line=int(row[1]),
            col=int(row[2]),
            is_async=bool(row[3]),
            class_name=None if row[4] is None else str(row[4]),
            protocol_scope=bool(row[5]),
        )
        for row in _rows(data, "functions")
    )
    classes = tuple(
        ClassDecl(
            name=str(row[0]),
            bases=tuple(str(b) for b in _as_list(row[1])),
            methods=tuple(str(m) for m in _as_list(row[2])),
            attr_types=tuple(
                (str(pair[0]), str(pair[1]))
                for pair in (_as_list(p) for p in _as_list(row[3]))
            ),
        )
        for row in _rows(data, "classes")
    )
    calls = tuple(
        CallSite(
            caller=None if row[0] is None else str(row[0]),
            ref=Ref(str(row[1]), tuple(str(p) for p in _as_list(row[2]))),
            line=int(row[3]),
            col=int(row[4]),
            in_return=bool(row[5]),
        )
        for row in _rows(data, "calls")
    )
    intrinsics = tuple(
        IntrinsicEffect(
            function=None if row[0] is None else str(row[0]),
            effect=str(row[1]),
            detail=str(row[2]),
            line=int(row[3]),
            col=int(row[4]),
        )
        for row in _rows(data, "intrinsics")
    )
    placements = tuple(
        SpecPlacement(
            caller=None if row[0] is None else str(row[0]),
            factory=str(row[1]),
            ref=Ref(str(row[2]), tuple(str(p) for p in _as_list(row[3]))),
            is_call=bool(row[4]),
            line=int(row[5]),
            col=int(row[6]),
        )
        for row in _rows(data, "placements")
    )
    suppressions = tuple(
        (int(row[0]), tuple(str(r) for r in _as_list(row[1])))
        for row in _rows(data, "suppressions")
    )
    findings = tuple(
        LintFinding.from_dict(entry)
        for entry in _rows(data, "findings")
        if isinstance(entry, dict)
    )
    module = data.get("module")
    return FileSummary(
        display_path=str(data["display_path"]),
        sha256=str(data["sha256"]),
        module=None if module is None else str(module),
        functions=functions,
        classes=classes,
        imports=tuple(
            (str(pair[0]), str(pair[1])) for pair in _rows(data, "imports")
        ),
        calls=calls,
        intrinsics=intrinsics,
        placements=placements,
        suppressions=suppressions,
        findings=findings,
    )


def _rows(data: dict[str, object], key: str) -> list[Any]:
    value = data.get(key, [])
    return value if isinstance(value, list) else []


def _as_list(value: object) -> list[Any]:
    return value if isinstance(value, list) else []


# -- the cache ----------------------------------------------------------------


@dataclass
class CacheEntry:
    """One cached file: content hash, summary, findings, parse error."""

    sha256: str
    summary: FileSummary | None
    parse_error: str | None


class AnalysisCache:
    """Content-addressed per-file results, persisted as one JSON file."""

    def __init__(self, directory: Path, signature: str) -> None:
        self.directory = directory
        self.signature = signature
        self.entries: dict[str, CacheEntry] = {}
        self._touched: set[str] = set()

    # -- lifecycle -----------------------------------------------------------

    @classmethod
    def open(cls, directory: Path, rules: Sequence["Rule"]) -> "AnalysisCache":
        cache = cls(directory, ruleset_signature(rules))
        cache._load()
        return cache

    def _load(self) -> None:
        path = self.directory / CACHE_FILE
        try:
            raw = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, ValueError):
            return
        if not isinstance(raw, dict):
            return
        if raw.get("version") != analyzer_digest():
            return
        if raw.get("ruleset") != self.signature:
            return
        entries = raw.get("entries")
        if not isinstance(entries, dict):
            return
        for display, entry in entries.items():
            if not isinstance(entry, dict):
                continue
            try:
                summary_data = entry.get("summary")
                summary = (
                    summary_from_dict(summary_data)
                    if isinstance(summary_data, dict)
                    else None
                )
                parse_error = entry.get("parse_error")
                self.entries[str(display)] = CacheEntry(
                    sha256=str(entry["sha256"]),
                    summary=summary,
                    parse_error=(
                        None if parse_error is None else str(parse_error)
                    ),
                )
            except (KeyError, TypeError, ValueError, IndexError):
                continue  # one corrupt entry never poisons the rest

    def save(self) -> None:
        """Persist touched entries atomically; untouched ones are pruned
        (they belong to files outside the current lint set)."""
        payload = {
            "version": analyzer_digest(),
            "ruleset": self.signature,
            "entries": {
                display: {
                    "sha256": entry.sha256,
                    "summary": (
                        None
                        if entry.summary is None
                        else summary_to_dict(entry.summary)
                    ),
                    "parse_error": entry.parse_error,
                }
                for display, entry in sorted(self.entries.items())
                if display in self._touched
            },
        }
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            tmp = self.directory / f"{CACHE_FILE}.tmp.{os.getpid()}"
            tmp.write_text(
                json.dumps(payload, sort_keys=True), encoding="utf-8"
            )
            tmp.replace(self.directory / CACHE_FILE)
        except OSError:
            return  # a read-only cache dir degrades to cold runs

    # -- per-file protocol ---------------------------------------------------

    def lookup(self, display: str, sha256: str) -> CacheEntry | None:
        """The cached entry when the content hash still matches."""
        entry = self.entries.get(display)
        if entry is None or entry.sha256 != sha256:
            return None
        self._touched.add(display)
        return entry

    def store(
        self,
        display: str,
        sha256: str,
        summary: FileSummary | None,
        parse_error: str | None,
    ) -> None:
        self.entries[display] = CacheEntry(
            sha256=sha256, summary=summary, parse_error=parse_error
        )
        self._touched.add(display)
