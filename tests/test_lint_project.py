"""Whole-program analysis tests: project index, call graph, effect
fixpoint, incremental cache, baseline workflow, and SARIF export.

The cache tests pin the PR's acceptance criteria directly: a warm run
re-parses only changed files while emitting findings byte-identical to
a cold run, and an edit to a *helper* file updates transitive findings
in files that were never re-parsed.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro.lint
from repro.lint import LintFinding, ModuleUnderLint, Severity, lint_paths
from repro.lint.baseline import (
    apply_baseline,
    load_baseline,
    write_baseline,
)
from repro.lint.cache import (
    AnalysisCache,
    file_digest,
    ruleset_signature,
    summary_from_dict,
    summary_to_dict,
)
from repro.lint.callgraph import CallGraph
from repro.lint.effects import analyze
from repro.lint.project import ProjectIndex, summarize
from repro.lint.registry import select_rules
from repro.lint.sarif import to_sarif


def _index(tmp_path: Path, files: dict[str, str]) -> ProjectIndex:
    summaries = []
    for name, src in files.items():
        source = textwrap.dedent(src)
        path = tmp_path / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(source)
        mod = ModuleUnderLint(path, name, source)
        summaries.append(summarize(mod, file_digest(source.encode()), ()))
    return ProjectIndex.build(summaries)


def _write(tmp_path: Path, files: dict[str, str]) -> Path:
    root = tmp_path / "proj"
    root.mkdir(exist_ok=True)
    for name, src in files.items():
        (root / name).write_text(textwrap.dedent(src))
    return root


# -- project index and call graph ---------------------------------------------


class TestProjectIndex:
    def test_qualnames_cover_methods_and_nested_functions(
        self, tmp_path: Path
    ) -> None:
        index = _index(
            tmp_path,
            {
                "m.py": """\
                # repro: lint-module[repro.serve.m]
                def top():
                    def inner():
                        pass
                    return inner

                class Box:
                    def get(self):
                        return 1
                """
            },
        )
        names = set(index.functions)
        assert "repro.serve.m::top" in names
        assert "repro.serve.m::top.<locals>.inner" in names
        assert "repro.serve.m::Box.get" in names
        assert index.functions["repro.serve.m::Box.get"].class_name == "Box"

    def test_bare_name_and_self_method_resolution(self, tmp_path: Path) -> None:
        index = _index(
            tmp_path,
            {
                "m.py": """\
                # repro: lint-module[repro.serve.m]
                def helper():
                    pass

                class Svc:
                    def _step(self):
                        pass

                    def run(self):
                        helper()
                        self._step()
                """
            },
        )
        graph = CallGraph(index)
        callees = {
            e.callee for e in graph.out_edges.get("repro.serve.m::Svc.run", [])
        }
        assert callees == {"repro.serve.m::helper", "repro.serve.m::Svc._step"}

    def test_cross_module_import_and_attr_type_resolution(
        self, tmp_path: Path
    ) -> None:
        index = _index(
            tmp_path,
            {
                "state.py": """\
                # repro: lint-module[repro.serve.state]
                class Store:
                    def load(self):
                        pass
                """,
                "server.py": """\
                # repro: lint-module[repro.serve.server]
                from repro.serve.state import Store

                class Server:
                    def __init__(self, store: Store) -> None:
                        self.store = store

                    def boot(self):
                        self.store.load()
                        fresh = Store()
                        fresh.load()
                """,
            },
        )
        graph = CallGraph(index)
        callees = {
            e.callee
            for e in graph.out_edges.get("repro.serve.server::Server.boot", [])
        }
        assert "repro.serve.state::Store.load" in callees

    def test_base_class_method_resolution(self, tmp_path: Path) -> None:
        index = _index(
            tmp_path,
            {
                "m.py": """\
                # repro: lint-module[repro.serve.m]
                class Base:
                    def shared(self):
                        pass

                class Child(Base):
                    def go(self):
                        self.shared()
                """
            },
        )
        graph = CallGraph(index)
        callees = {
            e.callee for e in graph.out_edges.get("repro.serve.m::Child.go", [])
        }
        assert callees == {"repro.serve.m::Base.shared"}

    def test_unresolved_calls_produce_no_edges(self, tmp_path: Path) -> None:
        index = _index(
            tmp_path,
            {
                "m.py": """\
                # repro: lint-module[repro.serve.m]
                def run(thing):
                    thing.spin()
                    getattr(thing, "spin")()
                """
            },
        )
        graph = CallGraph(index)
        assert graph.out_edges.get("repro.serve.m::run", []) == []


# -- effect fixpoint ----------------------------------------------------------


class TestEffects:
    def test_blocking_propagates_two_hops_with_chain(
        self, tmp_path: Path
    ) -> None:
        index = _index(
            tmp_path,
            {
                "m.py": """\
                # repro: lint-module[repro.serve.m]
                import time

                def low():
                    time.sleep(1)

                def mid():
                    low()

                def high():
                    mid()
                """
            },
        )
        effects = analyze(index)
        assert effects.has_effect("repro.serve.m::high", "blocking")
        chain = effects.describe_chain("repro.serve.m::high", "blocking")
        assert chain == "mid -> low -> time.sleep"

    def test_executor_thunk_cuts_blocking_propagation(
        self, tmp_path: Path
    ) -> None:
        index = _index(
            tmp_path,
            {
                "m.py": """\
                # repro: lint-module[repro.serve.m]
                import time

                def blocker():
                    time.sleep(1)

                async def handler(loop):
                    await loop.run_in_executor(None, blocker)
                """
            },
        )
        effects = analyze(index)
        assert effects.has_effect("repro.serve.m::blocker", "blocking")
        assert not effects.has_effect("repro.serve.m::handler", "blocking")

    def test_unpicklable_flows_only_through_return_positions(
        self, tmp_path: Path
    ) -> None:
        index = _index(
            tmp_path,
            {
                "m.py": """\
                # repro: lint-module[repro.runtime.m]
                import threading

                def make():
                    return threading.Lock()

                def passthru():
                    return make()

                def internal_use_only():
                    guard = make()
                    return 1
                """
            },
        )
        effects = analyze(index)
        assert effects.has_effect("repro.runtime.m::make", "unpicklable")
        assert effects.has_effect("repro.runtime.m::passthru", "unpicklable")
        assert not effects.has_effect(
            "repro.runtime.m::internal_use_only", "unpicklable"
        )

    def test_fixpoint_is_deterministic(self, tmp_path: Path) -> None:
        files = {
            "m.py": """\
            # repro: lint-module[repro.serve.m]
            import time

            def a():
                b()
                c()

            def b():
                time.sleep(1)

            def c():
                time.sleep(2)
            """
        }
        first = analyze(_index(tmp_path / "one", files))
        second = analyze(_index(tmp_path / "two", files))
        w1 = first.effect_of("repro.serve.m::a", "blocking")
        w2 = second.effect_of("repro.serve.m::a", "blocking")
        assert w1 is not None and w2 is not None
        assert (w1.via, w1.line, w1.col) == (w2.via, w2.line, w2.col)
        # smallest call site wins: b() on the earlier line
        assert w1.via == "repro.serve.m::b"


# -- incremental cache --------------------------------------------------------


_SERVE_A = """\
# repro: lint-module[repro.serve.handlers]
import asyncio
from repro.serve.util import helper


async def handle():
    helper()
    await asyncio.sleep(0)
"""

_SERVE_B_CLEAN = """\
# repro: lint-module[repro.serve.util]
def helper():
    return 1
"""

_SERVE_B_BLOCKING = """\
# repro: lint-module[repro.serve.util]
import time


def helper():
    time.sleep(0.5)
"""


class TestIncrementalCache:
    def test_warm_run_is_byte_identical_and_parse_free(
        self, tmp_path: Path
    ) -> None:
        root = _write(
            tmp_path, {"a.py": _SERVE_A, "b.py": _SERVE_B_BLOCKING}
        )
        cache_dir = tmp_path / "cache"
        cold = lint_paths([root], cache_dir=cache_dir)
        warm = lint_paths([root], cache_dir=cache_dir)
        assert cold.files_reparsed == 2 and cold.cache_hits == 0
        assert warm.files_reparsed == 0 and warm.cache_hits == 2
        assert json.dumps(cold.as_dict()) == json.dumps(warm.as_dict())
        assert any(f.rule == "ASY003" for f in cold.findings)

    def test_helper_edit_updates_findings_in_unreparsed_file(
        self, tmp_path: Path
    ) -> None:
        root = _write(tmp_path, {"a.py": _SERVE_A, "b.py": _SERVE_B_CLEAN})
        cache_dir = tmp_path / "cache"
        clean = lint_paths([root], cache_dir=cache_dir)
        assert clean.findings == ()

        (root / "b.py").write_text(textwrap.dedent(_SERVE_B_BLOCKING))
        warm = lint_paths([root], cache_dir=cache_dir)
        # only the edited helper was re-parsed...
        assert warm.files_reparsed == 1 and warm.cache_hits == 1
        # ...yet the transitive finding lands in the *unchanged* file
        assert [f.rule for f in warm.findings] == ["ASY003"]
        assert warm.findings[0].file.endswith("a.py")
        # and matches a cold run exactly
        cold = lint_paths([root])
        assert cold.findings == warm.findings

    def test_rule_selection_invalidates_the_cache(self, tmp_path: Path) -> None:
        root = _write(tmp_path, {"a.py": _SERVE_A, "b.py": _SERVE_B_CLEAN})
        cache_dir = tmp_path / "cache"
        lint_paths([root], cache_dir=cache_dir)
        narrowed = lint_paths(
            [root], select=lambda rid: rid == "ASY003", cache_dir=cache_dir
        )
        assert narrowed.files_reparsed == 2  # different ruleset signature

    def test_cache_from_a_different_analyzer_is_discarded(
        self, tmp_path: Path
    ) -> None:
        """The cache is keyed on the analyzer's own sources: an edit
        anywhere under repro/lint discards every entry (stale findings
        and summaries are never replayed), while an unchanged copy of
        the analyzer at another location reuses them."""
        root = _write(tmp_path, {"a.py": _SERVE_A, "b.py": _SERVE_B_BLOCKING})
        cache_dir = tmp_path / "cache"
        assert lint_paths([root], cache_dir=cache_dir).files_reparsed == 2

        analyzer = tmp_path / "analyzer"
        shutil.copytree(
            Path(repro.lint.__file__).parent,
            analyzer / "repro" / "lint",
            ignore=shutil.ignore_patterns("__pycache__"),
        )
        (analyzer / "repro" / "__init__.py").write_text("")
        script = (
            "import sys; from pathlib import Path; import repro.lint as L; "
            "r = L.lint_paths([Path(sys.argv[1])], cache_dir=Path(sys.argv[2])); "
            "print(L.__file__); print(r.files_reparsed)"
        )

        def reparsed_by_copy() -> int:
            env = {**os.environ, "PYTHONPATH": str(analyzer)}
            out = subprocess.run(
                [sys.executable, "-c", script, str(root), str(cache_dir)],
                env=env,
                capture_output=True,
                text=True,
                check=True,
            ).stdout.split()
            assert out[0].startswith(str(analyzer)), out
            return int(out[1])

        assert reparsed_by_copy() == 0
        rule_file = analyzer / "repro" / "lint" / "rules" / "asyncrules.py"
        rule_file.write_text(rule_file.read_text() + "\n# a changed analyzer\n")
        assert reparsed_by_copy() == 2

    def test_corrupt_cache_degrades_to_cold_run(self, tmp_path: Path) -> None:
        root = _write(tmp_path, {"a.py": _SERVE_A, "b.py": _SERVE_B_BLOCKING})
        cache_dir = tmp_path / "cache"
        lint_paths([root], cache_dir=cache_dir)
        (cache_dir / "analysis.json").write_text("{not json")
        report = lint_paths([root], cache_dir=cache_dir)
        assert report.files_reparsed == 2
        assert any(f.rule == "ASY003" for f in report.findings)

    def test_parse_errors_are_cached_and_replayed(self, tmp_path: Path) -> None:
        root = _write(tmp_path, {"bad.py": "def broken(:\n"})
        cache_dir = tmp_path / "cache"
        cold = lint_paths([root], cache_dir=cache_dir)
        warm = lint_paths([root], cache_dir=cache_dir)
        assert cold.parse_errors and warm.parse_errors == cold.parse_errors
        assert warm.files_reparsed == 0
        assert cold.failed and warm.failed

    def test_summary_roundtrips_through_json(self, tmp_path: Path) -> None:
        source = textwrap.dedent(
            """\
            # repro: lint-module[repro.serve.rt]
            import time
            from repro.serve.state import Store


            class Svc:
                def __init__(self, store: Store) -> None:
                    self.store = store

                def tick(self):  # repro: lint-ok[ASY003]
                    time.sleep(0)
                    self.store.load()
            """
        )
        path = tmp_path / "rt.py"
        path.write_text(source)
        mod = ModuleUnderLint(path, "rt.py", source)
        finding = LintFinding(
            file="rt.py",
            line=1,
            col=0,
            rule="DET001",
            severity=Severity.ERROR,
            message="m",
            hint="h",
        )
        summary = summarize(mod, file_digest(source.encode()), (finding,))
        encoded = json.dumps(summary_to_dict(summary), sort_keys=True)
        decoded = summary_from_dict(json.loads(encoded))
        assert decoded == summary

    def test_ruleset_signature_tracks_rules(self) -> None:
        full = ruleset_signature(select_rules(None))
        narrowed = ruleset_signature(
            select_rules(lambda rid: rid == "DET001")
        )
        assert full != narrowed
        assert ruleset_signature(select_rules(None)) == full

    def test_cache_prunes_entries_outside_the_lint_set(
        self, tmp_path: Path
    ) -> None:
        root = _write(tmp_path, {"a.py": _SERVE_A, "b.py": _SERVE_B_CLEAN})
        cache_dir = tmp_path / "cache"
        lint_paths([root], cache_dir=cache_dir)
        (root / "b.py").unlink()
        lint_paths([root], cache_dir=cache_dir)
        cache = AnalysisCache.open(cache_dir, select_rules(None))
        assert all("b.py" not in key for key in cache.entries)


# -- whole-program findings respect suppressions ------------------------------


def test_project_findings_respect_lint_ok_comments(tmp_path: Path) -> None:
    root = _write(
        tmp_path,
        {
            "a.py": """\
            # repro: lint-module[repro.serve.sup]
            import asyncio
            import time


            def blocker():
                time.sleep(1)


            async def handle():
                blocker()  # repro: lint-ok[ASY003]
                await asyncio.sleep(0)
            """
        },
    )
    report = lint_paths([root])
    assert report.findings == ()


# -- baseline -----------------------------------------------------------------


def _finding(file: str, line: int, rule: str, message: str) -> LintFinding:
    return LintFinding(
        file=file,
        line=line,
        col=0,
        rule=rule,
        severity=Severity.WARNING,
        message=message,
        hint="",
    )


class TestBaseline:
    def test_roundtrip_absorbs_recorded_findings(self, tmp_path: Path) -> None:
        path = tmp_path / "baseline.json"
        old = _finding("a.py", 3, "ASY003", "blocks via x")
        write_baseline(path, [old])
        baseline = load_baseline(path)
        shifted = _finding("a.py", 9, "ASY003", "blocks via x")  # moved lines
        new = _finding("a.py", 4, "ASY004", "rmw race")
        fresh, absorbed = apply_baseline([shifted, new], baseline)
        assert absorbed == 1
        assert fresh == (new,)

    def test_multiset_matching_absorbs_exact_counts(
        self, tmp_path: Path
    ) -> None:
        path = tmp_path / "baseline.json"
        one = _finding("a.py", 1, "ASY003", "same message")
        write_baseline(path, [one])
        dup = _finding("a.py", 8, "ASY003", "same message")
        fresh, absorbed = apply_baseline([one, dup], load_baseline(path))
        assert absorbed == 1 and len(fresh) == 1

    def test_bad_baseline_raises_value_error(self, tmp_path: Path) -> None:
        path = tmp_path / "baseline.json"
        path.write_text("[]")
        with pytest.raises(ValueError):
            load_baseline(path)
        with pytest.raises(ValueError):
            load_baseline(tmp_path / "missing.json")


# -- sarif --------------------------------------------------------------------


def test_sarif_export_shape(tmp_path: Path) -> None:
    root = _write(tmp_path, {"a.py": _SERVE_A, "b.py": _SERVE_B_BLOCKING})
    report = lint_paths([root])
    doc = to_sarif(report, select_rules(None))
    assert doc["version"] == "2.1.0"
    runs = doc["runs"]
    assert isinstance(runs, list) and len(runs) == 1
    run = runs[0]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro.lint"
    rule_ids = [r["id"] for r in driver["rules"]]
    assert "ASY003" in rule_ids
    results = run["results"]
    assert results, "expected SARIF results"
    for result in results:
        assert result["level"] in ("error", "warning")
        region = result["locations"][0]["physicalLocation"]["region"]
        assert region["startLine"] >= 1 and region["startColumn"] >= 1


def test_finding_from_dict_roundtrip() -> None:
    finding = _finding("x.py", 2, "ASY004", "race")
    assert LintFinding.from_dict(finding.as_dict()) == finding
