"""Systems: sets of runs, and the K_p primitives over them.

A *system* is a set of runs, typically generated by executing a joint
protocol in a context under many adversary schedules.  The knowledge
operator K_p is evaluated over a system: p knows phi at (r, m) iff phi
holds at every point (r', m') of the system with the same local history
for p.

Following Halpern-Moses, the ~_p relation is an equivalence, so the
kernel's unit of work is the *equivalence class*, not the point.  The
classes live in the columnar kernel (:mod:`repro.columnar.kernel`),
built once per system on the first query: each process's points are
grouped by local history into integer class ids, each class carrying
the AND of its points' crash bitmasks (= the class's known-crashed
set).  Knowledge queries then cost one array probe plus O(1) bit work
per class, and common knowledge is a fixpoint over the class graph (see
:mod:`repro.knowledge.group`).  :mod:`repro.knowledge.reference` keeps
the naive per-point definition as the oracle for every fast path.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, fields
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

from repro.model.context import Context
from repro.model.events import ProcessId
from repro.model.history import HistoryInterner
from repro.model.run import Point, Run

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.columnar.kernel import ColumnarKernel

class IncompleteSystemWarning(UserWarning):
    """A knowledge query was evaluated over a *sampled* (incomplete) system.

    ``K_p phi`` is only sound when the system contains every run of the
    generating context: a missing run can make knowledge vacuously true
    simply because the distinguishing point was never sampled.  Systems
    built by the bounded explorer (:mod:`repro.explore`) carry
    ``complete=True`` and never warn; sampled ensembles warn once per
    system on the first knowledge query.
    """


@dataclass
class KernelStats:
    """Observability counters for the epistemic kernel.

    One instance lives on each :class:`System`; the model checker and
    group checker attached to the system increment the cache counters on
    the same object, so ``system.stats`` (or ``ModelChecker.stats``) is
    the single place to watch for kernel regressions.

    Fields:

    * ``intern_hits`` / ``intern_misses`` -- canonicalization-table
      traffic (shared with parent/child systems, see
      :class:`~repro.model.history.HistoryInterner`);
    * ``knows_class_evals`` / ``knows_point_evals`` -- K_p evaluations
      at class granularity vs. candidate points visited inside them;
    * ``local_cache_*`` / ``point_cache_*`` / ``temporal_cache_*`` --
      hit/miss counters of the model checker's three memo tables;
    * ``ck_fixpoint_iterations`` -- rounds of the common-knowledge
      greatest-fixpoint computation;
    * ``arena_builds`` / ``arena_classes`` / ``arena_bytes`` -- columnar
      kernels built (:mod:`repro.columnar`), their total class count,
      and the byte size of their arena buffers;
    * ``arena_refinements`` -- columnar kernels derived by incremental
      class refinement (:meth:`System.extend`) instead of a from-scratch
      build over the union.
    """

    intern_hits: int = 0
    intern_misses: int = 0
    knows_class_evals: int = 0
    knows_point_evals: int = 0
    local_cache_hits: int = 0
    local_cache_misses: int = 0
    point_cache_hits: int = 0
    point_cache_misses: int = 0
    temporal_cache_hits: int = 0
    temporal_cache_misses: int = 0
    ck_fixpoint_iterations: int = 0
    arena_builds: int = 0
    arena_classes: int = 0
    arena_bytes: int = 0
    arena_refinements: int = 0

    def as_dict(self) -> dict[str, int]:
        return {f.name: getattr(self, f.name) for f in fields(self)}

    def merge(self, other: "KernelStats") -> "KernelStats":
        """Accumulate ``other`` into self (every counter sums)."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))
        return self

    def render(self) -> str:
        """One readable line of the headline counters."""
        return (
            f"kernel: columnar {self.arena_builds} arenas "
            f"(+{self.arena_refinements} refined) / "
            f"{self.arena_classes} classes / {self.arena_bytes} B; "
            f"knows {self.knows_class_evals} class evals / "
            f"{self.knows_point_evals} point visits; "
            f"ck {self.ck_fixpoint_iterations} fixpoint rounds"
        )


class System:
    """An immutable collection of runs plus its ~_p kernel.

    The columnar kernel is built lazily on the first query and covers
    every point (r, m) with 0 <= m <= r.duration.  Because the final cut
    of a finite run is taken to repeat forever, querying a time beyond a
    run's duration resolves to the final point of that run.

    ``restrict``, ``union`` and ``extend`` hand the child system the
    parent's interner; ``extend`` also refines an already-built kernel
    instead of rebuilding it.
    """

    def __init__(
        self,
        runs: Iterable[Run],
        context: Context | None = None,
        *,
        interner: HistoryInterner | None = None,
        complete: bool = False,
        missing_runs: int = 0,
    ) -> None:
        self._columnar: "ColumnarKernel | None" = None
        self._runs: tuple[Run, ...] = tuple(runs)
        self._complete = bool(complete)
        self._missing_runs = int(missing_runs)
        self._warned_incomplete = False
        if not self._runs:
            raise ValueError("a system must contain at least one run")
        procs = self._runs[0].processes
        for r in self._runs:
            if r.processes != procs:
                raise ValueError("all runs in a system must share a process set")
        self._processes = procs
        self.context = context
        self._interner = interner if interner is not None else HistoryInterner()
        self._stats = KernelStats()
        self._proc_bit = {p: i for i, p in enumerate(procs)}
        # Global point numbering: point (runs[i], m) has id base[i] + m.
        bases: list[int] = []
        total = 0
        for run in self._runs:
            bases.append(total)
            total += run.duration + 1
        self._point_bases = bases
        self._point_total = total
        # audited: every keyed run is strongly pinned -- members by
        # self._runs, equal non-member aliases (added by run_index) by
        # self._run_aliases -- for the System's lifetime, so no live object
        # can recycle these id()s
        self._run_pos: dict[int, int] = {id(r): i for i, r in enumerate(self._runs)}  # repro: lint-ok[DET005]
        self._run_aliases: list[Run] = []
        self._run_value_pos: dict[Run, int] = {}
        for i, r in enumerate(self._runs):
            self._run_value_pos.setdefault(r, i)

    # -- container protocol --------------------------------------------------

    def __len__(self) -> int:
        return len(self._runs)

    def __iter__(self) -> Iterator[Run]:
        return iter(self._runs)

    def __contains__(self, run: Run) -> bool:
        return self.run_index(run) is not None

    @property
    def runs(self) -> tuple[Run, ...]:
        return self._runs

    @property
    def processes(self) -> tuple[ProcessId, ...]:
        return self._processes

    @property
    def interner(self) -> HistoryInterner:
        return self._interner

    @property
    def missing_runs(self) -> int:
        """How many planned runs of the generating ensemble are absent
        (failed or never executed); 0 when unknown or none."""
        return self._missing_runs

    @property
    def complete(self) -> bool:
        """True iff this system provably contains *every* run of its context.

        Set by explorer-built systems (:func:`repro.explore.explore`);
        sampled ensembles leave it False and knowledge queries over them
        emit a one-time :class:`IncompleteSystemWarning`.
        """
        return self._complete

    def note_knowledge_query(self) -> None:
        """Record that a knowledge operator was evaluated over this system.

        Sampled (incomplete) systems warn exactly once; complete systems
        are silent.  Called by the knowledge primitives below and by the
        :class:`~repro.knowledge.semantics.ModelChecker` wrappers.
        """
        if self._complete or self._warned_incomplete:
            return
        self._warned_incomplete = True
        detail = (
            f" ({self._missing_runs} planned runs missing or failed)"
            if self._missing_runs
            else ""
        )
        # warn_explicit with registry=None bypasses the per-location
        # __warningregistry__ dedup of plain warnings.warn, so *every*
        # incomplete System warns exactly once (guarded above) instead of
        # only the first one per process.
        warnings.warn_explicit(
            "knowledge query over a sampled (incomplete) system"
            + detail
            + ": K_p/C_G answers are relative to the sampled run set and "
            "may be vacuously true; build the system with repro.explore "
            "for sound-by-construction answers",
            IncompleteSystemWarning,
            filename=__file__,
            lineno=0,
        )

    @property
    def stats(self) -> KernelStats:
        """The kernel counters (live object; interner totals synced in)."""
        st = self._stats
        st.intern_hits = self._interner.hits
        st.intern_misses = self._interner.misses
        return st

    def columnar_kernel(self) -> "ColumnarKernel":
        """The columnar kernel, built on first use."""
        kernel = self._columnar
        if kernel is None:
            from repro.columnar.kernel import build_kernel

            kernel = build_kernel(self)
            self._columnar = kernel
        return kernel

    def build_index(self) -> None:
        """Force the kernel's index for every process (benchmarks)."""
        self.columnar_kernel()

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"System({len(self._runs)} runs, n={len(self._processes)})"

    # -- the point numbering -------------------------------------------------

    @property
    def point_count(self) -> int:
        """Total number of points (bit width of the kernel's bitsets)."""
        return self._point_total

    def run_index(self, run: Run) -> int | None:
        """Position of ``run`` in ``self.runs`` (identity first, then value).

        A run equal to a member but a different object (a pickled clone,
        or the same seed executed for another ensemble) is resolved by
        value once; its id() is then recorded and the run pinned, so
        repeated lookups skip ``Run.__eq__``.  Such a run resolves to the
        first member it equals.
        """
        # audited: every id() in _run_pos belongs to a run pinned by
        # self._runs or self._run_aliases, so it cannot be recycled while
        # this System lives; a miss falls through to the value map
        key = id(run)  # repro: lint-ok[DET005]
        pos = self._run_pos.get(key)
        if pos is None:
            pos = self._run_value_pos.get(run)
            if pos is not None:
                self._run_pos[key] = pos
                self._run_aliases.append(run)
        return pos

    def point_id(self, point: Point) -> int | None:
        """The global integer id of ``point``, or None for foreign runs.

        Times beyond the run's duration map to the final point (the
        final-cut-repeats-forever convention).
        """
        pos = self.run_index(point.run)
        if pos is None:
            return None
        run = self._runs[pos]
        return self._point_bases[pos] + min(point.time, run.duration)

    def point_key(self, point_id: int) -> tuple[int, int]:
        """Decode a point id into (run_index, time)."""
        bases = self._point_bases
        lo, hi = 0, len(bases) - 1
        while lo < hi:  # rightmost base <= point_id
            mid = (lo + hi + 1) // 2
            if bases[mid] <= point_id:
                lo = mid
            else:
                hi = mid - 1
        return lo, point_id - bases[lo]

    def point_at(self, point_id: int) -> Point:
        """Decode a point id into the Point itself."""
        pos, m = self.point_key(point_id)
        return Point(self._runs[pos], m)

    def process_bit(self, process: ProcessId) -> int:
        """The bit position of ``process`` in crash bitmasks."""
        return self._proc_bit[process]

    # -- indistinguishability ------------------------------------------------

    def indistinguishable_points(self, process: ProcessId, point: Point) -> Sequence[Point]:
        """All points (r', m') in the system with (r', m') ~_p ``point``.

        If ``point``'s own run is not in the system, the returned list
        contains only points from the system (it may be empty).
        """
        kernel = self.columnar_kernel()
        cid = kernel.class_id_at(process, point)
        return kernel.points_of_class(cid) if cid is not None else []

    def points(self) -> Iterator[Point]:
        """Every point of every run."""
        for run in self._runs:
            yield from run.points()

    # -- knowledge primitives ------------------------------------------------

    def knows(
        self,
        process: ProcessId,
        point: Point,
        predicate: Callable[[Point], bool],
    ) -> bool:
        """K_p(predicate) at ``point``: predicate holds at every ~_p point.

        This is the raw semantic operator; :mod:`repro.knowledge` builds
        the formula language on top of it.

        Vacuity caveat: if ``point``'s local history occurs nowhere in
        the system (a foreign point), the candidate set is empty and the
        answer is vacuously True -- p "knows" everything, including
        falsehoods.  Callers should only query points of this system
        (or of systems it was restricted from).
        """
        self.note_knowledge_query()
        st = self._stats
        kernel = self.columnar_kernel()
        cid = kernel.class_id_at(process, point)
        if cid is None:
            return True
        st.knows_class_evals += 1
        for candidate in kernel.points_of_class(cid):
            st.knows_point_evals += 1
            if not predicate(candidate):
                return False
        return True

    def knows_crashed(self, process: ProcessId, point: Point, target: ProcessId) -> bool:
        """K_p(crash(q)) at ``point`` -- the key formula of Theorem 3.6 (P3).

        O(1) after the class build: one bit of the class's AND-mask.
        """
        self.note_knowledge_query()
        bit = self._proc_bit[target]
        kernel = self.columnar_kernel()
        cid = kernel.class_id_at(process, point)
        if cid is None:
            return True  # vacuous knowledge at a foreign point; see knows()
        return bool((kernel.known_mask(cid) >> bit) & 1)

    def known_crashed_set(self, process: ProcessId, point: Point) -> frozenset[ProcessId]:
        """{q : K_p(crash(q))} at ``point`` -- the suspicion set of P3.

        The whole set is one precomputed AND over the class's crash
        bitmasks; the frozenset view is materialized once per class.
        """
        self.note_knowledge_query()
        kernel = self.columnar_kernel()
        cid = kernel.class_id_at(process, point)
        if cid is None:
            return frozenset(self._processes)  # vacuous; see knows()
        return kernel.known_set(cid)

    def known_crash_count(
        self, process: ProcessId, point: Point, subset: frozenset[ProcessId]
    ) -> int:
        """max{k : K_p("at least k processes in subset have crashed")}.

        Used by the P3' construction of Theorem 4.3.  Knowledge of a
        counting formula reduces to the minimum, over the class's point
        masks, of the popcount within ``subset``'s bitmask.
        """
        self.note_knowledge_query()
        kernel = self.columnar_kernel()
        cid = kernel.class_id_at(process, point)
        if cid is None:
            return 0
        proc_bit = self._proc_bit
        smask = 0
        # bitwise OR is commutative: iteration order cannot leak
        for q in subset:  # repro: lint-ok[DET004]
            smask |= 1 << proc_bit[q]
        return kernel.count_min(cid, smask)

    # -- convenience ---------------------------------------------------------

    def restrict(self, keep: Callable[[Run], bool]) -> "System":
        """The subsystem of runs satisfying ``keep`` (sharing the interner).

        Completeness is inherited: restricting a complete system yields
        the complete set of context runs satisfying ``keep``.
        """
        kept = [r for r in self._runs if keep(r)]
        return System(
            kept, context=self.context, interner=self._interner,
            complete=self._complete, missing_runs=self._missing_runs,
        )

    def extend(
        self,
        added_runs: Iterable[Run],
        *,
        complete: bool | None = None,
        missing_runs: int | None = None,
    ) -> "System":
        """A system over ``self.runs`` plus ``added_runs``, in append order.

        The online-ingestion primitive behind :mod:`repro.serve`.  The
        child shares this system's interner, and when this system has
        already built its columnar kernel the child's kernel is derived
        by *incremental class refinement*
        (:meth:`repro.columnar.kernel.ColumnarKernel.refined`): the
        appended runs extend the history trie and per-process class
        tables without re-walking the shared prefix, and every answer
        is bit-identical to a from-scratch rebuild over the union.

        Unlike :meth:`union`, no deduplication is performed -- callers
        own duplicate policy.  ``complete``/``missing_runs`` default to
        inheriting this system's flags (appending runs cannot make a
        sampled system complete).  An empty batch returns this system
        itself.
        """
        added = tuple(added_runs)
        if not added:
            return self
        child = System(
            self._runs + added,
            context=self.context,
            interner=self._interner,
            complete=self._complete if complete is None else complete,
            missing_runs=(
                self._missing_runs if missing_runs is None else missing_runs
            ),
        )
        if self._columnar is not None:
            from repro.columnar.kernel import ColumnarKernel

            child.adopt_columnar_kernel(
                ColumnarKernel.refined(self._columnar, child)
            )
        return child

    def adopt_columnar_kernel(self, kernel: "ColumnarKernel") -> None:
        """Attach a pre-built columnar kernel (the refinement hand-off).

        Only a kernel built *for this system* (``kernel.system is
        self``) is accepted, and only before this system has built its
        own: the kernel is part of the system's immutable identity once
        queries start flowing.
        """
        if kernel.system is not self:
            raise ValueError("kernel was built for a different system")
        if self._columnar is not None:
            raise ValueError("system already has a columnar kernel")
        self._columnar = kernel

    def union(self, other: "System") -> "System":
        """The deduplicated union of two systems over one process set."""
        if self._processes != other._processes:
            raise ValueError("cannot union systems over different process sets")
        seen: list[Run] = list(self._runs)
        existing = set(self._runs)
        for run in other._runs:
            if run not in existing:
                seen.append(run)
                existing.add(run)
        return System(
            seen, context=self.context, interner=self._interner,
            complete=self._complete and other._complete,
            missing_runs=self._missing_runs + other._missing_runs,
        )
