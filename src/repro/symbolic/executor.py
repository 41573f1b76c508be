"""The witness-refutation search engine (Sections 2 and 3).

Given a points-to edge and the statements that may produce it (from the
producer map), the engine performs a goal-directed *backwards* symbolic
execution over path programs:

* the backwards program counter is an explicit continuation: a cons-list of
  tasks (execute a statement backwards, or cross a method entry);
* ``choice`` forks path programs (counted against the per-edge budget);
* ``loop`` triggers the on-the-fly invariant inference of
  :mod:`repro.symbolic.loops`;
* calls push abstract stack frames; reaching a method entry with an empty
  stack expands into all call-graph callers; callees beyond the stack
  bound are *skipped soundly* by dropping every constraint they might
  produce (mod/ref fields, statics, and transitively-allocated instances);
* a query whose memory becomes ``any`` (empty) is a witness: the edge
  cannot be refuted. Reaching the program entry with leftover memory
  constraints refutes the path (the initial heap is empty and statics are
  null).

An edge is REFUTED when every producer's every path program is refuted
within budget; WITNESSED when some path survives to a witness; TIMEOUT
when the budget runs out (treated as not-refuted, like the paper)."""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Iterator, Optional, Union

from ..ir import instructions as ins
from ..ir.program import IRProgram
from ..ir.stmts import AtomicStmt, Choice, Loop, Seq, Stmt, walk_commands
from ..obs import metrics, provenance, trace
from ..pointsto import ELEMS, PointsToResult
from ..pointsto.graph import HeapEdge
from ..perf import store as perf_store
from ..perf.memo import SOLVER_MEMO
from ..pointsto.modref import ModSet
from . import loops
from .config import Representation, SearchConfig
from .query import Query
from .simplification import QueryHistory, query_entails
from .stats import REFUTED, TIMEOUT, WITNESSED, EdgeResult
from .symvar import SymVar
from .transfer import TransferContext, _bind_value_into, transfer_command

if TYPE_CHECKING:
    from ..engine.schedule import RungCeiling

# Continuation: a cons-list of tasks; () is the empty continuation.
Cons = tuple  # (Task, Cons) | ()

# Per-search effort distributions (the raw material of Table 1's Effort
# columns, now first-class in the metrics registry).
_PATH_PROGRAMS = metrics.histogram("executor.path_programs")
_SEARCH_SECONDS = metrics.histogram("executor.search_seconds")
_SOLVER_CALLS = metrics.histogram("executor.solver_calls_per_search")
_WORKLIST_SUBSUMED = metrics.counter("executor.worklist_subsumed")
_STATES_EXPLORED = metrics.counter("executor.states_explored")


#: Journal wording for a search root, per job kind: the root state's
#: detail, where a timeout at the root struck, and the kill detail of a
#: root refuted on its own with no recorded reason.
_ROOT_WORDS = {
    "edge": (
        "producer",
        "producer root",
        "producer query unsatisfiable at its own statement",
    ),
    "fact": ("fact root", "fact root", "fact query unsatisfiable at its own site"),
}


def _observe_search(result: "EdgeResult", solver_calls: int) -> None:
    _PATH_PROGRAMS.observe(result.path_programs)
    _SEARCH_SECONDS.observe(result.seconds)
    _SOLVER_CALLS.observe(solver_calls)
    metrics.counter(f"executor.{result.status}").inc()


@dataclass(frozen=True, slots=True)
class StmtTask:
    stmt: Stmt
    #: Query version at the enclosing choice's fork; an assume whose query
    #: is unchanged since the fork is irrelevant and skipped (Section 3.2).
    relevance: Optional[int] = None


@dataclass(frozen=True, slots=True)
class EnterMethodTask:
    qname: str


Task = Union[StmtTask, EnterMethodTask]


@dataclass(slots=True)
class PathState:
    k: Cons
    query: Query
    trace: Cons = ()  # cons-list of visited labels (newest first)
    #: Search-journal state id (0 = not journaled: journaling disabled, or
    #: a loop-inference subwalk state — see repro.obs.provenance).
    sid: int = 0


class SearchTimeout(Exception):
    pass


class _Witnessed(Exception):
    def __init__(self, state: PathState) -> None:
        self.state = state


class Engine:
    """Witness-refutation search over one analyzed program."""

    def __init__(
        self,
        pta: PointsToResult,
        config: Optional[SearchConfig] = None,
        root: Optional[str] = None,
    ) -> None:
        self.pta = pta
        self.program: IRProgram = pta.program
        self.config = config or SearchConfig()
        # The solver memo is process-wide; the engine's config governs it
        # for the whole run (the driver replays the same config in workers).
        SOLVER_MEMO.set_enabled(self.config.memoize_solver)
        # The persistent verdict store follows the same discipline: one
        # engine construction (re)binds the process-wide store to the
        # configured cache directory, or detaches it when none is set.
        perf_store.attach(self.config.cache_dir)
        self.ctx = TransferContext(pta, self.config)
        self.root = root or self.program.entry
        if self.root is None:
            raise ValueError("program has no entry; pass root explicitly")
        self._parents: dict[str, dict[int, tuple[Stmt, int]]] = {}
        self._budget_left = 0
        self._baseline = 0
        #: The driver's shared path-program ceiling for the edge search in
        #: flight (repro.engine.schedule.RungCeiling), or None.
        self._ceiling: Optional["RungCeiling"] = None
        self._deadline_at: Optional[float] = None
        self._deadline_step = 0
        self._history = QueryHistory(enabled=self.config.simplify_queries)
        self._branch_mods: dict[int, ModSet] = {}
        self._branch_throw: dict[int, bool] = {}
        #: Footprint of the search in flight (method qnames visited or
        #: consulted); None unless ``config.record_footprints``.
        self._fp: Optional[set[str]] = None
        self._stmt_callees: dict[int, frozenset] = {}
        #: The active search journal (repro.obs.provenance), or None: every
        #: journaling hook below is a no-op when no journal is installed.
        self._sj: Optional["provenance.SearchJournal"] = None

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def refute_edge(
        self,
        edge: HeapEdge,
        budget: Optional[int] = None,
        deadline: Optional[float] = None,
        ceiling: Optional["RungCeiling"] = None,
    ) -> EdgeResult:
        """Try to refute ``edge``: search for a path program witness from
        every producing statement; refuted iff all searches are refuted.

        ``budget``/``deadline`` override the config's per-edge limits for
        this attempt (the driver's portfolio rungs). ``ceiling`` is a path
        batch's shared :class:`~repro.engine.schedule.RungCeiling`: the
        search is cut (a TIMEOUT) as soon as it has spent more path
        programs than the ceiling's live limit. The engine caches nothing:
        the driver decides which results are final and keeps them."""
        producers = self.pta.producers_of(edge)
        return self._refute(
            str(edge),
            "edge",
            (self._initial_state(edge, label) for label in producers),
            (self.program.command_method.get(label) for label in producers),
            budget,
            deadline,
            ceiling,
            edge=edge,
            producers=len(producers),
        )

    def refute_fact_at(
        self,
        label: int,
        bindings: list[tuple[str, Optional[frozenset]]],
        budget: Optional[int] = None,
        description: Optional[str] = None,
        deadline: Optional[float] = None,
    ) -> EdgeResult:
        """Generic heap-reachability fact checking: can execution reach the
        program point *just before* the command at ``label`` in a state
        where each local ``var`` holds a (non-null) instance from
        ``region``? Returns REFUTED / WITNESSED / TIMEOUT like
        :meth:`refute_edge`. This is the building block for the clients the
        paper's introduction sketches (cast checking, escape analysis,
        assertion checking)."""
        qname = self.program.method_of_label(label).qualified_name
        return self._refute(
            description or f"fact@L{label}",
            "fact",
            self._fact_root(qname, label, bindings),
            (qname,),
            budget,
            deadline,
            None,
            fact_label=label,
        )

    def _refute(
        self,
        name: str,
        kind: str,
        roots: Iterable[Optional[PathState]],
        methods: Iterable[Optional[str]],
        budget: Optional[int],
        deadline: Optional[float],
        ceiling: Optional["RungCeiling"],
        edge: Optional[HeapEdge] = None,
        **span,
    ) -> EdgeResult:
        """The one search entry: arm the limits, then search from each of
        the lazily built ``roots`` (``None`` for a root refuted on its
        own) until one is witnessed. REFUTED when every root is refuted,
        vacuously so when there are none. ``methods`` seed the footprint;
        ``name`` and ``kind`` name the result and open the search's
        journal; they, the rung's budget and ``span`` tag its
        ``executor.search`` span."""
        start = time.perf_counter()
        checks_before = self.ctx.solver_stats.checks
        baseline = budget if budget is not None else self.config.path_budget
        self._budget_left = self._baseline = baseline
        self._ceiling = ceiling
        self._arm_deadline(start, deadline)
        self._history = QueryHistory(enabled=self.config.simplify_queries)
        # Each search's record tallies its own refutations.
        self.ctx.refutations = {}
        book = provenance.get_journal()
        self._sj = book.open_search(name, kind=kind) if book is not None else None
        self._fp = set(methods) - {None} if self.config.record_footprints else None
        status = REFUTED
        witness_trace: Optional[list[int]] = None
        with trace.span(
            "executor.search", kind=kind, description=name, budget=baseline, **span
        ) as sp:
            try:
                for state in roots:
                    if state is None:
                        continue  # this root is trivially refuted
                    found = self._search([state])
                    if found is not None:
                        status = WITNESSED
                        witness_trace = _materialize(found.trace)
                        break
            except SearchTimeout:
                status = TIMEOUT
            explored = baseline - self._budget_left
            sp.set(status=status, path_programs=explored)
        result = EdgeResult(
            edge=edge,  # type: ignore[arg-type]
            status=status,
            path_programs=explored,
            seconds=time.perf_counter() - start,
            refutation_kinds=dict(self.ctx.refutations),
            witness_trace=witness_trace,
            description=name,
            kind=kind,
        )
        if self._fp is not None:
            result.footprint = frozenset(self._fp)
            self._fp = None
        if self._sj is not None:
            self._sj.close(status)
            result.kill_reasons = dict(self._sj.kill_counts)
            self._sj = None
        _observe_search(result, self.ctx.solver_stats.checks - checks_before)
        return result

    # ------------------------------------------------------------------
    # Search loop
    # ------------------------------------------------------------------

    def _arm_deadline(
        self, start: float, override: Optional[float] = None
    ) -> None:
        """Arm the per-edge wall-clock deadline (cooperative cancellation:
        the search loops poll :meth:`_check_deadline` and unwind with
        ``SearchTimeout``, which is reported as TIMEOUT / not-refuted).
        ``override`` replaces the config's deadline for this search (the
        driver's portfolio rungs)."""
        deadline = (
            override if override is not None else self.config.deadline_seconds
        )
        if deadline is not None:
            self._deadline_at = start + deadline
        else:
            self._deadline_at = None
        self._deadline_step = 0

    def _check_deadline(self, every: int = 1) -> None:
        if self._deadline_at is None:
            return
        self._deadline_step += 1
        if self._deadline_step % every:
            return
        if time.perf_counter() > self._deadline_at:
            raise SearchTimeout()

    def _spend(self, n: int = 1) -> None:
        self._budget_left -= n
        if self._budget_left < 0:
            raise SearchTimeout()
        ceiling = self._ceiling
        if (
            ceiling is not None
            and self._baseline - self._budget_left > ceiling.limit
        ):
            raise SearchTimeout()
        self._check_deadline()

    def _search(self, initial: list[PathState]) -> Optional[PathState]:
        """DFS over path states; returns a witnessing state or None when
        all paths are refuted."""
        frontier = list(initial)
        explored = 0
        sj = self._sj
        state: Optional[PathState] = None
        try:
            while frontier:
                self._check_deadline(every=16)
                state = frontier.pop()
                explored += 1
                successors = self._step(state)
                if sj is not None:
                    for child in successors:
                        child.sid = sj.new_state(
                            state.sid, _trace_label(child.trace)
                        )
                frontier.extend(self._prune_batch(successors))
        except _Witnessed as w:
            if sj is not None:
                sj.witness(w.state.sid, _trace_label(w.state.trace))
            return w.state
        except SearchTimeout:
            if sj is not None:
                if state is not None and state.sid:
                    sj.kill(
                        state.sid,
                        _trace_label(state.trace),
                        provenance.BUDGET_TIMEOUT,
                        "path budget or wall-clock deadline exhausted",
                    )
                for s in frontier:
                    if s.sid:
                        sj.kill(
                            s.sid,
                            _trace_label(s.trace),
                            provenance.BUDGET_TIMEOUT,
                            "abandoned on the worklist at timeout",
                        )
            raise
        finally:
            _STATES_EXPLORED.inc(explored)
        return None

    # ------------------------------------------------------------------
    # Journaling hooks (no-ops when no journal is installed; subwalk
    # states carry sid 0 and are never journaled)
    # ------------------------------------------------------------------

    def _jkill(
        self,
        state: PathState,
        reason: str,
        detail: str = "",
        label: Optional[int] = None,
    ) -> None:
        sj = self._sj
        if sj is None or state.sid == 0:
            return
        sj.kill(
            state.sid,
            label if label is not None else _trace_label(state.trace),
            reason,
            detail,
        )

    def _jkill_fail(
        self,
        state: PathState,
        fail_reason: Optional[str],
        label: Optional[int] = None,
    ) -> None:
        """Kill attributed from a raw refutation string; solver-unsat kills
        are enriched with the constraint the decision procedure rejected."""
        if self._sj is None or state.sid == 0:
            return
        reason = provenance.classify_kill(fail_reason)
        detail = fail_reason or ""
        if reason == provenance.SOLVER_UNSAT:
            unsat = provenance.take_last_unsat()
            if unsat:
                detail = f"{detail} [{unsat}]" if detail else unsat
        self._jkill(state, reason, detail, label)

    def _prune_batch(self, states: list["PathState"]) -> list["PathState"]:
        """Entailment-based worklist subsumption over one state's successor
        batch (paper Section 3.3: ``Q1 ∨ Q2 = Q2`` when ``Q1 ⊨ Q2``).

        Only successors with the *identical* continuation are compared, and
        a state is dropped only when dominated by a batch-mate that DFS
        pops *earlier* (later in the list) — if the weaker mate is refuted
        the stronger state is too, and if the mate is witnessed the search
        ends there first either way, so the surviving verdict *and* witness
        are bit-identical to the unpruned run."""
        if len(states) < 2 or not self.config.state_subsumption:
            return states
        kept_rev: list[PathState] = []
        dropped = 0
        for s in reversed(states):
            dominated: Optional[PathState] = None
            for t in kept_rev:
                if s.k is t.k and query_entails(s.query, t.query):
                    dominated = t
                    break
            if dominated is not None:
                dropped += 1
                self._jkill(
                    s,
                    provenance.WORKLIST_SUBSUMED,
                    f"entailed by sibling state s{dominated.sid}:"
                    " refuting the weaker query refutes this one",
                )
                continue
            kept_rev.append(s)
        if not dropped:
            return states
        _WORKLIST_SUBSUMED.inc(dropped)
        kept_rev.reverse()
        return kept_rev

    def run_subwalk(self, stmt: Stmt, query: Query) -> list[Query]:
        """Execute ``stmt`` backwards from ``query``; returns the queries
        at the start of ``stmt``. Used by the loop-invariant inference."""
        collected: list[Query] = []
        stack = [PathState((StmtTask(stmt), ()), query)]
        while stack:
            self._check_deadline(every=16)
            state = stack.pop()
            if state.k == ():
                collected.append(state.query)
                continue
            stack.extend(self._step(state, in_subwalk=True))
        return collected

    def _step(self, state: PathState, in_subwalk: bool = False) -> list[PathState]:
        task, rest = state.k
        if isinstance(task, EnterMethodTask):
            return self._enter_method(task, rest, state, in_subwalk)
        stmt = task.stmt
        if isinstance(stmt, Seq):
            k = rest
            first = True
            for child in stmt.stmts:
                k = (StmtTask(child, task.relevance if first else None), k)
                first = False
            return [PathState(k, state.query, state.trace)]
        if isinstance(stmt, Choice):
            # Guard-relevance (Section 3.2): add the branch guards' path
            # constraints only when some side of the choice can affect the
            # query. Otherwise tag the guards as skippable.
            relevance = (
                None
                if self._choice_relevant(stmt, state.query)
                else state.query.version
            )
            out = []
            for branch in stmt.branches:
                self._spend()
                out.append(
                    PathState(
                        (StmtTask(branch, relevance=relevance), rest),
                        state.query.copy(),
                        state.trace,
                    )
                )
            return out
        if isinstance(stmt, Loop):
            if self._history.should_drop(("loop", stmt.label), state.query):
                self._jkill(
                    state,
                    provenance.LOOP_INVARIANT_DROP,
                    f"loop L{stmt.label}: the loop-head history holds an"
                    " already-explored weaker query",
                    label=stmt.label,
                )
                return []
            queries = loops.saturate(self, stmt, state.query)
            out = [PathState(rest, q, state.trace) for q in queries]
            if not out:
                self._jkill(
                    state,
                    provenance.LOOP_INVARIANT_DROP,
                    f"loop L{stmt.label}: invariant inference refuted"
                    " every disjunct",
                    label=stmt.label,
                )
            return out
        assert isinstance(stmt, AtomicStmt)
        return self._atomic(stmt.cmd, task, rest, state, in_subwalk)

    def _atomic(
        self,
        cmd: ins.Command,
        task: StmtTask,
        rest: Cons,
        state: PathState,
        in_subwalk: bool,
    ) -> list[PathState]:
        q = state.query
        trace = (cmd.label, state.trace)
        if isinstance(cmd, ins.Assume) and task.relevance is not None:
            if q.version == task.relevance:
                # The branch did not touch the query: the guard is
                # irrelevant path sensitivity; skip it.
                return [PathState(rest, q, trace)]
        if isinstance(cmd, ins.Invoke):
            # Don't pre-record the invoke label: when a callee is entered,
            # its label is recorded at the method-entry crossing instead so
            # the materialized trace reads in forward execution order
            # (invoke before callee body).
            return self._invoke(cmd, rest, state, state.trace, in_subwalk)
        queries = transfer_command(cmd, q, self.ctx)
        queries = self._explode_explicit(queries)
        if not queries:
            self._jkill_fail(state, self.ctx.last_reason, label=cmd.label)
            return []
        return [PathState(rest, qi, trace) for qi in queries]


    def _explode_explicit(self, queries: list[Query]) -> list[Query]:
        if self.config.representation is not Representation.FULLY_EXPLICIT:
            return queries
        new_refs = list(self.ctx.new_refs)
        out: list[Query] = []
        for q in queries:
            split = [q]
            for v in new_refs:
                if len(split) >= 64:
                    break
                next_split = []
                for qs in split:
                    region = qs.region_of(v)
                    if region is None or len(region) <= 1 or len(region) > 16:
                        next_split.append(qs)
                        continue
                    for loc in sorted(region, key=str):
                        q2 = qs.copy()
                        if q2.narrow(v, frozenset({loc})) and q2.check_sat(
                            self.ctx.solver_stats
                        ):
                            next_split.append(q2)
                split = next_split
            out.extend(split)
        return out

    # ------------------------------------------------------------------
    # Calls
    # ------------------------------------------------------------------

    def _invoke(
        self,
        cmd: ins.Invoke,
        rest: Cons,
        state: PathState,
        trace: Cons,
        in_subwalk: bool,
    ) -> list[PathState]:
        q = state.query
        # A call that can never return normally makes every later program
        # point unreachable (exceptions are never caught).
        if not self.pta.completion.call_may_complete(cmd.label):
            self.ctx.count_refutation("control: callee never completes normally")
            self._jkill(
                state,
                provenance.CONTROL_UNREACHABLE,
                f"call @L{cmd.label} never completes normally: every later"
                " program point is unreachable",
                label=cmd.label,
            )
            return []
        callees = sorted(self.pta.callees_of(cmd.label))
        if self._fp is not None:
            self._fp.update(callees)
        mod = ModSet()
        for callee in callees:
            mod.update(self.pta.modref.method_mod(callee))
        if not callees:
            mod.calls_unknown = True
        if not self._call_relevant(cmd, q, mod):
            return [PathState(rest, q, (cmd.label, trace))]
        if not callees or len(q.stack) >= self.config.max_call_depth:
            self._skip_call(cmd, q, mod)
            self._jnote_skip(state, cmd)
            return [PathState(rest, q, (cmd.label, trace))]
        callees = self._filter_dispatch(cmd, q, callees)
        out = []
        for callee_qname in callees:
            callee = self.program.methods.get(callee_qname)
            if callee is None:
                q2 = q.copy()
                self._skip_call(cmd, q2, mod)
                self._jnote_skip(state, cmd)
                out.append(PathState(rest, q2, trace))
                continue
            if len(callees) > 1:
                self._spend()
            q2 = q.copy()
            ret_val = None
            if cmd.lhs is not None:
                ret_val = q2.get_local(cmd.lhs)
                if ret_val is not None:
                    q2.del_local(cmd.lhs)
            fid = q2.push_frame(callee_qname, cmd.label)
            if ret_val is not None:
                q2.set_local("$ret", ret_val, frame=fid)
            k = (StmtTask(callee.body), (EnterMethodTask(callee_qname), rest))
            out.append(PathState(k, q2, trace))
        if not out:
            self.ctx.count_refutation("dispatch")
            self._jkill(
                state,
                provenance.INSTANCE_CONSTRAINT,
                f"virtual dispatch @L{cmd.label}: no callee is consistent"
                " with the receiver's instance region",
                label=cmd.label,
            )
        return out

    def _jnote_skip(self, state: PathState, cmd: ins.Invoke) -> None:
        """Record the sound-but-lossy callee skip in the journal (a note,
        not a kill: the state survives with weakened constraints)."""
        if self._sj is None or state.sid == 0:
            return
        self._sj.note(
            state.sid,
            provenance.CALLEE_SKIP_DROP,
            f"call @L{cmd.label} skipped soundly: dropped every constraint"
            " the callee might produce (mod/ref fields, statics,"
            " transitively-allocated instances)",
            label=cmd.label,
        )

    def _call_relevant(self, cmd: ins.Invoke, q: Query, mod: ModSet) -> bool:
        if cmd.lhs is not None and q.get_local(cmd.lhs) is not None:
            return True
        return self._mod_touches_query(q, mod, include_locals=False)

    def _mod_touches_query(
        self, q: Query, mod: ModSet, include_locals: bool
    ) -> bool:
        if mod.calls_unknown:
            return q.memory_size() > 0
        if any(mod.writes_field(f) for (_, f) in q.field_cells):
            return True
        if q.array_cells and mod.writes_field(ELEMS):
            return True
        if any(mod.writes_static(c, f) for (c, f) in q.statics):
            return True
        if include_locals and any(
            frame == q.current_frame and var in mod.locals
            for (frame, var) in q.locals
        ):
            return True
        if mod.alloc_sites and self._mentions_sites(q, mod.alloc_sites):
            return True
        return False

    def _choice_relevant(self, stmt: Choice, q: Query) -> bool:
        """True when some branch of the choice may affect the query — by
        writing state the query mentions, or by terminating (throw), which
        makes the surviving side's guard a real path condition."""
        for branch in stmt.branches:
            if self._branch_throws(branch):
                return True
            mod = self._branch_mod(branch)
            if self._mod_touches_query(q, mod, include_locals=True):
                return True
        return False

    def _branch_throws(self, branch: Stmt) -> bool:
        cached = self._branch_throw.get(id(branch))
        if cached is None:
            cached = any(
                isinstance(c, ins.ThrowCmd) for c in walk_commands(branch)
            )
            self._branch_throw[id(branch)] = cached
        return cached

    def _branch_mod(self, branch: Stmt) -> ModSet:
        cached = self._branch_mods.get(id(branch))
        if cached is None:
            cached = self.pta.modref.statement_mod(branch)
            self._branch_mods[id(branch)] = cached
        self._fp_note_stmt(branch)
        return cached

    def _fp_note_stmt(self, stmt: Stmt) -> None:
        """Footprint bookkeeping for statement-level mod/ref consultations
        (branch relevance, loop-invariant inference): the verdict depends on
        the summaries of every callee reachable from the statement."""
        if self._fp is None:
            return
        qnames = self._stmt_callees.get(id(stmt))
        if qnames is None:
            qnames = frozenset(
                qname
                for cmd in walk_commands(stmt)
                if isinstance(cmd, ins.Invoke)
                for qname in self.pta.callees_of(cmd.label)
            )
            self._stmt_callees[id(stmt)] = qnames
        self._fp.update(qnames)

    def _mentions_sites(self, q: Query, sites: set) -> bool:
        for v in q.all_memory_vars():
            if not v.is_ref:
                continue
            region = q.region_of(v)
            if region is None:
                return True  # unconstrained instance: could be from anywhere
            if any(loc.site in sites for loc in region):
                return True
        return False

    def _skip_call(self, cmd: ins.Invoke, q: Query, mod: ModSet) -> None:
        """Soundly skip a callee: drop every constraint it might produce."""
        if cmd.lhs is not None:
            q.del_local(cmd.lhs)
        if mod.calls_unknown:
            q.drop_memory(static=True, field=True, array=True)
            return
        q.drop_memory(
            field=lambda key, _: mod.writes_field(key[1]),
            static=lambda key, _: mod.writes_static(*key),
            array=mod.writes_field(ELEMS),
        )
        # Drop constraints on instances the callee may allocate.
        if mod.alloc_sites:
            doomed: set[SymVar] = set()
            for v in q.all_memory_vars():
                if not v.is_ref:
                    continue
                region = q.region_of(v)
                if region is None or any(loc.site in mod.alloc_sites for loc in region):
                    doomed.add(v)
            if doomed:
                q.drop_memory(
                    local=lambda _, v: q.find(v) in doomed,
                    static=lambda _, v: q.find(v) in doomed,
                    field=lambda key, v: q.find(key[0]) in doomed
                    or q.find(v) in doomed,
                    array=lambda c: q.find(c.base) in doomed
                    or q.find(c.value) in doomed,
                )

    def _filter_dispatch(
        self, cmd: ins.Invoke, q: Query, callees: list[str]
    ) -> list[str]:
        """Keep only callees consistent with the receiver's region."""
        if cmd.kind != "virtual" or cmd.receiver is None:
            return callees
        recv = q.get_local(cmd.receiver)
        if recv is None:
            return callees
        region = q.region_of(recv)
        if region is None:
            return callees
        possible = {
            self.program.resolve_virtual(loc.class_name, cmd.method_name)
            for loc in region
        }
        return [c for c in callees if c in possible]

    # ------------------------------------------------------------------
    # Method entries
    # ------------------------------------------------------------------

    def _enter_method(
        self, task: EnterMethodTask, rest: Cons, state: PathState, in_subwalk: bool
    ) -> list[PathState]:
        q = state.query
        if self._fp is not None:
            self._fp.add(task.qname)
        if not in_subwalk and self._history.should_drop(("entry", task.qname), q):
            self._jkill(
                state,
                provenance.HISTORY_SUBSUMED,
                f"entry of {task.qname}: subsumed by a query already"
                " visited on this search",
            )
            return []
        method = self.program.methods[task.qname]
        if q.stack:
            frame = q.stack[-1]
            invoke = self.program.commands[frame.invoke_label]
            assert isinstance(invoke, ins.Invoke)
            q2 = q
            if not self._bind_entry(q2, method, invoke, pop=True):
                self._jkill_fail(
                    state,
                    q2.fail_reason or self.ctx.last_reason,
                    label=frame.invoke_label,
                )
                return []
            return [PathState(rest, q2, (frame.invoke_label, state.trace))]
        # Empty stack: the absolute entry, or expand into callers.
        if task.qname == self.root:
            if self._entry_satisfiable(q):
                raise _Witnessed(state)
            self._jkill_fail(
                state,
                q.fail_reason
                or self.ctx.last_reason
                or "entry: initial program state contradicts query",
            )
            return []  # unproducible constraints at program start: refuted
        callers = sorted(self.pta.callers_of(task.qname))
        if self._fp is not None:
            self._fp.update(caller for caller, _ in callers)
        out = []
        attempted = 0
        last_fail: Optional[str] = None
        for caller_qname, label in callers:
            invoke = self.program.commands.get(label)
            if not isinstance(invoke, ins.Invoke):
                continue
            self._spend()
            attempted += 1
            q2 = q.copy()
            if not self._bind_entry(
                q2, method, invoke, pop=False, caller_qname=caller_qname
            ):
                last_fail = q2.fail_reason or self.ctx.last_reason
                continue
            k = self._continuation_before(caller_qname, label)
            out.append(PathState(k, q2, (label, state.trace)))
        if not out and not in_subwalk:
            if attempted == 0:
                self._jkill(
                    state,
                    provenance.CONTROL_UNREACHABLE,
                    f"{task.qname} has no callers: the query cannot reach"
                    " the program entry",
                )
            else:
                self._jkill_fail(
                    state,
                    last_fail or "entry binding failed at every caller",
                )
        return out

    def _entry_satisfiable(self, q: Query) -> bool:
        """Does the initial program state satisfy the query? The initial
        heap is empty (so exact heap constraints and locals refute), and
        statics hold null / 0 — a static cell constraint survives only if
        its value can be the default."""
        from ..solver import NULL, LinExpr, eq, ref_eq

        if q.failed:
            return False
        if q.locals or q.field_cells or q.array_cells:
            self.ctx.count_refutation("entry: non-empty heap at program start")
            return False
        for (_, _), value in q.statics.items():
            root = q.find(value)
            if root.is_ref:
                if not q.is_maybe_null(value):
                    self.ctx.count_refutation("entry: static must be null initially")
                    return False
                q.add_pure(ref_eq(root, NULL))
            else:
                q.add_pure(eq(LinExpr.var(root), LinExpr.constant(0)))
        if not q.check_sat(self.ctx.solver_stats):
            self.ctx.count_refutation("entry: initial values contradict query")
            return False
        return True

    def _bind_entry(
        self,
        q: Query,
        method,
        invoke: ins.Invoke,
        pop: bool,
        caller_qname: Optional[str] = None,
    ) -> bool:
        """Translate callee-frame constraints at the method entry into the
        caller's frame (formals become actuals)."""
        callee_frame = q.current_frame
        params = list(method.params)
        bindings: list[tuple[str, SymVar]] = []
        for (frame, var), value in list(q.locals.items()):
            if frame != callee_frame:
                continue
            if var in params:
                bindings.append((var, value))
                q.del_local(var, frame)
            else:
                # A non-parameter local constrained at entry: the value of
                # an uninitialized local can satisfy no instance constraint.
                q.fail("entry: constraint on uninitialized local")
                self.ctx.count_refutation("entry")
                return False
        if pop:
            q.pop_frame()
        else:
            assert caller_qname is not None
            q.rebase_to_caller(caller_qname)
        actuals: dict[str, ins.Atom] = {}
        plist = params[1:] if not method.is_static else params
        if not method.is_static:
            assert invoke.receiver is not None
            actuals[params[0]] = ins.VarAtom(invoke.receiver)
        for name, atom in zip(plist, invoke.args):
            actuals[name] = atom
        for var, value in bindings:
            atom = actuals.get(var)
            if atom is None:
                q.fail("entry: parameter/argument mismatch")
                return False
            if not _bind_value_into(q, self.ctx, atom, value):
                self.ctx.count_refutation(q.fail_reason or "entry binding")
                return False
            # Virtual dispatch consistency: the receiver must be an
            # instance that actually dispatches to this method.
            if (
                invoke.kind == "virtual"
                and not method.is_static
                and var == params[0]
                and self.ctx.narrowing
            ):
                recv_region = self.pta.pt_local(
                    q.current_method, invoke.receiver or ""
                )
                compatible = frozenset(
                    loc
                    for loc in recv_region
                    if self.program.resolve_virtual(loc.class_name, method.name)
                    == method.qualified_name
                )
                if not q.narrow(value, compatible):
                    self.ctx.count_refutation("dispatch")
                    return False
        self.ctx.renarrow(q)
        if q.failed or not q.check_sat(self.ctx.solver_stats):
            self.ctx.count_refutation("entry binding unsat")
            return False
        return True

    # ------------------------------------------------------------------
    # Continuations and initial states
    # ------------------------------------------------------------------

    def _parent_map(self, qname: str) -> dict[int, tuple[Stmt, int]]:
        cached = self._parents.get(qname)
        if cached is not None:
            return cached
        parents: dict[int, tuple[Stmt, int]] = {}

        def walk(stmt: Stmt) -> None:
            if isinstance(stmt, Seq):
                for i, child in enumerate(stmt.stmts):
                    parents[id(child)] = (stmt, i)
                    walk(child)
            elif isinstance(stmt, Choice):
                for i, branch in enumerate(stmt.branches):
                    parents[id(branch)] = (stmt, i)
                    walk(branch)
            elif isinstance(stmt, Loop):
                parents[id(stmt.body)] = (stmt, 0)
                walk(stmt.body)

        walk(self.program.methods[qname].body)
        self._parents[qname] = parents
        return parents

    def _continuation_before(self, qname: str, label: int) -> Cons:
        """The continuation for everything that executes before the command
        at ``label`` inside method ``qname`` (excluding the command)."""
        parents = self._parent_map(qname)
        node: Stmt = self.program.statements[label]
        tasks: list[Task] = []
        while True:
            entry = parents.get(id(node))
            if entry is None:
                break
            parent, index = entry
            if isinstance(parent, Seq):
                for i in range(index - 1, -1, -1):
                    tasks.append(StmtTask(parent.stmts[i]))
            elif isinstance(parent, Loop):
                # Starting mid-iteration: the partial prefix was already
                # scheduled above; now saturate at the loop head.
                tasks.append(StmtTask(parent))
            node = parent
        tasks.append(EnterMethodTask(qname))
        k: Cons = ()
        for t in reversed(tasks):
            k = (t, k)
        return k

    def _initial_state(self, edge: HeapEdge, label: int) -> Optional[PathState]:
        """The produced-case query for one producing statement."""
        cmd = self.program.commands[label]
        method = self.program.method_of_label(label)
        q = Query(method.qualified_name)
        self.ctx.begin_command()
        ok = True
        if isinstance(cmd, ins.FieldWrite) or isinstance(cmd, ins.ArrayWrite):
            assert not edge.is_static_root
            src = edge.src
            va = q.new_ref(frozenset({src}), hint=str(src))
            vb = q.new_ref(frozenset({edge.dst}), hint=str(edge.dst))
            q.mark_nonnull(va)
            q.mark_nonnull(vb)
            q.set_local(cmd.base, va)
            if self.ctx.narrowing:
                ok = q.narrow(va, self.pta.pt_local(method.qualified_name, cmd.base))
            ok = ok and _bind_value_into(q, self.ctx, cmd.rhs, vb)
        elif isinstance(cmd, ins.StaticWrite):
            vb = q.new_ref(frozenset({edge.dst}), hint=str(edge.dst))
            q.mark_nonnull(vb)
            ok = _bind_value_into(q, self.ctx, cmd.rhs, vb)
        else:  # pragma: no cover - producers are always writes
            return None
        return self._root(q, method.qualified_name, label, ok, "edge")

    def _fact_root(
        self,
        qname: str,
        label: int,
        bindings: list[tuple[str, Optional[frozenset]]],
    ) -> Iterator[Optional[PathState]]:
        """The single root of a fact search: each bound local holds a
        non-null instance from its region just before ``label``."""
        q = Query(qname)
        for var, region in bindings:
            v = q.new_ref(region, maybe_null=False, hint=var)
            if q.failed or not q.set_local(var, v):
                break
        yield self._root(q, qname, label, True, "fact")

    def _root(
        self, q: Query, qname: str, label: int, ok: bool, kind: str
    ) -> Optional[PathState]:
        """The search root for query ``q`` just before the command at
        ``label`` in ``qname``, or ``None`` when ``q`` is already refuted
        there (``ok`` false, failed or unsatisfiable). Spends the root's
        path program; the journal records the root and any kill at it."""
        detail, where, unsat = _ROOT_WORDS[kind]
        if not ok or q.failed or not q.check_sat(self.ctx.solver_stats):
            if self._sj is not None:
                sid = self._sj.new_state(0, label, detail=detail)
                # An edge root also blames the last refutation its
                # binding counted; a fact root binds nothing.
                fail = q.fail_reason or (
                    self.ctx.last_reason if kind == "edge" else None
                )
                self._sj.kill(
                    sid, label, provenance.classify_kill(fail), fail or unsat
                )
            return None
        k = self._continuation_before(qname, label)
        state = PathState(k, q, (label, ()))
        if self._sj is not None:
            state.sid = self._sj.new_state(0, label, detail=detail)
        try:
            self._spend()
        except SearchTimeout:
            # The budget/deadline died at the root: journal the kill here,
            # because the state never reaches _search's timeout sweep.
            if self._sj is not None:
                self._sj.kill(
                    state.sid,
                    label,
                    provenance.BUDGET_TIMEOUT,
                    f"budget or deadline exhausted at the {where}",
                )
            raise
        return state


def _trace_label(trace: Cons) -> Optional[int]:
    """The most recently visited label of a state (None before any)."""
    return trace[0] if trace != () else None


def _materialize(trace: Cons) -> list[int]:
    labels = []
    while trace != ():
        label, trace = trace
        labels.append(label)
    return labels  # newest-first == forward execution order after backwards walk
