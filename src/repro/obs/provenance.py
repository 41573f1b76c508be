"""Refutation provenance: per-query search journals and prune attribution.

The paper's value proposition is *precise refutations* — telling the
developer **why** a heap-reachability alarm is false — and its evaluation
attributes refutation power to specific mechanisms (instance constraints,
loop-invariant inference, strong updates). This module records that "why"
as structured data: a :class:`SearchJournal` per refutation query logs
every state event of the backwards symbolic execution —

* ``spawned`` — a path state entered the worklist (parent id + label);
* ``killed`` — the state died, with a **typed kill reason** from
  :data:`KILL_REASONS` plus the raw constraint detail;
* ``witnessed`` — the state survived to the program entry;
* ``note`` — a non-killing provenance remark (a callee skipped soundly,
  a loop invariant inferred).

Like :mod:`repro.obs.trace`, journaling is off by default and the hooks in
:mod:`repro.symbolic.executor` / :mod:`repro.symbolic.loops` /
:mod:`repro.solver.core` are no-ops unless :func:`install` has made a
:class:`RunJournal` process-wide active (one ``is None`` check per hook;
the ``benchmarks/obs_overhead.py`` guard covers the disabled cost).

The kill counts themselves are not the journal's: the engine tallies
every search's kills under this taxonomy whether or not a journal is
installed (``EdgeResult.kill_reasons``), and :meth:`SearchJournal.close`
adopts that tally as :attr:`SearchJournal.kill_counts`. On top of the
journal sit the consumers:

* **attribution** — the per-search tally rolled up per run
  (:meth:`RunJournal.attribution`, which equals ``RunReport.attribution``);
* **exporters** — JSONL (:meth:`RunJournal.write_jsonl`) and Graphviz DOT
  of the search tree with kill reasons on the leaves (:func:`to_dot`);
* **certificates** — :func:`render_certificate` turns the journals of one
  edge into the human-readable proof the ``thresher explain`` subcommand
  prints: every producer's search tree with the constraint that killed
  each branch.

Journals survive concurrency: threads share the process-wide
:class:`RunJournal` (``open_search`` is the only synchronized point; each
search's events are single-writer); process workers journal locally and
the driver merges their :meth:`RunJournal.drain` payloads back with
:meth:`RunJournal.absorb`.
"""

from __future__ import annotations

import json
import threading
from typing import Iterable, Optional

# ---------------------------------------------------------------------------
# The kill-reason taxonomy (see docs/observability.md for the mapping from
# raw refutation strings).
# ---------------------------------------------------------------------------

#: An instance (``from`` region), separation, or dispatch constraint became
#: contradictory — the paper's axioms (1)/(2) and the separating conjunction.
INSTANCE_CONSTRAINT = "instance-constraint-contradiction"
#: The decision procedure reported the accumulated pure path and data
#: constraints unsatisfiable.
SOLVER_UNSAT = "solver-unsat"
#: Dropped at a loop head: the inferred disjunctive invariant (or the
#: loop-head query history) already covers this state.
LOOP_INVARIANT_DROP = "loop-invariant-drop"
#: Dropped before expansion: an entailment-weaker sibling in the same
#: successor batch subsumes it (Section 3.3 worklist subsumption).
WORKLIST_SUBSUMED = "worklist-subsumed"
#: Died crossing a call boundary that had to be skipped or could not be
#: bound (parameter/argument mismatch at an entry).
CALLEE_SKIP_DROP = "callee-skip-drop"
#: The path-program budget or the wall-clock deadline ran out; the state
#: (and everything still on the worklist) was abandoned unproven.
BUDGET_TIMEOUT = "budget-timeout"
#: Control flow can never reach here: the callee never completes normally,
#: or the method has no callers.
CONTROL_UNREACHABLE = "control-unreachable"
#: Dropped at a non-loop program point whose query history holds an
#: already-explored weaker query.
HISTORY_SUBSUMED = "history-subsumed"

KILL_REASONS = (
    INSTANCE_CONSTRAINT,
    SOLVER_UNSAT,
    LOOP_INVARIANT_DROP,
    WORKLIST_SUBSUMED,
    CALLEE_SKIP_DROP,
    BUDGET_TIMEOUT,
    CONTROL_UNREACHABLE,
    HISTORY_SUBSUMED,
)

SPAWNED = "spawned"
KILLED = "killed"
WITNESSED = "witnessed"
NOTE = "note"


def classify_kill(fail_reason: Optional[str]) -> str:
    """Map a raw refutation string (``Query.fail_reason`` /
    ``TransferContext.last_reason`` text) onto the typed taxonomy."""
    if not fail_reason:
        return SOLVER_UNSAT
    head = fail_reason.split(":", 1)[0].strip()
    if head == "control":
        return CONTROL_UNREACHABLE
    if head.startswith("pure constraints"):
        return SOLVER_UNSAT
    if head == "entry" or head == "entry binding unsat":
        if "parameter/argument" in fail_reason:
            return CALLEE_SKIP_DROP
        if "initial values" in fail_reason or "unsat" in fail_reason:
            return SOLVER_UNSAT
        return INSTANCE_CONSTRAINT
    # instance constraint / separation / kind mismatch / dispatch / narrow:
    # all are contradictions in the instance-constraint fragment.
    return INSTANCE_CONSTRAINT


class StateEvent:
    """One search-tree event. ``sid`` numbers states per search, starting
    at 1 (0 means "no state": the synthetic root / a non-journaled state)."""

    __slots__ = ("kind", "sid", "parent", "label", "reason", "detail")

    def __init__(
        self,
        kind: str,
        sid: int,
        parent: Optional[int] = None,
        label: Optional[int] = None,
        reason: Optional[str] = None,
        detail: str = "",
    ) -> None:
        self.kind = kind
        self.sid = sid
        self.parent = parent
        self.label = label
        self.reason = reason
        self.detail = detail

    def to_row(self) -> list:
        return [self.kind, self.sid, self.parent, self.label, self.reason,
                self.detail]

    @classmethod
    def from_row(cls, row: list) -> "StateEvent":
        return cls(row[0], row[1], row[2], row[3], row[4], row[5])

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"StateEvent({self.kind}, s{self.sid}, parent={self.parent},"
            f" label={self.label}, reason={self.reason!r})"
        )


class SearchJournal:
    """The event log of one refutation search (one ``refute_edge`` /
    ``refute_fact_at`` call). Single-writer: only the engine running the
    search appends; readers come after :meth:`close`.

    Events beyond ``max_events`` are counted (``dropped_events``) but not
    stored; :attr:`kill_counts` is the engine's tally, set on
    :meth:`close`, so it stays exact regardless of the retention cap.
    """

    __slots__ = ("description", "kind", "status", "events", "kill_counts",
                 "max_events", "dropped_events", "witness_sid", "_next_sid")

    def __init__(
        self, description: str, kind: str = "edge", max_events: int = 200_000
    ) -> None:
        self.description = description
        self.kind = kind
        self.status: Optional[str] = None
        self.events: list[StateEvent] = []
        self.kill_counts: dict[str, int] = {}
        self.max_events = max_events
        self.dropped_events = 0
        self.witness_sid: Optional[int] = None
        self._next_sid = 1

    # -- recording ----------------------------------------------------------

    def _add(self, event: StateEvent) -> None:
        if len(self.events) < self.max_events:
            self.events.append(event)
        else:
            self.dropped_events += 1

    def new_state(
        self, parent: int, label: Optional[int], detail: str = ""
    ) -> int:
        sid = self._next_sid
        self._next_sid += 1
        self._add(StateEvent(SPAWNED, sid, parent, label, None, detail))
        return sid

    def kill(
        self, sid: int, label: Optional[int], reason: str, detail: str = ""
    ) -> None:
        self._add(StateEvent(KILLED, sid, None, label, reason, detail))

    def witness(self, sid: int, label: Optional[int]) -> None:
        self.witness_sid = sid
        self._add(StateEvent(WITNESSED, sid, None, label, None, ""))

    def note(
        self,
        sid: int,
        reason: str,
        detail: str = "",
        label: Optional[int] = None,
    ) -> None:
        self._add(StateEvent(NOTE, sid, None, label, reason, detail))

    def close(self, status: str, kill_counts: dict[str, int]) -> None:
        """Seal the journal with the search verdict and the engine's kill
        tally for the search (its record's ``kill_reasons``)."""
        self.status = status
        self.kill_counts = dict(kill_counts)

    # -- accessors ----------------------------------------------------------

    @property
    def states(self) -> int:
        return self._next_sid - 1

    @property
    def kills(self) -> int:
        return sum(self.kill_counts.values())

    def roots(self) -> list[StateEvent]:
        return [
            e for e in self.events if e.kind == SPAWNED and not e.parent
        ]

    def children(self) -> dict[int, list[StateEvent]]:
        out: dict[int, list[StateEvent]] = {}
        for e in self.events:
            if e.kind == SPAWNED and e.parent:
                out.setdefault(e.parent, []).append(e)
        return out

    def fates(self) -> dict[int, StateEvent]:
        """The killed/witnessed event per state id (leaves only)."""
        return {
            e.sid: e for e in self.events if e.kind in (KILLED, WITNESSED)
        }

    # -- (de)serialization --------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "description": self.description,
            "kind": self.kind,
            "status": self.status,
            "states": self.states,
            "kill_counts": dict(self.kill_counts),
            "witness_sid": self.witness_sid,
            "dropped_events": self.dropped_events,
            "events": [e.to_row() for e in self.events],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "SearchJournal":
        sj = cls(data.get("description", ""), kind=data.get("kind", "edge"))
        sj.status = data.get("status")
        sj.kill_counts = dict(data.get("kill_counts", {}))
        sj.witness_sid = data.get("witness_sid")
        sj.dropped_events = data.get("dropped_events", 0)
        sj.events = [StateEvent.from_row(r) for r in data.get("events", [])]
        sj._next_sid = data.get("states", 0) + 1
        return sj


class RunJournal:
    """Every search journal of one run, in search-start order.

    Thread-safe at the granularity the engines need: :meth:`open_search`
    (and the merge/drain paths) synchronize on one lock; the events inside
    a :class:`SearchJournal` are only ever written by the engine that
    opened it.
    """

    def __init__(self, max_events_per_search: int = 200_000) -> None:
        self.max_events_per_search = max_events_per_search
        self._lock = threading.Lock()
        self._searches: list[SearchJournal] = []

    def open_search(self, description: str, kind: str = "edge") -> SearchJournal:
        sj = SearchJournal(
            description, kind=kind, max_events=self.max_events_per_search
        )
        with self._lock:
            self._searches.append(sj)
        return sj

    @property
    def searches(self) -> list[SearchJournal]:
        with self._lock:
            return list(self._searches)

    def searches_for(self, description: str) -> list[SearchJournal]:
        """Journals whose description matches exactly, else by substring."""
        all_searches = self.searches
        exact = [s for s in all_searches if s.description == description]
        if exact:
            return exact
        return [s for s in all_searches if description in s.description]

    def attribution(self) -> dict[str, int]:
        """Kill counts summed over every search — the run-level rollup that
        ``RunReport.attribution`` must equal."""
        out: dict[str, int] = {}
        for sj in self.searches:
            for reason, n in sj.kill_counts.items():
                out[reason] = out.get(reason, 0) + n
        return dict(sorted(out.items()))

    # -- worker-pool merge --------------------------------------------------

    def drain(self) -> list[dict]:
        """Serialize and clear: what a process-pool worker sends back after
        each job (only searches opened since the previous drain)."""
        with self._lock:
            done, self._searches = self._searches, []
        return [sj.to_dict() for sj in done]

    def absorb(self, payloads: Iterable[dict]) -> None:
        """Merge journals drained from a worker into this (parent) journal."""
        merged = [SearchJournal.from_dict(p) for p in payloads]
        with self._lock:
            self._searches.extend(merged)

    # -- export -------------------------------------------------------------

    def to_dicts(self) -> list[dict]:
        return [sj.to_dict() for sj in self.searches]

    def write_jsonl(self, path: str) -> None:
        """One JSON object per line: a header, then one line per search."""
        searches = self.searches
        with open(path, "w") as fh:
            header = {
                "journal": "repro.obs.provenance",
                "schema_version": 1,
                "searches": len(searches),
                "attribution": self.attribution(),
            }
            fh.write(json.dumps(header, sort_keys=True) + "\n")
            for sj in searches:
                fh.write(json.dumps(sj.to_dict(), sort_keys=True) + "\n")

    @classmethod
    def read_jsonl(cls, path: str) -> "RunJournal":
        journal = cls()
        with open(path) as fh:
            for line in fh:
                line = line.strip()
                if not line:
                    continue
                data = json.loads(line)
                if "events" in data:
                    journal._searches.append(SearchJournal.from_dict(data))
        return journal


# ---------------------------------------------------------------------------
# The process-wide active journal (same pattern as trace.install/disable).
# ---------------------------------------------------------------------------

_active: Optional[RunJournal] = None
_tls = threading.local()


def install(journal: Optional[RunJournal] = None) -> RunJournal:
    """Make ``journal`` (or a fresh one) the process-wide active journal."""
    global _active
    journal = journal or RunJournal()
    _active = journal
    return journal


def disable() -> None:
    """Return to the no-journal default."""
    global _active
    _active = None


def get_journal() -> Optional[RunJournal]:
    """The active journal, or None when journaling is disabled."""
    return _active


def enabled() -> bool:
    return _active is not None


def note_unsat(atoms: Iterable, cap: int = 6) -> None:
    """Solver hook: remember (per thread) the conjunction the decision
    procedure just found unsatisfiable, so the kill event for the state
    that asked can name the killing constraint. Only called when a journal
    is active and the verdict was UNSAT."""
    rendered = sorted(str(a) for a in atoms)
    if len(rendered) > cap:
        rendered = rendered[:cap] + [f"... +{len(rendered) - cap} more"]
    _tls.last_unsat = " ∧ ".join(rendered) if rendered else "(empty)"


def take_last_unsat() -> Optional[str]:
    """Pop the thread's last-unsat constraint rendering (or None)."""
    out = getattr(_tls, "last_unsat", None)
    _tls.last_unsat = None
    return out


# ---------------------------------------------------------------------------
# Exporters: Graphviz DOT and the human-readable certificate.
# ---------------------------------------------------------------------------

_DOT_KILL_COLORS = {
    INSTANCE_CONSTRAINT: "indianred1",
    SOLVER_UNSAT: "salmon",
    LOOP_INVARIANT_DROP: "goldenrod1",
    WORKLIST_SUBSUMED: "khaki",
    CALLEE_SKIP_DROP: "plum",
    BUDGET_TIMEOUT: "gray70",
    CONTROL_UNREACHABLE: "darkseagreen3",
    HISTORY_SUBSUMED: "wheat",
}


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def to_dot(searches: list[SearchJournal], title: str = "search") -> str:
    """A Graphviz digraph of the search tree(s): one cluster per producer
    search, kill reasons (and colors) on the dead leaves, the witness leaf
    in green."""
    lines = [
        "digraph search {",
        "  rankdir=TB;",
        "  node [shape=box, fontsize=10, style=filled, fillcolor=white];",
        f'  label="{_dot_escape(title)}";',
    ]
    for i, sj in enumerate(searches):
        fates = sj.fates()
        lines.append(f"  subgraph cluster_{i} {{")
        status = sj.status or "?"
        lines.append(
            f'    label="{_dot_escape(sj.description)} [{status}]"; fontsize=11;'
        )
        for e in sj.events:
            if e.kind != SPAWNED:
                continue
            name = f"s{i}_{e.sid}"
            where = f"@L{e.label}" if e.label is not None else ""
            fate = fates.get(e.sid)
            if fate is not None and fate.kind == KILLED:
                label = f"s{e.sid} {where}\\n✕ {fate.reason}"
                if fate.detail:
                    label += f"\\n{_dot_escape(fate.detail[:60])}"
                color = _DOT_KILL_COLORS.get(fate.reason or "", "indianred1")
                lines.append(
                    f'    {name} [label="{label}", fillcolor={color}];'
                )
            elif fate is not None and fate.kind == WITNESSED:
                lines.append(
                    f'    {name} [label="s{e.sid} {where}\\n✓ witnessed",'
                    f" fillcolor=palegreen];"
                )
            else:
                lines.append(f'    {name} [label="s{e.sid} {where}"];')
            if e.parent:
                lines.append(f"    s{i}_{e.parent} -> {name};")
        lines.append("  }")
    lines.append("}")
    return "\n".join(lines) + "\n"


def _render_tree(sj: SearchJournal, max_nodes: int = 400) -> list[str]:
    """Indented text rendering of one search tree. Linear spawn chains
    (Seq unfoldings) are collapsed so the certificate shows decisions, not
    scheduler steps."""
    children = sj.children()
    fates = sj.fates()
    spawned = {e.sid: e for e in sj.events if e.kind == SPAWNED}
    lines: list[str] = []
    emitted = 0

    def describe(sid: int) -> str:
        e = spawned[sid]
        where = f" @L{e.label}" if e.label is not None else ""
        extra = f" ({e.detail})" if e.detail else ""
        return f"s{sid}{where}{extra}"

    def fate_line(sid: int) -> Optional[str]:
        fate = fates.get(sid)
        if fate is None:
            return None
        if fate.kind == WITNESSED:
            return "✓ WITNESSED: a concrete path program survives to the entry"
        detail = f" — {fate.detail}" if fate.detail else ""
        return f"✕ killed: {fate.reason}{detail}"

    def walk(sid: int, prefix: str, tail: bool) -> None:
        nonlocal emitted
        if emitted >= max_nodes:
            return
        # Collapse single-child chains without a fate of their own.
        chain = [sid]
        while (
            sid not in fates
            and len(children.get(sid, [])) == 1
        ):
            sid = children[sid][0].sid
            chain.append(sid)
        emitted += 1
        connector = "└─ " if tail else "├─ "
        if not prefix and not lines:
            connector = ""
        head = describe(chain[0])
        if len(chain) > 2:
            head += f" ⋯ {describe(chain[-1])}"
        elif len(chain) == 2:
            head += f" → {describe(chain[-1])}"
        line = prefix + connector + head
        fate = fate_line(sid)
        if fate is not None and not children.get(sid):
            line += "   " + fate
        lines.append(line)
        kids = children.get(sid, [])
        if fate is not None and kids:
            lines.append(prefix + ("   " if tail or not prefix else "│  ") + fate)
        child_prefix = prefix + ("   " if tail or not prefix else "│  ")
        for i, kid in enumerate(kids):
            walk(kid.sid, child_prefix, i == len(kids) - 1)

    roots = sj.roots()
    for i, root in enumerate(roots):
        walk(root.sid, "", i == len(roots) - 1)
    if emitted >= max_nodes:
        lines.append(f"... (tree truncated at {max_nodes} states)")
    if sj.dropped_events:
        lines.append(
            f"... ({sj.dropped_events} events beyond the retention cap;"
            " kill counts stay exact)"
        )
    return lines


def render_certificate(
    description: str,
    journal: RunJournal,
    status: Optional[str] = None,
    max_nodes: int = 400,
) -> str:
    """The human-readable refutation certificate for one edge/fact: every
    producer search tree, the typed kill reason (and constraint) on every
    dead branch, and the mechanism rollup. For witnessed edges the tree
    shows the surviving branch; callers can append the source-anchored
    witness narrative from :mod:`repro.symbolic.witness`."""
    searches = journal.searches_for(description)
    if not searches:
        return (
            f"no journal recorded for {description!r}\n"
            "(journals are written by runs with --journal /"
            " provenance.install(); cached verdicts reuse the original"
            " search's journal entry)"
        )
    verdict = status or searches[-1].status or "?"
    kills: dict[str, int] = {}
    for sj in searches:
        for reason, n in sj.kill_counts.items():
            kills[reason] = kills.get(reason, 0) + n
    title = "refutation certificate" if verdict == "refuted" else "search provenance"
    lines = [
        f"{title} — {description}",
        f"verdict: {verdict}",
    ]
    if kills:
        rollup = ", ".join(
            f"{reason} ×{n}" for reason, n in sorted(kills.items())
        )
        lines.append(f"dead branches: {sum(kills.values())} ({rollup})")
    else:
        lines.append("dead branches: none")
    for i, sj in enumerate(searches, 1):
        lines.append("")
        header = f"producer search {i} of {len(searches)}"
        lines.append(
            f"{header} — {sj.states} state(s), {sj.kills} kill(s)"
            f" [{sj.status or '?'}]"
        )
        lines.extend("  " + line for line in _render_tree(sj, max_nodes))
        notes = [e for e in sj.events if e.kind == NOTE]
        for e in notes[:8]:
            where = f" @L{e.label}" if e.label is not None else ""
            lines.append(f"  note{where}: {e.reason} — {e.detail}")
    if verdict == "refuted":
        lines.append("")
        lines.append(
            "every producer's every path program is refuted: the edge"
            " cannot be produced by any concrete execution."
        )
    return "\n".join(lines)
