"""Figures 1 & 2 of the paper: the Vec null-object false alarm.

The shared static `Vec.EMPTY` backing array pollutes the flow-insensitive
points-to graph: it appears to contain every object ever pushed into any
Vec, so the graph claims the Activity is reachable from both `Act.objs`
and `Vec.EMPTY` — two false leak alarms. Refuting them needs the exact
reasoning of the paper: the grow-branch dies at the fresh allocation
(WIT-NEW), and the bypass branch carries `sz < cap` back to the
constructor where sz=0, cap=-1 contradicts it.

Run:  python examples/vec_refutation.py
"""

from repro.ir import compile_program
from repro.pointsto import ELEMS, ContainerSensitive, analyze, find_alarms
from repro.symbolic import Engine, SearchConfig

FIGURE1 = """
class Activity { }
class Main {
    static void main() {
        Act a = new Act();
        a.onCreate();
    }
}
class Act extends Activity {
    static Vec objs = new Vec();
    void onCreate() {
        Vec acts = new Vec();
        acts.push(this);
        Act.objs.push("hello");
    }
}
class Vec {
    static Object[] EMPTY = new Object[1];
    int sz;
    int cap;
    Object[] tbl;
    Vec() { this.sz = 0; this.cap = 0 - 1; this.tbl = Vec.EMPTY; }
    void push(Object val) {
        Object[] oldtbl = this.tbl;
        if (this.sz >= this.cap) {
            this.cap = this.tbl.length * 2;
            this.tbl = new Object[this.cap];
            for (int i = 0; i < this.sz; i++) { this.tbl[i] = oldtbl[i]; }
        }
        this.tbl[this.sz] = val;
        this.sz = this.sz + 1;
    }
}
"""


def main() -> None:
    program = compile_program(FIGURE1)
    pta = analyze(program, policy=ContainerSensitive(containers={"Vec"}))

    # --- Figure 2: the polluted points-to graph --------------------------
    print("Figure 2 — the flow-insensitive points-to graph (dot):\n")
    print(pta.graph.to_dot())

    alarms = find_alarms(pta.graph, program.class_table, "Activity")
    print("\nflow-insensitive leak alarms (all false!):")
    for root, target in alarms:
        print(f"  {root} ↪ {target}")

    # --- the refutation ---------------------------------------------------
    (empty,) = pta.pt_static("Vec", "EMPTY")
    polluted = [
        e for e in pta.graph.heap_edges() if e.src == empty and e.field == ELEMS
    ]
    engine = Engine(pta, SearchConfig(path_budget=50_000))
    print("\nrefuting the polluted EMPTY-contents edges:")
    for edge in polluted:
        result = engine.refute_edge(edge)
        producers = pta.producers_of(edge)
        print(
            f"  {edge}: {result.status.upper()}"
            f" ({len(producers)} producing statements,"
            f" {result.path_programs} path programs)"
        )
        for reason, count in sorted(result.kill_reasons.items()):
            print(f"      dead branches by {reason}: {count}")


if __name__ == "__main__":
    main()
