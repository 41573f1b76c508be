"""Downcast safety via refutation — a second client for the same engine.

The paper's introduction lists cast checking among the analyses that
precise heap reachability improves. The flow-insensitive points-to sets
flag every cast whose operand *may* hold an incompatible object; the
witness-refutation search then separates the casts that are provably safe
(all paths to a bad state refuted) from the genuinely dangerous ones
(a path program witness to a ClassCastException).

Run:  python examples/cast_checking.py
"""

from repro.clients import analyze_casts
from repro.ir import compile_program
from repro.pointsto import analyze
from repro.symbolic.witness import witness_steps

SOURCE = """
class Shape { }
class Circle extends Shape { int radius; }
class Square extends Shape { int side; }

class Main {
    static void main() {
        // 1. Trivially safe: the points-to set is already compatible.
        Shape s1 = new Circle();
        Circle c1 = (Circle) s1;

        // 2. Safe only path-sensitively: the tag never becomes 1, so the
        //    Square branch is dead; the refuter proves it.
        int tag = 0;
        Shape s2 = new Circle();
        if (tag == 1) { s2 = new Square(); }
        Circle c2 = (Circle) s2;

        // 3. Safe because of the instanceof guard.
        Shape s3 = new Circle();
        if (nondet()) { s3 = new Square(); }
        if (s3 instanceof Circle) {
            Circle c3 = (Circle) s3;
        }

        // 4. Genuinely dangerous: both shapes reach the cast unguarded.
        Shape s4 = new Circle();
        if (nondet()) { s4 = new Square(); }
        Circle c4 = (Circle) s4;
    }
}
"""


def main() -> None:
    program = compile_program(SOURCE)
    pta = analyze(program)
    reports = analyze_casts(pta).results
    print(f"checked {len(reports)} casts\n")
    for report in reports:
        line = program.commands[report.label].pos.line
        suspects = ", ".join(sorted(str(l) for l in report.suspects)) or "none"
        print(f"L{line}: ({report.cast.class_name}) {report.cast.src}"
              f" -> {report.status.upper()}   [suspect sites: {suspects}]")
        if report.witness_trace:
            steps = witness_steps(program, report.witness_trace)
            print("      failure path program:")
            for step in steps[-4:]:
                print(f"        L{step.line}: {step.text}")


if __name__ == "__main__":
    main()
