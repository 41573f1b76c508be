"""Statically checkable heap assertions — the paper's introduction:

    "A heap reachability checker would also enable a developer to write
    statically checkable assertions about, for example, object lifetimes,
    encapsulation of fields, or immutability of objects."

Three assertion styles on one small connection-pool program:

1. unreachability — secrets never reachable from the public registry;
2. lifetime      — request-scoped objects never escape to statics;
3. encapsulation — the pool's internal slots never leak out.

Run:  python examples/heap_assertions.py
"""

from repro.clients import (
    analyze_encapsulation,
    analyze_immutability,
    assert_not_leaked,
    assert_unreachable,
    verified,
)
from repro.ir import compile_program
from repro.pointsto import analyze

SOURCE = """
class Credential { }
class Request { int id; }
class Connection {
    Credential auth;
    Connection(Credential c) { this.auth = c; }
}

class Pool {
    Connection slot;                   // the pool's private representation
    Pool() { this.slot = null; }
    void put(Connection c) { this.slot = c; }
    Connection borrow() { return this.slot; }
}

class Registry {
    static Object published;           // world-readable
    static Pool pool;
}

class Main {
    static void main() {
        Credential secret = new Credential();
        Connection conn = new Connection(secret);

        Pool pool = new Pool();
        pool.put(conn);
        Registry.pool = pool;

        // A request-scoped scratch object: must never outlive main.
        Request scratch = new Request();

        // Publish only a sanitized summary, never the credential...
        Object summary = new Object();
        int paranoid = 1;
        if (paranoid == 0) { summary = secret; }   // dead by configuration
        Registry.published = summary;
    }
}
"""


def main() -> None:
    program = compile_program(SOURCE)
    pta = analyze(program)

    # 1. Unreachability: Registry.published never reaches a Credential.
    results = assert_unreachable(pta, "Registry", "published", "Credential")
    status = "VERIFIED" if verified(results) else "VIOLATED"
    print(f"assert: no Credential reachable from Registry.published -> {status}")
    for r in results:
        print(f"    {r.root} ↪ {r.target}: {r.status}"
              f" ({r.refuted_edges} edge refutations)")

    # ...but the same assertion on Registry.pool is genuinely violated
    # (the pool holds the connection which holds the credential).
    results = assert_unreachable(pta, "Registry", "pool", "Credential")
    status = "VERIFIED" if verified(results) else "VIOLATED"
    print(f"\nassert: no Credential reachable from Registry.pool -> {status}")
    for r in results:
        if r.witnessed_path:
            print("    exposure path:")
            for edge in r.witnessed_path:
                print(f"        {edge}")

    # 2. Lifetime: the request-scoped scratch object never escapes.
    leaked = assert_not_leaked(pta, "request0")
    print(f"\nassert: request0 (scratch) never escapes to a static ->"
          f" {'VERIFIED' if verified(leaked) else 'VIOLATED'}")

    # 3. Encapsulation: Pool.slot's contents are reachable from statics
    # only through the pool itself.
    exposures = analyze_encapsulation(pta, "Pool", "slot").results
    alien = [e for e in exposures if e.root.field != "pool"]
    print(f"\nencapsulation of Pool.slot: "
          f"{'intact (only via the pool)' if not alien else 'leaked!'}"
          f" — {len(exposures)} candidate exposure(s) examined")

    # 4. Immutability: Credentials are never mutated after construction;
    # Pools are (put() writes slot).
    for cls in ("Credential", "Connection", "Pool"):
        result = analyze_immutability(pta, cls)
        status = {"verified": "immutable", "violated": "mutated"}.get(
            result.status, "unknown"
        )
        print(f"\nimmutability of {cls}: {status.upper()}"
              f" ({len(result.results)} candidate mutation site(s))")


if __name__ == "__main__":
    main()
