"""Dyck-1 reachability (Example 6.4): interprocedural-analysis style
matched-parenthesis paths, with provenance circuits.

Edges labeled ``L``/``R`` model call/return; a path is *valid* when its
brackets balance.  The Dyck-1 program is non-linear but has the
polynomial fringe property, so Theorem 6.2's Ullman–Van Gelder circuit
achieves depth O(log² m).

Run:  python examples/dyck_reachability.py
"""

from repro.circuits import canonical_polynomial
from repro.constructions import fringe_circuit, generic_circuit
from repro.datalog import Database, Fact, dyck1
from repro.grammars import CFG, cfl_reachability
from repro.semirings import TROPICAL
from repro.workloads import dyck_nested_path


def main() -> None:
    program = dyck1()
    print("Dyck-1 program (Example 6.4):")
    print(program, "\n")

    # A call graph: main calls f (L), f calls g (L), returns (R), etc.
    edges = [
        ("main", "L", "f_entry"),
        ("f_entry", "L", "g_entry"),
        ("g_entry", "R", "f_mid"),
        ("f_mid", "R", "main_ret"),
        ("main_ret", "L", "h_entry"),
        ("h_entry", "R", "end"),
    ]
    db = Database.from_labeled_edges(edges)

    grammar = CFG.from_rules("S -> L R | L S R | S S", start="S")
    print("balanced (valid) vertex pairs:")
    weights = {fact: 1.0 for fact in db.facts()}
    for pair, value in sorted(cfl_reachability(grammar, db, TROPICAL, weights=weights).items()):
        print(f"  {pair[0]:9s} -> {pair[1]:9s}  bracket-path length {value:.0f}")

    fact = Fact("S", ("main", "end"))
    print(f"\nprovenance of S(main, end):")
    print(f"  {canonical_polynomial(generic_circuit(program, db, fact))}\n")

    print("Theorem 6.2 (UVG) vs Theorem 3.1 (generic) circuit shapes")
    print(f"{'depth-optimal?':>16} {'size':>8} {'depth':>6}")
    for depth in (2, 3, 4):
        path_db = Database.from_labeled_edges(dyck_nested_path(depth))
        target = Fact("S", (0, 2 * depth))
        generic = generic_circuit(program, path_db, target)
        uvg = fringe_circuit(program, path_db, target)
        print(f"  generic (d={depth}) {generic.size:>8} {generic.depth:>6}")
        print(f"  UVG     (d={depth}) {uvg.size:>8} {uvg.depth:>6}")


if __name__ == "__main__":
    main()
