"""The paper's decision tree as an API: automatic construction choice.

``provenance_circuit`` routes each (program, database, fact) triple to
the best construction Sections 3--6 provide for its class, and reports
which theorem it used and why.

Run:  python examples/auto_construction.py
"""

from repro.circuits import evaluate
from repro.config import ExecutionConfig
from repro.constructions import provenance_circuit
from repro.datalog import (
    Database,
    Fact,
    bounded_example,
    dyck1,
    transitive_closure,
)
from repro.semirings import TROPICAL
from repro.workloads import random_digraph, random_weights


def main() -> None:
    db = random_digraph(10, 25, seed=7)
    weights = random_weights(db, seed=7)

    cases = []

    # 1. TC: unbounded left-linear chain → magic-set specialization.
    cases.append((transitive_closure(), db, Fact("T", (0, 9)), weights, False))

    # 2. Example 4.2: bounded → Theorem 4.3 layers.  The A-facts get the
    # default weight 1 via the database valuation.
    bdb = db.copy()
    bdb.add("A", 0)
    bounded_weights = {**bdb.valuation(TROPICAL), **weights}
    cases.append((bounded_example(), bdb, Fact("T", (0, 9)), bounded_weights, False))

    # 3. Dyck-1, default: generic.  4. Dyck-1, depth-optimized: UVG.
    ledges = [(0, "L", 1), (1, "L", 2), (2, "R", 3), (3, "R", 4)]
    ldb = Database.from_labeled_edges(ledges)
    lweights = {f: 1.0 for f in ldb.facts()}
    cases.append((dyck1(), ldb, Fact("S", (0, 4)), lweights, False))
    cases.append((dyck1(), ldb, Fact("S", (0, 4)), lweights, True))

    for program, database, fact, valuation, optimize_depth in cases:
        choice = provenance_circuit(
            program, database, fact, config=ExecutionConfig(optimize_depth=optimize_depth)
        )
        value = evaluate(choice.circuit, TROPICAL, valuation)
        flag = " (depth-optimized)" if optimize_depth else ""
        print(f"\n{fact}{flag}")
        print(f"  construction : {choice.construction}  [{choice.theorem}]")
        print(f"  reason       : {choice.reason}")
        print(
            f"  circuit      : size={choice.circuit.size}, depth={choice.circuit.depth}"
        )
        print(f"  tropical val : {value}")


if __name__ == "__main__":
    main()
