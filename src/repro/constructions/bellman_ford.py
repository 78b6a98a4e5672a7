"""The Bellman–Ford circuit for TC (Theorem 5.6).

Single-source/single-target reachability provenance over any
absorptive semiring: layer ``k`` holds, per vertex ``j``, the
polynomial ``f_j^k`` summing all walks of length ≤ ``k`` from the
source to ``j``::

    f_j^k = f_j^{k-1} ⊕ ⊕_{i ∈ N_j} ( f_i^{k-1} ⊗ x_{i,j} )

``n − 1`` layers suffice; walk monomials that are not paths are
absorbed by their path sub-monomials (absorptive law), so the output
equals the TC provenance polynomial.  Size ``O(m·n)``, depth
``O(n log n)`` (each in-neighbourhood sum is a balanced tree).

Each round is a stage of the circuit's
:class:`~repro.circuits.circuit.StageRecord`: its facts are the
vertices that reach a sink, so a valuation whose round leaves them
all unchanged stops there at runtime (DESIGN.md §7).
"""

from __future__ import annotations

from typing import Dict, Hashable, List, Optional, Tuple

from ..circuits.circuit import Circuit, CircuitBuilder, StageRecord
from ..datalog.ast import Fact
from ..datalog.database import Database

__all__ = ["bellman_ford_circuit", "bellman_ford_all_targets"]

Vertex = Hashable


def _graph(database: Database, edge: str) -> Tuple[List[Vertex], Dict[Vertex, List[Tuple[Vertex, Fact]]]]:
    vertices: set = set()
    incoming: Dict[Vertex, List[Tuple[Vertex, Fact]]] = {}
    for args in database.tuples(edge):
        u, v = args
        vertices.add(u)
        vertices.add(v)
        incoming.setdefault(v, []).append((u, Fact(edge, (u, v))))
    return sorted(vertices, key=repr), incoming


def bellman_ford_circuit(
    database: Database,
    source: Vertex,
    sink: Vertex,
    edge: str = "E",
    rounds: Optional[int] = None,
) -> Circuit:
    """Theorem 5.6's circuit for the fact ``T(source, sink)``.

    *rounds* defaults to ``n − 1``; fewer rounds give the walks-up-to-
    that-length under-approximation (useful for the layer-sweep
    ablation bench).  ``source == sink`` is rejected: the empty walk
    (value ``1``) would absorb the whole polynomial, while TC proof
    trees of ``T(s, s)`` always use at least one edge.
    """
    if source == sink:
        raise ValueError("Bellman–Ford circuit needs source ≠ sink (see docstring)")
    circuit, _node_of = _bellman_ford(database, source, {sink}, edge, rounds)
    return circuit


def bellman_ford_all_targets(
    database: Database,
    source: Vertex,
    edge: str = "E",
    rounds: Optional[int] = None,
) -> Tuple[Circuit, Dict[Vertex, int]]:
    """Single-source variant: one circuit, an output gate per vertex.

    Returns ``(circuit, vertex → output index)``; vertices unreachable
    in ≤ rounds steps map to a constant-0 output.
    """
    vertices, _ = _graph(database, edge)
    circuit, node_of = _bellman_ford(database, source, set(vertices), edge, rounds)
    return circuit, node_of


def _bellman_ford(
    database: Database,
    source: Vertex,
    sinks: set,
    edge: str,
    rounds: Optional[int],
) -> Tuple[Circuit, Dict[Vertex, int]]:
    vertices, incoming = _graph(database, edge)
    if source not in set(vertices):
        vertices.append(source)
    n = len(vertices)
    if rounds is None:
        rounds = max(n - 1, 1)

    builder = CircuitBuilder(share=True)
    edge_var: Dict[Fact, int] = {}
    for v, pairs in incoming.items():
        for _u, fact in pairs:
            if fact not in edge_var:
                edge_var[fact] = builder.var(fact)

    # f^0: only the source is reached (by the empty walk, value 1).
    zero = builder.const0()
    value: Dict[Vertex, int] = {v: (builder.const1() if v == source else zero) for v in vertices}

    # The stage record's facts are vertex positions; f_j reads f_i for
    # every in-neighbour i, so the relevant vertices are those that
    # reach a sink.
    position = {v: i for i, v in enumerate(vertices)}
    relevant = {s for s in sinks if s in position}
    stack = list(relevant)
    while stack:
        for u, _fact in incoming.get(stack.pop(), ()):
            if u not in relevant:
                relevant.add(u)
                stack.append(u)
    sink_order = sorted(sinks, key=repr)
    record = StageRecord(
        [position.get(s, -1) for s in sink_order],
        [value.get(s, zero) for s in sink_order],
        zero,
    )

    for _ in range(rounds):
        fresh: Dict[Vertex, int] = {}
        for v in vertices:
            terms = [value[v]]
            for u, fact in incoming.get(v, ()):
                terms.append(builder.mul(value[u], edge_var[fact]))
            fresh[v] = builder.add_all(terms)
        if fresh == value:
            break  # structural fixpoint (acyclic or converged early)
        changed = [v for v in vertices if fresh[v] != value[v] and v in relevant]
        record.add_stage(
            len(builder),
            [position[v] for v in changed],
            [value[v] for v in changed],
            [fresh[v] for v in changed],
        )
        value = fresh

    # Build with every sink as an output, then prune the dead cone.
    outputs = [value.get(s, zero) for s in sink_order]
    circuit = builder.build(outputs, prune=True, stages=record)
    node_of = {s: circuit.outputs[i] for i, s in enumerate(sink_order)}
    return circuit, node_of
