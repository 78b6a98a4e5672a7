"""The generic provenance circuit (Theorem 3.1, Deutch et al. [10]).

For any Datalog program over an absorptive semiring, a circuit of
polynomial size computes every provenance polynomial: layer ``k``
evaluates one application of the grounded ICO, and ``N`` layers
suffice, where ``N`` is the number of derivable IDB facts -- a tight
proof tree repeats no IDB fact along a root-to-leaf path, so its
height is at most ``N``, and monomials of non-tight trees are absorbed
(Proposition 2.4).

Size is ``O(N · M)`` (``M`` = grounding size) and depth ``O(N log n)``
-- polynomial but with the linear-in-``N`` depth the rest of the paper
improves on for special classes.

Gates are hash-consed, so when the symbolic layer values stabilize
early (e.g. bounded programs, acyclic inputs) the construction stops
adding gates and exits.  Its runtime twin is the stage record: the
loop notes where each stage's gates end and, for every fact an output
depends on, which node the stage replaced by which
(:class:`~repro.circuits.circuit.StageRecord`).  A valuation that
reaches its own fixpoint at stage ``k`` has every later stage equal to
stage ``k``, so the compiled circuit's outputs-only kernels stop there
(DESIGN.md §7).

The stage loop is the *symbolic* twin of the columnar fixpoint
(:mod:`repro.datalog.seminaive`), streamed from the id-space grounding
(DESIGN.md §9): per-fact node deltas plus the grounding's fact →
body-rules lists mean each stage only rebuilds ``⊗``-chains for rules
whose body node actually changed.  Hash-consing makes this an exact
optimization -- an unchanged head re-folds to the identical gate id --
so the constructed circuit is the same one the dense loop produced,
found with far fewer builder calls.
"""

from __future__ import annotations

from itertools import compress
from typing import List, Optional, Sequence, Union

from ..circuits.circuit import Circuit, CircuitBuilder, StageRecord
from ..config import ConfigLike, coerce_config
from ..datalog.ast import Fact, Program
from ..datalog.database import Database
from ..datalog.grounding import (
    ColumnarGroundProgram,
    columnar_grounding,
    relevant_grounding,
)

__all__ = ["generic_circuit"]


def generic_circuit(
    program: Program,
    database: Database,
    facts: Optional[Union[Fact, Sequence[Fact]]] = None,
    stages: Optional[int] = None,
    ground: Optional[ColumnarGroundProgram] = None,
    config: ConfigLike = None,
) -> Circuit:
    """Build the Theorem 3.1 circuit for *facts* (default: all target
    facts) of *program* on *database*.

    *stages* defaults to the sound bound ``N`` (number of derivable
    IDB facts); pass a smaller value only with an external guarantee
    (e.g. a boundedness constant -- that case is
    :func:`repro.constructions.bounded.bounded_circuit`).
    ``config.engine`` selects the join engine when *ground* is not
    supplied (see :func:`~repro.datalog.grounding.relevant_grounding`);
    the default grounds straight into id space
    (:func:`~repro.datalog.grounding.columnar_grounding`).  A
    precomputed grounding from either engine can be passed as
    *ground*.

    The circuit's input labels are the EDB :class:`Fact` objects, so
    ``database.valuation(semiring)`` is a ready-made assignment.
    """
    if ground is None:
        if coerce_config(config).resolved_engine == "naive":
            ground = relevant_grounding(program, database, config=config)
        else:
            ground = columnar_grounding(program, database)
    return _generic_circuit_columnar(program, ground, facts, stages)


def _generic_circuit_columnar(
    program: Program,
    cground: ColumnarGroundProgram,
    facts: Optional[Union[Fact, Sequence[Fact]]],
    stages: Optional[int],
) -> Circuit:
    """The stage loop of :func:`generic_circuit`, streamed from the
    id-space grounding (DESIGN.md §9).

    Delta-driven construction over hash-consed gates: node ids
    live in one dense list indexed by fact id, rules and the
    ``by_body`` / ``by_head`` adjacency are read from the grounding's
    stored body rows and per-fact lists, and dirty bookkeeping is
    ``bytearray`` marks -- the only :class:`Fact` objects ever
    materialized are the EDB input labels (once each) and the
    requested outputs.  Each stage that changes a node is noted in
    the circuit's :class:`StageRecord`, restricted to the facts the
    outputs depend on.
    """
    head_fids = cground.idb_fact_ids()
    if stages is None:
        stages = max(len(head_fids), 1)

    builder = CircuitBuilder(share=True)
    nfacts = cground.fact_count
    nrules = len(cground)
    decode = cground.decode_fact
    # Node slot per fact id: an input gate for EDB facts, const0 for
    # the rest.  That includes a stored IDB fact no rule derives: both
    # fixpoints read it as 0 too.
    const0 = builder.const0()
    value: List[int] = [const0] * nfacts
    is_head = bytearray(nfacts)
    for fid in head_fids:
        is_head[fid] = 1
    for fid in cground.edb_fact_ids():
        if not is_head[fid]:
            value[fid] = builder.var(decode(fid))

    idb_rows, rule_head = cground.idb_rows, cground.rule_head
    by_head, by_body = cground.by_head(), cground.by_body()
    mul, add_all, mul_all = builder.mul, builder.add_all, builder.mul_all
    rule_edb_product: List[int] = [
        mul_all([value[fid] for fid in row]) for row in cground.edb_rows
    ]

    # Outputs resolve before the stage loop, because the stage record
    # checks only the facts they depend on.  Target facts come in repr
    # order; a requested fact no rule derives is the constant 0 (-1).
    if facts is None:
        targets = sorted(
            ((decode(fid), fid) for fid in cground.target_fact_ids()),
            key=lambda pair: repr(pair[0]),
        )
        output_fids = [fid for _, fid in targets]
    else:
        output_fids = []
        for fact in [facts] if isinstance(facts, Fact) else facts:
            fid = cground.find_fact_id(fact)
            output_fids.append(fid if fid is not None and is_head[fid] else -1)
    relevant = _relevant_facts(output_fids, nfacts, idb_rows, by_head)
    record = StageRecord(output_fids, [const0] * len(output_fids), const0)

    rule_node: List[int] = list(rule_edb_product)
    head_mark = bytearray(nfacts)
    dirty: Sequence[int] = range(nrules)
    for _ in range(stages):
        dirty_heads: List[int] = []
        for position in dirty:
            node = rule_edb_product[position]
            for fid in idb_rows[position]:
                node = mul(node, value[fid])
            rule_node[position] = node
            head = rule_head[position]
            if not head_mark[head]:
                head_mark[head] = 1
                dirty_heads.append(head)
        delta_fids: List[int] = []
        delta_nodes: List[int] = []
        for head in dirty_heads:
            head_mark[head] = 0
            fresh = add_all([rule_node[position] for position in by_head[head]])
            if fresh != value[head]:
                delta_fids.append(head)
                delta_nodes.append(fresh)
        if not delta_fids:
            break  # symbolic fixpoint: further layers are no-ops
        prev_nodes = [value[head] for head in delta_fids]
        for head, node in zip(delta_fids, delta_nodes):
            value[head] = node
        keep = [relevant[head] for head in delta_fids]
        record.add_stage(
            len(builder),
            compress(delta_fids, keep),
            compress(prev_nodes, keep),
            compress(delta_nodes, keep),
        )
        rule_mark = bytearray(nrules)
        next_dirty: List[int] = []
        for head in delta_fids:
            for position in by_body[head]:
                if not rule_mark[position]:
                    rule_mark[position] = 1
                    next_dirty.append(position)
        next_dirty.sort()
        dirty = next_dirty

    output_nodes = [value[fid] if fid >= 0 else const0 for fid in output_fids]
    return builder.build(output_nodes, prune=True, stages=record)


def _relevant_facts(
    output_fids: Sequence[int],
    nfacts: int,
    idb_rows: Sequence[Sequence[int]],
    by_head: Sequence[Sequence[int]],
) -> bytearray:
    """Mark the facts some output reaches over ground-rule bodies.

    The set is closed under rule bodies, so a stage that leaves each
    marked fact's value unchanged is a fixpoint for the outputs.
    """
    relevant = bytearray(nfacts)
    stack: List[int] = []
    for fid in output_fids:
        if fid >= 0 and not relevant[fid]:
            relevant[fid] = 1
            stack.append(fid)
    while stack:
        head = stack.pop()
        for position in by_head[head]:
            for fid in idb_rows[position]:
                if not relevant[fid]:
                    relevant[fid] = 1
                    stack.append(fid)
    return relevant
