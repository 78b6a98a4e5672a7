"""The Ullman–Van Gelder circuit (Theorem 6.2).

For programs with the polynomial fringe property (every tight proof
tree has polynomially many leaves -- all linear programs, Dyck-1, ...),
a circuit of polynomial size and depth ``O(log² |I|)`` computes every
provenance polynomial over any absorptive semiring.

The construction tracks a weighted digraph ``H`` on ``⟨0⟩ ∪ {⟨α⟩ : α
IDB fact}``: ``H(⟨0⟩, ⟨α⟩)`` converges to the value of ``α``, while
``H(⟨δ⟩, ⟨α⟩)`` is a *conditional* value -- the sum over partial proof
trees of ``α`` with a single open IDB leaf ``δ``.  Each of the ``K``
stages does (paper's four steps):

1. re-derive ``H₁(⟨0⟩, ⟨α⟩)`` by one ICO round over the grounding;
2. re-derive ``H₁(⟨δ⟩, ⟨α⟩)`` for each rule and each choice of one
   open IDB body occurrence ``δ``, closing the others with stage-1
   values;
3. accumulate: ``H₂ = H^{(k-1)} ⊕ H₁``;
4. square: one step of transitive closure on ``H₂``.

Ullman & Van Gelder show ``K = max_T log_{4/3}|T|`` stages suffice
(``T`` ranging over tight proof trees), so ``K = O(log |I|)`` under
the polynomial fringe property, and each stage is an ``O(log |I|)``-
depth circuit: total depth ``O(log² |I|)``.

``H`` is kept sparse (only derivable entries), which keeps the
all-pairs squaring step proportional to the realized edges instead of
``N³``.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ..circuits.circuit import Circuit, CircuitBuilder
from ..config import ConfigLike, coerce_config
from ..datalog.ast import Fact, Program
from ..datalog.database import Database
from ..datalog.grounding import (
    ColumnarGroundProgram,
    columnar_grounding,
    relevant_grounding,
)

__all__ = ["fringe_circuit", "default_stage_count"]

_ROOT = 0  # the special id ⟨0⟩


def default_stage_count(ground, fringe_bound: Optional[int] = None) -> int:
    """``K = ⌈log_{4/3}(fringe bound)⌉ + 1`` stages.

    Without an explicit bound we use the grounding size: a tight proof
    tree's internal nodes are distinct *rule applications along each
    path*, and for poly-fringe programs the tree size is polynomial in
    the input -- the grounding size is a sound polynomial over-
    approximation for the linear and chain programs benchmarked here
    (each node consumes a distinct ground rule occurrence budget).
    Only *ground*'s ``size`` is read.
    """
    if fringe_bound is None:
        fringe_bound = max(ground.size, 2)
    return max(1, math.ceil(math.log(max(fringe_bound, 2), 4 / 3))) + 1


def fringe_circuit(
    program: Program,
    database: Database,
    facts: Optional[Union[Fact, Sequence[Fact]]] = None,
    stages: Optional[int] = None,
    fringe_bound: Optional[int] = None,
    ground: Optional[ColumnarGroundProgram] = None,
    config: ConfigLike = None,
) -> Circuit:
    """Theorem 6.2's circuit for *facts* (default: all target facts).

    *stages* overrides ``K``; *fringe_bound* feeds
    :func:`default_stage_count`.  ``config.engine`` selects the join
    engine when *ground* is not supplied (see
    :func:`~repro.datalog.grounding.relevant_grounding`); the default
    grounds straight into id space and the per-stage rule sweeps read
    the columnar arrays -- facts are decoded only for input-gate
    labels and outputs.  A precomputed grounding from either engine
    can be passed as *ground*.  Input labels are EDB facts, so
    ``database.valuation(semiring)`` evaluates the result.
    """
    if ground is None:
        if coerce_config(config).resolved_engine == "naive":
            ground = relevant_grounding(program, database, config=config)
        else:
            ground = columnar_grounding(program, database)
    if stages is None:
        stages = default_stage_count(ground, fringe_bound)
    return _fringe_circuit_columnar(program, ground, facts, stages)


def _fringe_stages(
    builder: CircuitBuilder,
    stages: int,
    rule_edb_product: List[int],
    rule_head_num: List[int],
    rule_idb_nums: List[Tuple[int, ...]],
) -> Dict[int, Dict[int, int]]:
    """The four-step stage loop on the weighted digraph ``H``.

    Rules are consumed as numeric views -- per-rule EDB product node,
    head vertex, IDB body vertices; ``H`` is kept sparse (``H[a]`` is
    ``{b: node}``).
    """
    graph: Dict[int, Dict[int, int]] = {}
    nrules = len(rule_edb_product)

    for _stage in range(stages):
        # Step 1: one ICO round for H₁(⟨0⟩, ⟨α⟩).
        stage1_root: Dict[int, List[int]] = {}
        root_row = graph.get(_ROOT, {})
        for position in range(nrules):
            node = rule_edb_product[position]
            ok = True
            for body_num in rule_idb_nums[position]:
                upstream = root_row.get(body_num)
                if upstream is None:
                    ok = False
                    break
                node = builder.mul(node, upstream)
            if ok:
                stage1_root.setdefault(rule_head_num[position], []).append(node)
        h1: Dict[int, Dict[int, int]] = {_ROOT: {}}
        for target_id, terms in stage1_root.items():
            h1[_ROOT][target_id] = builder.add_all(terms)

        # Step 2: conditional edges H₁(⟨δ⟩, ⟨α⟩): leave one IDB body
        # occurrence open, close the others with step-1 root values.
        # Terms per (δ, α) pair are collected and summed in a balanced
        # tree, keeping the per-stage depth at O(log).
        conditional_terms: Dict[Tuple[int, int], List[int]] = {}
        h1_root = h1[_ROOT]
        for position in range(nrules):
            idb_nums = rule_idb_nums[position]
            if not idb_nums:
                continue
            edb_node = rule_edb_product[position]
            for open_position, open_num in enumerate(idb_nums):
                node = edb_node
                ok = True
                for at, body_num in enumerate(idb_nums):
                    if at == open_position:
                        continue
                    upstream = h1_root.get(body_num)
                    if upstream is None:
                        ok = False
                        break
                    node = builder.mul(node, upstream)
                if not ok:
                    continue
                key = (open_num, rule_head_num[position])
                conditional_terms.setdefault(key, []).append(node)
        for (source_id, target_id), terms in conditional_terms.items():
            h1.setdefault(source_id, {})[target_id] = builder.add_all(terms)

        # Step 3: accumulate H₂ = H^{(k-1)} ⊕ H₁.
        h2: Dict[int, Dict[int, int]] = {}
        for table in (graph, h1):
            for a, row in table.items():
                dest = h2.setdefault(a, {})
                for b, node in row.items():
                    existing = dest.get(b)
                    dest[b] = node if existing is None else builder.add(existing, node)

        # Step 4: one squaring step of transitive closure on H₂, with
        # balanced per-pair summation over the middle vertices γ.
        composition_terms: Dict[Tuple[int, int], List[int]] = {}
        for a, row in h2.items():
            for mid, left in row.items():
                middle_row = h2.get(mid)
                if not middle_row:
                    continue
                for b, right in middle_row.items():
                    composition_terms.setdefault((a, b), []).append(
                        builder.mul(left, right)
                    )
        new_graph: Dict[int, Dict[int, int]] = {
            a: dict(row) for a, row in h2.items()
        }
        for (a, b), terms in composition_terms.items():
            existing = new_graph.setdefault(a, {}).get(b)
            if existing is not None:
                terms = [existing] + terms
            new_graph[a][b] = builder.add_all(terms)
        graph = new_graph
    return graph


def _fringe_circuit_columnar(
    program: Program,
    cground: ColumnarGroundProgram,
    facts: Optional[Union[Fact, Sequence[Fact]]],
    stages: int,
) -> Circuit:
    """Theorem 6.2's construction streamed from the id-space grounding.

    Vertices of ``H`` are numbered straight off the head fact ids;
    rules and their IDB bodies are read from the stored body rows,
    EDB constants are decoded once for the input-gate labels, and
    outputs decode at the very end -- no other tuple conversion
    anywhere.
    """
    head_fids = cground.idb_fact_ids()
    fact_num: Dict[int, int] = {fid: i + 1 for i, fid in enumerate(head_fids)}
    decode = cground.decode_fact

    builder = CircuitBuilder(share=True)
    edge_var: Dict[int, int] = {
        fid: builder.var(decode(fid)) for fid in cground.edb_fact_ids()
    }
    rule_edb_product: List[int] = []
    rule_head_num: List[int] = []
    rule_idb_nums: List[Tuple[int, ...]] = []
    for head, idb_fids, edb_fids in zip(cground.rule_head, cground.idb_rows, cground.edb_rows):
        if not all(fid in fact_num for fid in idb_fids):
            # A stored IDB fact no rule derives is 0 in both
            # fixpoints, so the rule's term is 0: drop the rule.
            continue
        rule_edb_product.append(builder.mul_all([edge_var[fid] for fid in edb_fids]))
        rule_head_num.append(fact_num[head])
        rule_idb_nums.append(tuple(fact_num[fid] for fid in idb_fids))
    graph = _fringe_stages(builder, stages, rule_edb_product, rule_head_num, rule_idb_nums)

    root_row = graph.get(_ROOT, {})
    output_nodes: List[int] = []
    if facts is None:
        targets = sorted(
            ((decode(fid), fid) for fid in cground.target_fact_ids()),
            key=lambda pair: repr(pair[0]),
        )
        for _, fid in targets:
            output_nodes.append(root_row.get(fact_num[fid], builder.const0()))
    else:
        for fact in [facts] if isinstance(facts, Fact) else facts:
            fid = cground.find_fact_id(fact)
            num = fact_num.get(fid) if fid is not None else None
            output_nodes.append(
                root_row.get(num, builder.const0()) if num is not None else builder.const0()
            )
    return builder.build(output_nodes, prune=True)
