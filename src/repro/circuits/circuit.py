"""Array-backed semiring circuits (Section 2.5 of the paper).

A circuit over a semiring ``S`` is a DAG whose fan-in-0 nodes are
either *input variables* (tagging EDB facts) or the constants ``0``
and ``1``, and whose internal nodes are ``⊕``- or ``⊗``-gates of
fan-in exactly two.  A *formula* is a circuit in which every gate has
fan-out at most one.

The representation is deliberately flat -- parallel Python lists of
opcodes and child indices -- because the benchmark harness builds
circuits with millions of gates and object graphs are too slow (see
DESIGN.md §6).  Nodes are appended in topological order: a gate's
children always have smaller indices, so evaluation and metrics are
single forward/backward passes without an explicit toposort.

The :class:`CircuitBuilder` adds optional hash-consing (structural
common-subexpression elimination) and convenience helpers for balanced
``⊕``/``⊗``-trees, which the constructions of Sections 3--6 use to get
the ``O(log n)``-depth summations the paper's proofs invoke.

A construction that unrolls an operator stage by stage (Theorem 3.1's
immediate consequence operator, Theorem 5.6's Bellman–Ford rounds) can
hand the builder a :class:`StageRecord`; the built circuit keeps it,
and the compiled runtime uses it to stop a valuation at its own
fixpoint (DESIGN.md §7).
"""

from __future__ import annotations

from array import array
from typing import Dict, Hashable, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "OP_VAR",
    "OP_CONST0",
    "OP_CONST1",
    "OP_ADD",
    "OP_MUL",
    "ZERO",
    "Circuit",
    "CircuitBuilder",
    "StageRecord",
]

OP_VAR = 0
OP_CONST0 = 1
OP_CONST1 = 2
OP_ADD = 3
OP_MUL = 4

_OP_NAMES = {
    OP_VAR: "var",
    OP_CONST0: "0",
    OP_CONST1: "1",
    OP_ADD: "⊕",
    OP_MUL: "⊗",
}

#: Node id that :meth:`StageRecord.exits` uses for the constant 0.
ZERO = -1

#: One exit point: ``(end, pairs, outputs)`` in circuit numbering.
Exit = Tuple[int, List[Tuple[int, int]], List[int]]


class Circuit:
    """An immutable fan-in-2 semiring circuit.

    Attributes
    ----------
    ops, lhs, rhs:
        Parallel arrays; for leaf opcodes the child slots hold ``-1``.
    labels:
        For ``OP_VAR`` nodes, the variable tag (EDB fact id); ``None``
        for other nodes.
    outputs:
        Indices of the designated output gates (usually one).
    stages:
        The :class:`StageRecord` of the construction that built the
        circuit, or ``None``.  Only :meth:`CircuitBuilder.build` with
        ``prune=True`` attaches one; every other way of making a
        circuit (``with_outputs``, the formula transforms,
        ``Circuit(...)``) carries none.
    """

    __slots__ = ("ops", "lhs", "rhs", "labels", "outputs", "stages", "_depths", "_op_counts", "_compiled")

    def __init__(
        self,
        ops: Sequence[int],
        lhs: Sequence[int],
        rhs: Sequence[int],
        labels: Sequence[Optional[Hashable]],
        outputs: Sequence[int],
    ):
        if not (len(ops) == len(lhs) == len(rhs) == len(labels)):
            raise ValueError("parallel arrays must have equal length")
        self.ops = list(ops)
        self.lhs = list(lhs)
        self.rhs = list(rhs)
        self.labels = list(labels)
        self.outputs = list(outputs)
        for out in self.outputs:
            if not 0 <= out < len(self.ops):
                raise ValueError(f"output index {out} out of range")
        self.stages: Optional[StageRecord] = None
        self._depths: Optional[List[int]] = None
        self._op_counts: Optional[tuple] = None
        self._compiled = None  # CompiledCircuit cache (repro.circuits.runtime)

    # ------------------------------------------------------------------
    # Basic metrics
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        return len(self.ops)

    @property
    def size(self) -> int:
        """Number of gates, |F| in the paper."""
        return len(self.ops)

    def _counts(self) -> tuple:
        """(#⊕, #⊗, #var) computed in one sweep and cached.

        The circuit is immutable, so compute-once is sound; the
        per-opcode counters used to be fresh O(n) sweeps on every
        access, and the sweep reports read them per row.
        """
        if self._op_counts is None:
            num_add = num_mul = num_var = 0
            for op in self.ops:
                if op == OP_ADD:
                    num_add += 1
                elif op == OP_MUL:
                    num_mul += 1
                elif op == OP_VAR:
                    num_var += 1
            self._op_counts = (num_add, num_mul, num_var)
        return self._op_counts

    @property
    def num_gates(self) -> int:
        """Number of internal (⊕/⊗) gates."""
        counts = self._counts()
        return counts[0] + counts[1]

    @property
    def num_add_gates(self) -> int:
        return self._counts()[0]

    @property
    def num_mul_gates(self) -> int:
        return self._counts()[1]

    @property
    def num_inputs(self) -> int:
        return self._counts()[2]

    def variables(self) -> list[Hashable]:
        """Distinct input-variable tags in first-occurrence order."""
        seen: dict[Hashable, None] = {}
        for op, label in zip(self.ops, self.labels):
            if op == OP_VAR and label not in seen:
                seen[label] = None
        return list(seen)

    def node_depths(self) -> List[int]:
        """Depth of each node = longest path from any leaf (leaves are 0)."""
        if self._depths is None:
            depths = [0] * len(self.ops)
            for i, op in enumerate(self.ops):
                if op in (OP_ADD, OP_MUL):
                    left = depths[self.lhs[i]]
                    right = depths[self.rhs[i]]
                    depths[i] = (left if left >= right else right) + 1
            self._depths = depths
        return self._depths

    @property
    def depth(self) -> int:
        """Longest input→output path (edge count), as in Section 2.5."""
        if not self.ops:
            return 0
        depths = self.node_depths()
        return max(depths[out] for out in self.outputs) if self.outputs else max(depths)

    def fanout(self) -> List[int]:
        """Out-degree of each node, counting one per use as a child."""
        counts = [0] * len(self.ops)
        for i, op in enumerate(self.ops):
            if op in (OP_ADD, OP_MUL):
                counts[self.lhs[i]] += 1
                counts[self.rhs[i]] += 1
        return counts

    def is_formula(self) -> bool:
        """True iff every node feeds at most one gate (Section 2.5)."""
        return all(count <= 1 for count in self.fanout())

    def reachable_from_outputs(self) -> List[bool]:
        """Mark nodes on a path to some output (the *useful* cone)."""
        marked = [False] * len(self.ops)
        stack = list(self.outputs)
        while stack:
            node = stack.pop()
            if marked[node]:
                continue
            marked[node] = True
            if self.ops[node] in (OP_ADD, OP_MUL):
                stack.append(self.lhs[node])
                stack.append(self.rhs[node])
        return marked

    def prune(self) -> "Circuit":
        """Drop gates not reachable from the outputs, preserving order."""
        return self._pruned()[0]

    def _pruned(self) -> Tuple["Circuit", List[int]]:
        """:meth:`prune` plus its renumbering (``-1`` for a dropped node)."""
        marked = self.reachable_from_outputs()
        remap = [-1] * len(self.ops)
        ops: List[int] = []
        lhs: List[int] = []
        rhs: List[int] = []
        labels: List[Optional[Hashable]] = []
        for i, keep in enumerate(marked):
            if not keep:
                continue
            remap[i] = len(ops)
            ops.append(self.ops[i])
            labels.append(self.labels[i])
            if self.ops[i] in (OP_ADD, OP_MUL):
                lhs.append(remap[self.lhs[i]])
                rhs.append(remap[self.rhs[i]])
            else:
                lhs.append(-1)
                rhs.append(-1)
        outputs = [remap[out] for out in self.outputs]
        return Circuit(ops, lhs, rhs, labels, outputs), remap

    def with_outputs(self, outputs: Iterable[int]) -> "Circuit":
        """Same DAG with a different designated output set."""
        return Circuit(self.ops, self.lhs, self.rhs, self.labels, list(outputs))

    # ------------------------------------------------------------------
    # Display / debugging
    # ------------------------------------------------------------------

    def node_repr(self, index: int) -> str:
        op = self.ops[index]
        if op == OP_VAR:
            return f"x[{self.labels[index]!r}]"
        if op in (OP_CONST0, OP_CONST1):
            return _OP_NAMES[op]
        return f"{_OP_NAMES[op]}({self.lhs[index]}, {self.rhs[index]})"

    def pretty(self, max_nodes: int = 50) -> str:
        lines = [
            f"Circuit(size={self.size}, depth={self.depth}, "
            f"inputs={self.num_inputs}, outputs={self.outputs})"
        ]
        for i in range(min(len(self.ops), max_nodes)):
            marker = " <- output" if i in self.outputs else ""
            lines.append(f"  %{i} = {self.node_repr(i)}{marker}")
        if len(self.ops) > max_nodes:
            lines.append(f"  ... ({len(self.ops) - max_nodes} more nodes)")
        return "\n".join(lines)

    def __repr__(self) -> str:
        return (
            f"Circuit(size={self.size}, depth={self.depth}, "
            f"inputs={self.num_inputs}, outputs={len(self.outputs)})"
        )


class CircuitBuilder:
    """Mutable constructor for :class:`Circuit`.

    With ``share=True`` (default) identical leaves and gate
    applications are hash-consed, so repeated ``add``/``mul`` calls
    with equal children return the same node; this keeps the
    constructions' sizes at their paper values.  With ``share=False``
    every call appends a fresh node -- required when building
    *formulas*, where sharing is forbidden.
    """

    def __init__(self, share: bool = True):
        self.share = share
        self.ops: List[int] = []
        self.lhs: List[int] = []
        self.rhs: List[int] = []
        self.labels: List[Optional[Hashable]] = []
        self._memo: dict[tuple, int] = {}
        self._const0: Optional[int] = None
        self._const1: Optional[int] = None

    def __len__(self) -> int:
        return len(self.ops)

    def _append(self, op: int, left: int, right: int, label: Optional[Hashable]) -> int:
        index = len(self.ops)
        self.ops.append(op)
        self.lhs.append(left)
        self.rhs.append(right)
        self.labels.append(label)
        return index

    # -- leaves ---------------------------------------------------------

    def var(self, label: Hashable) -> int:
        """An input gate tagged with the EDB-fact variable *label*."""
        if self.share:
            key = (OP_VAR, label)
            node = self._memo.get(key)
            if node is None:
                node = self._append(OP_VAR, -1, -1, label)
                self._memo[key] = node
            return node
        return self._append(OP_VAR, -1, -1, label)

    def const0(self) -> int:
        if self.share:
            if self._const0 is None:
                self._const0 = self._append(OP_CONST0, -1, -1, None)
            return self._const0
        return self._append(OP_CONST0, -1, -1, None)

    def const1(self) -> int:
        if self.share:
            if self._const1 is None:
                self._const1 = self._append(OP_CONST1, -1, -1, None)
            return self._const1
        return self._append(OP_CONST1, -1, -1, None)

    # -- gates ----------------------------------------------------------

    def add(self, left: int, right: int) -> int:
        """An ``⊕``-gate; simplifies ``x ⊕ 0 = x`` when sharing."""
        if self.share:
            if self.ops[left] == OP_CONST0:
                return right
            if self.ops[right] == OP_CONST0:
                return left
            key = (OP_ADD, *sorted((left, right)))
            node = self._memo.get(key)
            if node is None:
                node = self._append(OP_ADD, left, right, None)
                self._memo[key] = node
            return node
        return self._append(OP_ADD, left, right, None)

    def mul(self, left: int, right: int) -> int:
        """An ``⊗``-gate; simplifies by ``0``/``1`` when sharing."""
        if self.share:
            if self.ops[left] == OP_CONST0 or self.ops[right] == OP_CONST0:
                return self.const0()
            if self.ops[left] == OP_CONST1:
                return right
            if self.ops[right] == OP_CONST1:
                return left
            key = (OP_MUL, *sorted((left, right)))
            node = self._memo.get(key)
            if node is None:
                node = self._append(OP_MUL, left, right, None)
                self._memo[key] = node
            return node
        return self._append(OP_MUL, left, right, None)

    # -- balanced n-ary folds (the O(log n)-depth summations) ------------

    def add_all(self, nodes: Sequence[int]) -> int:
        """Balanced ``⊕``-tree over *nodes*; empty sum is the constant 0.

        The binary-tree layout realizes the ``O(log n)``-depth
        summation used throughout the paper's constructions (e.g.
        Theorem 4.3 and Theorem 5.6).
        """
        return self._fold(list(nodes), self.add, self.const0)

    def mul_all(self, nodes: Sequence[int]) -> int:
        """Balanced ``⊗``-tree over *nodes*; empty product is 1."""
        return self._fold(list(nodes), self.mul, self.const1)

    def _fold(self, level: List[int], combine, empty) -> int:
        if not level:
            return empty()
        while len(level) > 1:
            nxt: List[int] = []
            for i in range(0, len(level) - 1, 2):
                nxt.append(combine(level[i], level[i + 1]))
            if len(level) % 2:
                nxt.append(level[-1])
            level = nxt
        return level[0]

    # -- import ----------------------------------------------------------

    def splice(self, other: Circuit, input_map: Optional[Mapping[Hashable, int]] = None) -> List[int]:
        """Copy *other* into this builder, returning the node remapping.

        *input_map* optionally redirects variable tags of *other* to
        existing nodes of this builder (the wire-rewiring step of the
        reductions in Theorems 5.9/5.11/6.8).  Unmapped variables are
        recreated as fresh/shared var leaves.
        """
        input_map = input_map or {}
        remap: List[int] = [-1] * len(other.ops)
        for i, op in enumerate(other.ops):
            if op == OP_VAR:
                label = other.labels[i]
                if label in input_map:
                    remap[i] = input_map[label]
                else:
                    remap[i] = self.var(label)
            elif op == OP_CONST0:
                remap[i] = self.const0()
            elif op == OP_CONST1:
                remap[i] = self.const1()
            elif op == OP_ADD:
                remap[i] = self.add(remap[other.lhs[i]], remap[other.rhs[i]])
            else:
                remap[i] = self.mul(remap[other.lhs[i]], remap[other.rhs[i]])
        return remap

    # -- finish -----------------------------------------------------------

    def build(
        self,
        outputs: Sequence[int] | int,
        prune: bool = False,
        stages: Optional["StageRecord"] = None,
    ) -> Circuit:
        """Freeze the nodes into a :class:`Circuit` with *outputs*.

        With ``prune=True`` the circuit keeps only the output cone, and
        *stages* (the construction's :class:`StageRecord`, in builder
        numbering) rides along with the renumbering, to be translated
        on first use.  Without pruning the record is not kept.
        """
        if isinstance(outputs, int):
            outputs = [outputs]
        circuit = Circuit(self.ops, self.lhs, self.rhs, self.labels, list(outputs))
        if not prune:
            return circuit
        pruned, remap = circuit._pruned()
        if stages is not None:
            stages.remap = remap
            pruned.stages = stages
        return pruned


class StageRecord:
    """The stages a construction unrolled, for early exit at runtime.

    A construction that applies one operator stage after stage calls
    :meth:`add_stage` after each stage's last gate, with every
    *relevant* fact whose node the stage replaced.  A fact is relevant
    when an output depends on it; that set must be closed under the
    operator's inputs.  Then, once a stage leaves every
    relevant value exactly as the stage before did, every later stage
    does too, and each output already holds its final value.  Facts
    are small integers of the construction's choosing, and a fact a
    stage did not change keeps its node.

    The columns are flat ``array('q')`` columns in builder numbering.
    :meth:`exits` translates them through the renumbering of
    ``build(prune=True)`` on first use, so a circuit that is never
    queried through an outputs-only kernel pays nothing for it.
    """

    __slots__ = (
        "ends",
        "starts",
        "fids",
        "prev",
        "new",
        "output_fids",
        "output_initial",
        "zero",
        "remap",
        "_exits",
    )

    def __init__(self, output_fids: Sequence[int], output_initial: Sequence[int], zero: int):
        """*output_fids* names each output's fact (``-1``: a constant
        output), *output_initial* the node it holds before the first
        stage, and *zero* the builder's constant-0 node."""
        self.ends = array("q")
        self.starts = array("q", [0])
        self.fids = array("q")
        self.prev = array("q")
        self.new = array("q")
        self.output_fids = array("q", output_fids)
        self.output_initial = array("q", output_initial)
        self.zero = zero
        self.remap: Optional[List[int]] = None
        self._exits: Optional[List[Exit]] = None

    def __len__(self) -> int:
        return len(self.ends)

    def add_stage(self, end: int, fids: Iterable[int], prev: Iterable[int], new: Iterable[int]) -> None:
        """Record a stage that moved each fact of *fids* from its node in
        *prev* to its node in *new*; *end* is the builder's length after
        the stage's last gate."""
        self.fids.extend(fids)
        self.prev.extend(prev)
        self.new.extend(new)
        self.ends.append(end)
        self.starts.append(len(self.fids))

    def exits(self) -> List[Exit]:
        """The exit points, in stage order and circuit numbering.

        Each is ``(end, pairs, outputs)``: once every node below *end*
        is evaluated, the valuation has reached its fixpoint if both
        nodes of each ``(prev, new)`` pair hold exactly equal values,
        and then each output's value is at the node listed for it.
        :data:`ZERO` stands for the constant 0.  A stage that would
        read a node the pruning dropped is not an exit point.
        """
        if self._exits is None:
            self._exits = self._translate()
            self.remap = None
        return self._exits

    def _translate(self) -> List[Exit]:
        remap, zero = self.remap, self.zero

        def node(index: int) -> Optional[int]:
            if index == zero:
                return ZERO
            index = remap[index]
            return index if index >= 0 else None

        positions: Dict[int, List[int]] = {}
        for position, fid in enumerate(self.output_fids):
            if fid >= 0:
                positions.setdefault(fid, []).append(position)
        latest = list(self.output_initial)
        exits: List[Exit] = []
        kept = scanned = 0
        fids, prev, new = self.fids, self.prev, self.new
        for stage, end in enumerate(self.ends):
            # Ends are builder lengths, so they never decrease: one
            # forward scan counts the nodes the pruning kept below each.
            while scanned < end:
                if remap[scanned] >= 0:
                    kept += 1
                scanned += 1
            pairs: List[Tuple[int, int]] = []
            exit_point = True
            for at in range(self.starts[stage], self.starts[stage + 1]):
                for position in positions.get(fids[at], ()):
                    latest[position] = new[at]
                before, after = node(prev[at]), node(new[at])
                if before is None or after is None:
                    exit_point = False
                else:
                    pairs.append((before, after))
            outputs = [node(index) for index in latest]
            if exit_point and None not in outputs:
                exits.append((kept, pairs, outputs))
        return exits
