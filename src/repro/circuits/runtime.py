"""The circuit evaluation runtime: compile once, evaluate many times.

The paper's central promise is that a provenance circuit is a
*compressed data structure* (Section 2.5): you build it once and then
answer many valuation queries against it.  The seed interpreter in
:mod:`repro.circuits.evaluate` walks the node arrays one assignment at
a time through a Python dispatch loop -- an ``if``/``elif`` chain, two
list indexings and a bound-method call per node, plus a label hash per
input gate.  This module amortizes all of that over a batch
(DESIGN.md §7):

* :class:`CompiledCircuit` freezes a :class:`~repro.circuits.circuit.Circuit`
  into typed arrays (``array('q')`` opcodes/children), a deduplicated
  variable table (``label -> slot``) and per-op instruction streams
  (maximal same-opcode gate runs), so the inner loop does no label
  hashing and no per-node opcode branching.  On top of that sits a
  *closure compiler*: for semirings that declare
  ``compiled_add_expr``/``compiled_mul_expr`` (the numeric workhorses
  -- Boolean, counting, tropical, ...) it ``exec``-generates a kernel
  with ``⊕``/``⊗`` fused into local-variable expressions.  Kernels a
  caller reuses (``evaluate``/``evaluate_all``/``evaluate_batch``/
  ``evaluate_boolean_batch``) on small circuits get fully straight-line
  code, one statement per gate; a full evaluation that runs once (the
  :class:`IncrementalEvaluator` seed) runs the segment-loop kernel,
  because compiling the straight-line source costs far more than the
  one pass it speeds up.
* :meth:`CompiledCircuit.evaluate_batch` reuses one compiled form and
  one variable table across a whole batch of assignments, for *any*
  semiring.  :func:`compile_circuit` caches the compiled form on its
  circuit, so ``compile_circuit(c).evaluate_batch(...)`` compiles once.
* :meth:`CompiledCircuit.evaluate_boolean_batch` packs up to
  :data:`WORD_SIZE` (64) true-variable sets into one Python-int
  bitmask per node and evaluates them all in a single ``|``/``&``
  pass -- the workhorse for the transfer arguments (Prop. 3.6), the
  boundedness checker's equivalence probes and Monte-Carlo
  fact-reliability sweeps.
* :class:`IncrementalEvaluator` keeps the last value array and, given
  a sparse assignment delta, recomputes only the dirty cone of
  influence via a fanout-indexed worklist -- the "one EDB weight
  changed, re-answer the query" serving scenario.
* **Stage-level early exit.**  A circuit whose construction recorded
  its stages (:class:`~repro.circuits.circuit.StageRecord`) gets
  outputs-only kernels (``evaluate``/``evaluate_batch``/
  ``evaluate_boolean_batch`` against a designated output) that check,
  after each stage's last gate, whether the stage repeated the one
  before it on every fact the outputs depend on.  The check is exact
  ``==`` (on a bitset word: every lane converged); on a repeat the
  kernel returns each output's latest node.  ``evaluate_all``,
  interior ``output=`` queries and :class:`IncrementalEvaluator` run
  every gate.

All entry points are exact drop-in equivalents of the seed
interpreter (property-tested in ``tests/circuits/test_runtime.py``).
"""

from __future__ import annotations

from array import array
from bisect import bisect_left
from heapq import heappop, heappush
from typing import Callable, Dict, Hashable, Iterable, List, Mapping, Optional, Tuple

from ..semirings.base import Semiring
from .circuit import OP_ADD, OP_CONST0, OP_CONST1, OP_MUL, OP_VAR, ZERO, Circuit, Exit

__all__ = [
    "CompiledCircuit",
    "compile_circuit",
    "IncrementalEvaluator",
    "BITSET_ADD_EXPR",
    "BITSET_MUL_EXPR",
    "WORD_SIZE",
]

Assignment = Mapping[Hashable, object] | Callable[[Hashable], object]

#: Bitset instruction expressions: ``⊕`` is bitwise-or, ``⊗`` is
#: bitwise-and, one mask bit per packed Boolean assignment.
BITSET_ADD_EXPR = "({a} | {b})"
BITSET_MUL_EXPR = "({a} & {b})"

#: Assignments packed into one bitmask word by
#: :meth:`CompiledCircuit.evaluate_boolean_batch`.
WORD_SIZE = 64

#: Above this many nodes the closure compiler stops emitting
#: straight-line code (one statement per gate, values in locals) and
#: falls back to the segment-loop kernel; ``exec`` of a multi-hundred-
#: thousand-line function costs more than it saves.  Below it,
#: straight-line code is still generated only for kernels a caller
#: reuses: ``compile()`` of the source for a 10k-node circuit takes
#: ~170 ms and saves ~0.2 ms per evaluation, so it pays off only after
#: ~850 evaluations.  A one-shot full evaluation (``reuse=False``, the
#: incremental seed) always runs the segment loop.
_STRAIGHT_LINE_LIMIT = 20_000

# Cache of exec-compiled kernels shared across circuits is keyed per
# CompiledCircuit (the instruction streams differ), but the generated
# *source* depends only on the streams and the two fused expressions.


def _local(node: int) -> str:
    """The straight-line kernel's name for *node*'s value."""
    return "zero" if node == ZERO else f"v{node}"


def _gen_straight_source(
    compiled: "CompiledCircuit",
    add_expr: str,
    mul_expr: str,
    generic: bool,
    keep: Optional[List[bool]],
    exits: List[Exit],
) -> str:
    """One statement per node, every value a Python local.

    With *keep* (the reachable-from-outputs mask) the generated code
    skips dead nodes entirely and returns only the designated output
    values -- the single-query serving kernel.  Without it, every node
    is materialized and the full value array is returned.  Each of
    *exits* becomes an inline ``if v_a == v_b and ...: return [...]``
    right after the stage's last gate.
    """
    lines = ["def _kernel(vec, zero, one" + (", add, mul" if generic else "") + "):"]
    ops, lhs, rhs = compiled.ops, compiled.lhs, compiled.rhs
    node_slot = compiled.node_slot
    checks: Dict[int, List[str]] = {}
    for end, pairs, outputs in exits:
        returns = "return [" + ", ".join(map(_local, outputs)) + "]"
        test = " and ".join(f"{_local(a)} == {_local(b)}" for a, b in pairs)
        checks.setdefault(end, []).append(f"    if {test}: {returns}" if pairs else f"    {returns}")
    for i in range(compiled.size):
        lines.extend(checks.get(i, ()))
        if keep is not None and not keep[i]:
            continue
        op = ops[i]
        if op == OP_VAR:
            lines.append(f"    v{i} = vec[{node_slot[i]}]")
        elif op == OP_CONST0:
            lines.append(f"    v{i} = zero")
        elif op == OP_CONST1:
            lines.append(f"    v{i} = one")
        elif op == OP_ADD:
            if generic:
                lines.append(f"    v{i} = add(v{lhs[i]}, v{rhs[i]})")
            else:
                lines.append(f"    v{i} = " + add_expr.format(a=f"v{lhs[i]}", b=f"v{rhs[i]}"))
        else:  # OP_MUL (opcodes validated at compile time)
            if generic:
                lines.append(f"    v{i} = mul(v{lhs[i]}, v{rhs[i]})")
            else:
                lines.append(f"    v{i} = " + mul_expr.format(a=f"v{lhs[i]}", b=f"v{rhs[i]}"))
    if keep is None:
        body = ", ".join(f"v{i}" for i in range(compiled.size))
    else:
        body = ", ".join(f"v{i}" for i in compiled.outputs)
    lines.append(f"    return [{body}]")
    return "\n".join(lines)


def _gen_loop_source(add_expr: str, mul_expr: str, generic: bool, outputs_only: bool) -> str:
    """Segment-loop kernel: one branch per same-opcode run, not per node.

    The instruction streams (``_loads``/``_ones``/``_stages``) are
    bound as defaults at ``exec`` time; the outputs-only variant gets
    streams pre-filtered to the output cone and returns only the
    designated output values.  ``_stages`` lists ``(segments, pairs,
    exit)``: after a stage's segments, when every pair holds equal
    values, the kernel returns the values at *exit*; a stage without
    an exit point has ``exit`` ``None``.  A staged kernel's value array
    has one spare last slot that stays ``zero``, which is where
    :data:`~repro.circuits.circuit.ZERO` (``-1``) indexes.
    """
    if generic:
        add_stmt = "values[_d] = add(values[_l], values[_r])"
        mul_stmt = "values[_d] = mul(values[_l], values[_r])"
    else:
        add_stmt = "a = values[_l]; b = values[_r]; values[_d] = " + add_expr.format(a="a", b="b")
        mul_stmt = "a = values[_l]; b = values[_r]; values[_d] = " + mul_expr.format(a="a", b="b")
    returns = "[values[_o] for _o in _outputs]" if outputs_only else "values"
    return (
        "def _kernel(vec, zero, one"
        + (", add, mul" if generic else "")
        + ", _loads=_loads, _ones=_ones, _stages=_stages, _width=_width, _outputs=_outputs):\n"
        "    values = [zero] * _width\n"
        "    for _d in _ones:\n"
        "        values[_d] = one\n"
        "    for _d, _s in _loads:\n"
        "        values[_d] = vec[_s]\n"
        "    for _segments, _pairs, _exit in _stages:\n"
        "        for _op, _triples in _segments:\n"
        f"            if _op == {OP_ADD}:\n"
        "                for _d, _l, _r in _triples:\n"
        f"                    {add_stmt}\n"
        "            else:\n"
        "                for _d, _l, _r in _triples:\n"
        f"                    {mul_stmt}\n"
        "        if _exit is not None:\n"
        "            for _a, _b in _pairs:\n"
        "                if not values[_a] == values[_b]:\n"
        "                    break\n"
        "            else:\n"
        "                return [values[_o] for _o in _exit]\n"
        f"    return {returns}\n"
    )


def _split_at_exits(segments: List[Tuple[int, list]], exits: List[Exit]) -> List[tuple]:
    """The segment stream cut at each exit point's end.

    Segments wholly inside a stage are shared, not copied; only a run
    that straddles a stage end is sliced in two.  Returns the
    ``_stages`` list of :func:`_gen_loop_source`.
    """
    stages: List[tuple] = []
    chunk: List[Tuple[int, list]] = []
    pending = iter(segments)
    carry: Optional[Tuple[int, list]] = None
    for end, pairs, outputs in exits:
        while True:
            if carry is None:
                carry = next(pending, None)
                if carry is None:
                    break
            op, triples = carry
            if triples[-1][0] < end:
                chunk.append(carry)
                carry = None
                continue
            if triples[0][0] < end:
                cut = bisect_left(triples, (end,))
                chunk.append((op, triples[:cut]))
                carry = (op, triples[cut:])
            break
        stages.append((chunk, pairs, outputs))
        chunk = []
    if carry is not None:
        chunk.append(carry)
    chunk.extend(pending)
    stages.append((chunk, None, None))
    return stages


class CompiledCircuit:
    """A :class:`Circuit` frozen for repeated evaluation.

    Compilation validates every opcode, deduplicates variable labels
    into a dense slot table and linearizes the gates into maximal
    same-opcode instruction streams.  The compiled object is immutable
    and caches one ``exec``-generated kernel per distinct
    ``(⊕-expression, ⊗-expression)`` pair plus one generic kernel for
    semirings without fused expressions.
    """

    __slots__ = (
        "circuit",
        "size",
        "outputs",
        "ops",
        "lhs",
        "rhs",
        "var_labels",
        "var_slots",
        "node_slot",
        "slot_nodes",
        "load_pairs",
        "const1_nodes",
        "segments",
        "_kernels",
        "_users",
        "_keep",
        "_outs_streams",
        "_out_positions",
    )

    def __init__(self, circuit: Circuit):
        ops = circuit.ops
        self.circuit = circuit
        self.size = len(ops)
        self.outputs = list(circuit.outputs)
        self.ops = array("q", ops)
        self.lhs = array("q", circuit.lhs)
        self.rhs = array("q", circuit.rhs)

        var_labels: List[Hashable] = []
        var_slots: Dict[Hashable, int] = {}
        node_slot: Dict[int, int] = {}
        slot_nodes: List[List[int]] = []
        load_pairs: List[Tuple[int, int]] = []
        const1_nodes: List[int] = []
        segments: List[Tuple[int, List[Tuple[int, int, int]]]] = []
        run: Optional[List[Tuple[int, int, int]]] = None
        run_op = -1
        labels = circuit.labels
        lhs, rhs = circuit.lhs, circuit.rhs
        for i, op in enumerate(ops):
            if op == OP_ADD or op == OP_MUL:
                if op != run_op:
                    run = []
                    segments.append((op, run))
                    run_op = op
                run.append((i, lhs[i], rhs[i]))
            elif op == OP_VAR:
                label = labels[i]
                slot = var_slots.get(label)
                if slot is None:
                    slot = len(var_labels)
                    var_slots[label] = slot
                    var_labels.append(label)
                    slot_nodes.append([])
                node_slot[i] = slot
                slot_nodes[slot].append(i)
                load_pairs.append((i, slot))
            elif op == OP_CONST1:
                const1_nodes.append(i)
            elif op != OP_CONST0:
                raise ValueError(f"unknown opcode {op}")
        self.var_labels = var_labels
        self.var_slots = var_slots
        self.node_slot = node_slot
        self.slot_nodes = slot_nodes
        self.load_pairs = load_pairs
        self.const1_nodes = const1_nodes
        self.segments = segments
        self._kernels: Dict[Tuple[Optional[Tuple[str, str]], bool, bool], Callable] = {}
        self._users: Optional[List[List[int]]] = None
        self._keep: Optional[List[bool]] = None
        self._outs_streams: Optional[tuple] = None
        self._out_positions: Optional[Dict[int, int]] = None

    # ------------------------------------------------------------------
    # Structure accessors
    # ------------------------------------------------------------------

    @property
    def num_slots(self) -> int:
        """Distinct variable labels (the width of the slot vector)."""
        return len(self.var_labels)

    @property
    def num_segments(self) -> int:
        """Same-opcode instruction runs in the gate stream."""
        return len(self.segments)

    @property
    def num_stages(self) -> int:
        """Stages the construction recorded (0 without a record): the
        stage ends at which outputs-only kernels may exit early."""
        stages = self.circuit.stages
        return len(stages) if stages is not None else 0

    def users(self) -> List[List[int]]:
        """Fanout index: ``users()[i]`` lists the gates reading node ``i``."""
        if self._users is None:
            users: List[List[int]] = [[] for _ in range(self.size)]
            for _op, triples in self.segments:
                for dest, left, right in triples:
                    users[left].append(dest)
                    if right != left:
                        users[right].append(dest)
            self._users = users
        return self._users

    def resolve_output(self, output: Optional[int]) -> int:
        """Default-output resolution, matching the seed interpreter."""
        if output is None:
            if len(self.outputs) != 1:
                raise ValueError(
                    f"circuit has {len(self.outputs)} outputs; pass output= explicitly"
                )
            return self.outputs[0]
        if not 0 <= output < self.size:
            raise ValueError(f"output index {output} out of range")
        return output

    # ------------------------------------------------------------------
    # Kernels
    # ------------------------------------------------------------------

    def _keep_mask(self) -> List[bool]:
        """Nodes reachable from the designated outputs (the live cone)."""
        if self._keep is None:
            self._keep = self.circuit.reachable_from_outputs()
        return self._keep

    def _output_position(self, node: int) -> Optional[int]:
        """Position of *node* in the output list, or ``None``."""
        positions = self._out_positions
        if positions is None:
            positions = {}
            for pos, out in enumerate(self.outputs):
                if out not in positions:
                    positions[out] = pos
            self._out_positions = positions
        return positions.get(node)

    def _exit_points(self) -> List[Exit]:
        """The stage record's exit points (none without a record)."""
        stages = self.circuit.stages
        return stages.exits() if stages is not None else []

    def _filtered_streams(self) -> tuple:
        """Instruction streams restricted to the output cone and cut
        at the exit points: ``(loads, ones, stages)``."""
        if self._outs_streams is None:
            keep = self._keep_mask()
            # A pruned circuit is all cone: share its streams, since the
            # stage split below slices only the runs that straddle a cut.
            if all(keep):
                loads, ones, segments = self.load_pairs, self.const1_nodes, self.segments
            else:
                loads = [(dest, slot) for dest, slot in self.load_pairs if keep[dest]]
                ones = [dest for dest in self.const1_nodes if keep[dest]]
                segments = []
                for op, triples in self.segments:
                    live = [t for t in triples if keep[t[0]]]
                    if live:
                        segments.append((op, live))
            exits = self._exit_points()
            stages = _split_at_exits(segments, exits) if exits else [(segments, None, None)]
            self._outs_streams = (loads, ones, stages)
        return self._outs_streams

    def _kernel(
        self, exprs: Optional[Tuple[str, str]], outputs_only: bool = False, reuse: bool = True
    ) -> Callable:
        """The kernel for one fused-expression pair (``None`` = generic).

        The ``outputs_only`` variant applies dead-cone elimination --
        nodes not reachable from the designated outputs are never
        computed -- stops at the first stage that repeats the one
        before it (when the circuit has a stage record) and returns
        only the output values; the full variant materializes every
        node (the ``evaluate_all`` contract).  ``reuse=False`` marks a
        kernel that will run once: it is always the segment loop, never
        straight-line code (see :data:`_STRAIGHT_LINE_LIMIT`).
        """
        straight = reuse and self.size <= _STRAIGHT_LINE_LIMIT
        key = (exprs, outputs_only, straight)
        kernel = self._kernels.get(key)
        if kernel is None:
            generic = exprs is None
            add_expr, mul_expr = ("", "") if generic else exprs
            exits = self._exit_points() if outputs_only else []
            if straight:
                namespace: Dict[str, object] = {}
                keep = self._keep_mask() if outputs_only else None
                source = _gen_straight_source(self, add_expr, mul_expr, generic, keep, exits)
            else:
                if outputs_only:
                    loads, ones, stages = self._filtered_streams()
                else:
                    loads, ones, stages = self.load_pairs, self.const1_nodes, [(self.segments, None, None)]
                namespace = {
                    "_loads": loads,
                    "_ones": ones,
                    "_stages": stages,
                    "_width": self.size + 1 if exits else self.size,
                    "_outputs": self.outputs,
                }
                source = _gen_loop_source(add_expr, mul_expr, generic, outputs_only)
            exec(source, namespace)  # noqa: S102 - the closure compiler
            kernel = namespace["_kernel"]
            self._kernels[key] = kernel
        return kernel

    def _runner(
        self, semiring: Semiring, outputs_only: bool = False, reuse: bool = True
    ) -> Callable[[List], List]:
        """``vec -> values`` for *semiring*, with constants pre-bound.

        ``reuse=False`` asks for a one-shot runner (see :meth:`_kernel`).

        The closure itself is rebuilt per call and deliberately NOT
        cached on the semiring: a cache would pin per-call semiring
        instances (``canonical_polynomial`` constructs a fresh
        ``SorpSemiring`` every invocation) for the compiled circuit's
        lifetime.  The expensive part -- the ``exec``-generated kernel
        -- is cached by expression pair in :meth:`_kernel`, so the
        rebuild costs one dict probe and a closure allocation.
        """
        zero, one = semiring.zero, semiring.one
        add_expr = semiring.compiled_add_expr
        mul_expr = semiring.compiled_mul_expr
        if add_expr is not None and mul_expr is not None:
            kernel = self._kernel((add_expr, mul_expr), outputs_only, reuse)

            def runner(vec, _k=kernel, _z=zero, _o=one):
                return _k(vec, _z, _o)

        else:
            kernel = self._kernel(None, outputs_only, reuse)
            add, mul = semiring.add, semiring.mul

            def runner(vec, _k=kernel, _z=zero, _o=one, _a=add, _m=mul):
                return _k(vec, _z, _o, _a, _m)

        return runner

    # ------------------------------------------------------------------
    # Evaluation entry points
    # ------------------------------------------------------------------

    def bind(self, assignment: Assignment) -> List:
        """Resolve *assignment* into a dense slot vector.

        This is the only place labels are hashed: once per distinct
        label per assignment, never per node.
        """
        lookup = assignment if callable(assignment) else assignment.__getitem__
        return [lookup(label) for label in self.var_labels]

    def evaluate_all(self, semiring: Semiring, assignment: Assignment) -> List:
        """Full value array, exactly like the seed ``evaluate_all``."""
        return self._runner(semiring)(self.bind(assignment))

    def evaluate(self, semiring: Semiring, assignment: Assignment, output: Optional[int] = None):
        """Value at one output (node index), like the seed ``evaluate``.

        Queries against a designated output run the dead-cone-
        eliminated kernel; an explicit interior node index falls back
        to the full pass.
        """
        out = self.resolve_output(output)
        position = self._output_position(out)
        if position is None:
            return self._runner(semiring)(self.bind(assignment))[out]
        return self._runner(semiring, True)(self.bind(assignment))[position]

    def evaluate_batch(
        self,
        semiring: Semiring,
        assignments: Iterable[Assignment],
        output: Optional[int] = None,
    ) -> List:
        """One value per assignment, amortizing the compile and the
        kernel lookup across the whole batch."""
        out = self.resolve_output(output)
        position = self._output_position(out)
        bind = self.bind
        if position is None:
            runner = self._runner(semiring)
            return [runner(bind(assignment))[out] for assignment in assignments]
        runner = self._runner(semiring, True)
        return [runner(bind(assignment))[position] for assignment in assignments]

    def evaluate_boolean_batch(
        self,
        batches: Iterable[Iterable[Hashable]],
        output: Optional[int] = None,
    ) -> List[bool]:
        """Bitset-parallel Boolean evaluation of many true-variable sets.

        Each element of *batches* is a collection of variable labels
        to set ``True`` (labels absent from the circuit are ignored,
        matching ``evaluate_boolean``).  Up to :data:`WORD_SIZE`
        assignments are packed into one integer bitmask per node and
        evaluated in a single ``|``/``&`` pass; returns one ``bool``
        per input assignment, in order.
        """
        out = self.resolve_output(output)
        position = self._output_position(out)
        if position is None:
            kernel = self._kernel((BITSET_ADD_EXPR, BITSET_MUL_EXPR))
            extract = out
        else:
            kernel = self._kernel((BITSET_ADD_EXPR, BITSET_MUL_EXPR), True)
            extract = position
        var_slots = self.var_slots
        num_slots = len(self.var_labels)
        batch_list = list(batches)
        results: List[bool] = []
        for start in range(0, len(batch_list), WORD_SIZE):
            chunk = batch_list[start : start + WORD_SIZE]
            width = len(chunk)
            full = (1 << width) - 1
            masks = [0] * num_slots
            for j, true_variables in enumerate(chunk):
                bit = 1 << j
                for label in true_variables:
                    slot = var_slots.get(label)
                    if slot is not None:
                        masks[slot] |= bit
            word = kernel(masks, 0, full)[extract]
            results.extend(bool((word >> j) & 1) for j in range(width))
        return results


def compile_circuit(circuit: Circuit | CompiledCircuit) -> CompiledCircuit:
    """Compile *circuit*, caching the result on the (immutable) circuit."""
    if isinstance(circuit, CompiledCircuit):
        return circuit
    compiled = circuit._compiled
    if compiled is None:
        compiled = CompiledCircuit(circuit)
        circuit._compiled = compiled
    return compiled


class IncrementalEvaluator:
    """Serve valuation queries under sparse assignment updates.

    Holds the compiled circuit, the current slot vector and the last
    full value array.  :meth:`update` applies a ``{label: value}``
    delta and re-evaluates only the *dirty cone of influence*: a
    worklist seeded with the touched input gates is drained in
    ascending node order (node indices are topological), and a gate's
    users -- looked up in the compiled fanout index -- are enqueued
    only when its value actually changed under ``semiring.eq``.  A
    delta touching one EDB weight therefore costs the size of that
    fact's cone, not the size of the circuit.
    """

    __slots__ = ("compiled", "semiring", "_vec", "_values", "_dirty", "last_cone_size")

    def __init__(
        self,
        circuit: Circuit | CompiledCircuit,
        semiring: Semiring,
        assignment: Assignment,
    ):
        self.compiled = compile_circuit(circuit)
        self.semiring = semiring
        self._vec = self.compiled.bind(assignment)
        # The full pass runs once; later updates walk dirty cones.
        self._values = self.compiled._runner(semiring, reuse=False)(list(self._vec))
        self._dirty = bytearray(self.compiled.size)
        self.last_cone_size = 0

    @property
    def values(self) -> List:
        """The live value array (do not mutate)."""
        return self._values

    def value(self, output: Optional[int] = None):
        """Current value at one output (node index)."""
        return self._values[self.compiled.resolve_output(output)]

    def output_values(self) -> List:
        """Current values at every designated output, in order."""
        return [self._values[out] for out in self.compiled.outputs]

    def update(self, delta: Mapping[Hashable, object]) -> List:
        """Apply a sparse delta; returns :meth:`output_values`.

        Unknown labels raise ``KeyError`` (they have no gate to
        feed).  ``self.last_cone_size`` records how many nodes were
        re-evaluated -- the dirty cone the update actually paid for.
        """
        compiled = self.compiled
        semiring = self.semiring
        eq, add, mul = semiring.eq, semiring.add, semiring.mul
        var_slots = compiled.var_slots
        slot_nodes = compiled.slot_nodes
        dirty = self._dirty
        heap: List[int] = []
        # Resolve every label before mutating anything: a KeyError on a
        # partially-applied delta would otherwise leave slots written
        # and nodes marked dirty with the worklist discarded.
        resolved = [(var_slots[label], value) for label, value in delta.items()]
        for slot, value in resolved:
            self._vec[slot] = value
            for node in slot_nodes[slot]:
                if not dirty[node]:
                    dirty[node] = 1
                    heappush(heap, node)
        values = self._values
        vec = self._vec
        ops, lhs, rhs = compiled.ops, compiled.lhs, compiled.rhs
        node_slot = compiled.node_slot
        users = compiled.users()
        cone = 0
        while heap:
            node = heappop(heap)
            dirty[node] = 0
            cone += 1
            op = ops[node]
            if op == OP_ADD:
                new = add(values[lhs[node]], values[rhs[node]])
            elif op == OP_MUL:
                new = mul(values[lhs[node]], values[rhs[node]])
            else:  # OP_VAR: constants never enter the worklist
                new = vec[node_slot[node]]
            # Store only when the value changed under semiring.eq: for
            # tolerance-based eq (Viterbi's isclose) absorbing each
            # sub-tolerance write would let unbounded drift accumulate
            # against a value the users never re-consumed.
            if not eq(values[node], new):
                values[node] = new
                for user in users[node]:
                    if not dirty[user]:
                        dirty[user] = 1
                        heappush(heap, user)
        self.last_cone_size = cone
        return self.output_values()
