"""Module compiler: trace a forward pass, emit a flat kernel plan.

Compilation runs the module's forward once on an example input with a trace
hook installed in the autograd layer.  Every primitive op reports
``(kernel name, constant kwargs, parent tensors, output tensor)`` through
``Tensor._make``; because hooks fire in execution order, the recorded list
is already a topological order of the dataflow and can be replayed linearly.

The passes that turn the raw trace into a :class:`~repro.runtime.engine.Plan`:

1. **slot assignment** — every tensor becomes a slot: the input placeholder,
   a captured constant (parameters, buffers, literals created inside
   ``forward``) or a step output;
2. **constant folding** — steps whose inputs are all constants (embedding
   lookups of fixed indices, learned adjacencies like
   ``softmax(relu(E Eᵀ))``, scale-fusion weights) already computed their
   value during tracing; the value is promoted to a constant and the step
   dropped;
3. **dead-step pruning** — steps that do not reach the output are removed;
4. **elementwise-chain fusion** — single-consumer runs of shape-preserving
   elementwise steps (add/mul/tanh/relu/… — see
   :data:`repro.tensor.kernels.FUSABLE_ELEMENTWISE`) collapse into one
   ``fused_elementwise`` step executed as a blocked chain in a single
   buffer, turning N memory passes over large intermediates into one
   cache-resident sweep;
5. **workspace allocation** — every surviving non-view step gets a
   preallocated output buffer, pooled by liveness so the working set stays
   at the peak live size.

Plans also carry an execution **precision policy** (``dtype``): tracing
always runs the float64 autograd engine, but the emitted plan may bind its
constants and workspace buffers at float32, halving the memory traffic the
fused kernels are bound by (see :func:`repro.runtime.engine.resolve_precision`).

Tracing requirements (all satisfied by the models in this library):

* the module must be in **evaluation mode** — training-time behaviour
  (dropout masks, batch-norm statistics updates) would bake per-trace
  randomness into the plan;
* the forward must be a fixed dataflow for a fixed input *shape* — Python
  loops over time steps are fine (they unroll), but branching on input
  *values* would freeze the traced branch;
* every op must go through the kernel layer (``Tensor._make`` with an op
  spec) — raw ``numpy`` detours on ``.data`` would bake input-dependent
  constants, and the tracer rejects spec-less ops loudly.
"""

from __future__ import annotations

import threading
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from ..tensor import Tensor, no_grad
from ..tensor import kernels as K
from ..tensor.tensor import _set_trace_hook

from .engine import Plan, PlanSpec, PlanStats, StepSpec, bind_plan

__all__ = ["CompileError", "build_plan_spec", "compile_plan", "trace_module"]

#: Serialises compilations.  Trace hooks are keyed by thread, so tensor ops
#: on other threads can never leak into a plan; the lock additionally keeps
#: concurrent compilations from interleaving their (GIL-shared) module
#: state, e.g. running the same module's forward twice at once.
_COMPILE_LOCK = threading.Lock()


class CompileError(RuntimeError):
    """The module's forward pass cannot be captured as a kernel plan."""


class _Tracer:
    """Records every primitive op executed while installed as trace hook."""

    def __init__(self) -> None:
        # (name, kwargs, parents, out); holding the tensors also pins their
        # ids so slot assignment by id() cannot collide after a GC cycle.
        self.records: List[Tuple[str, Dict[str, Any], Tuple[Tensor, ...], Tensor]] = []

    def __call__(self, op, parents: Tuple[Tensor, ...], out: Tensor) -> None:
        if op is None:
            raise CompileError(
                "encountered an autograd op without a kernel spec; every "
                "primitive consumed by the runtime must pass op=(name, kwargs) "
                "to Tensor._make"
            )
        name, kwargs = op
        if name not in K.KERNELS:
            raise CompileError(f"op {name!r} has no kernel in repro.tensor.kernels.KERNELS")
        self.records.append((name, kwargs, parents, out))


def trace_module(module, example: np.ndarray):
    """Run ``module`` once on ``example`` and capture its op trace.

    Returns ``(records, placeholder, output)`` where ``placeholder`` is the
    input leaf tensor and ``output`` the traced forward result.
    """
    if getattr(module, "training", False):
        raise CompileError(
            "cannot compile a module in training mode; call module.eval() first"
        )
    placeholder = Tensor(np.asarray(example, dtype=np.float64))
    tracer = _Tracer()
    with _COMPILE_LOCK:
        previous = _set_trace_hook(tracer)
        try:
            with no_grad():
                output = module(placeholder)
        finally:
            _set_trace_hook(previous)
    if not isinstance(output, Tensor):
        raise CompileError(
            f"module forward returned {type(output).__name__}; a single Tensor is required"
        )
    return tracer.records, placeholder, output


class _Step:
    """One lowered plan step before kernel binding."""

    __slots__ = ("name", "kwargs", "in_slots", "out_slot", "out")

    def __init__(self, name, kwargs, in_slots, out_slot, out) -> None:
        self.name = name
        self.kwargs = kwargs
        self.in_slots = in_slots
        self.out_slot = out_slot
        self.out = out  # the traced output Tensor (shape/dtype/base oracle)


class _Lowered:
    """Trace lowered to slots and steps, shared by the inference and
    training compilers."""

    __slots__ = (
        "steps", "values", "is_const", "output_slot", "input_value", "param_slots",
        "traced_ops", "folded", "pruned", "steps_unfused", "chain_lengths",
    )

    def __init__(self) -> None:
        self.steps: List[_Step] = []
        self.values: List[Optional[np.ndarray]] = []
        self.is_const: List[bool] = []
        self.output_slot = 0
        #: The traced placeholder's array; view classification needs it to
        #: probe whether step outputs alias the input.
        self.input_value: Optional[np.ndarray] = None
        #: slot -> leaf Tensor for constants that are learnable parameters
        #: (consumed by the training compiler to route gradients).
        self.param_slots: Dict[int, Tensor] = {}
        self.traced_ops = 0
        self.folded = 0
        self.pruned = 0
        self.steps_unfused = 0
        self.chain_lengths: Tuple[int, ...] = ()


def lower_module(module, example: np.ndarray, fold_constants: bool = True,
                 fuse: bool = True) -> _Lowered:
    """Trace ``module`` and run the graph passes (fold, prune, fuse).

    The result is backend-neutral: :func:`compile_plan` binds it to pooled
    workspace buffers for inference, the training compiler
    (:mod:`repro.runtime.training`) to dedicated live buffers plus a
    gradient tape.
    """
    records, placeholder, output = trace_module(module, example)
    lowered = _Lowered()
    lowered.traced_ops = len(records)
    lowered.input_value = placeholder.data

    # ------------------------------------------------------------------
    # Pass 1: slot assignment (+ inline constant folding).
    # ------------------------------------------------------------------
    slot_of: Dict[int, int] = {id(placeholder): 0}
    values: List[Optional[np.ndarray]] = [None]  # slot 0 is the input
    is_const: List[bool] = [False]
    raw_steps: List[_Step] = []

    def const_slot(parent: Optional[Tensor], array: np.ndarray) -> int:
        values.append(array)
        is_const.append(True)
        slot = len(values) - 1
        if parent is not None and getattr(parent, "requires_grad", False):
            lowered.param_slots[slot] = parent
        return slot

    for name, kwargs, parents, out in records:
        in_slots = []
        for parent in parents:
            slot = slot_of.get(id(parent))
            if slot is None:
                slot = const_slot(parent, parent.data)
                slot_of[id(parent)] = slot
            in_slots.append(slot)
        if fold_constants and all(is_const[slot] for slot in in_slots):
            # The traced output already holds the folded value.
            slot_of[id(out)] = const_slot(None, out.data)
            lowered.folded += 1
            continue
        values.append(None)
        is_const.append(False)
        out_slot = len(values) - 1
        slot_of[id(out)] = out_slot
        raw_steps.append(_Step(name, kwargs, tuple(in_slots), out_slot, out))

    output_slot = slot_of.get(id(output))
    if output_slot is None:
        # The forward returned a tensor that never went through the kernel
        # layer (a constant built inside forward); capture it directly.
        output_slot = const_slot(None, output.data)

    # ------------------------------------------------------------------
    # Pass 2: dead-step pruning (backward reachability from the output).
    # ------------------------------------------------------------------
    needed = {output_slot}
    kept_flags = [False] * len(raw_steps)
    for index in range(len(raw_steps) - 1, -1, -1):
        step = raw_steps[index]
        if step.out_slot in needed:
            kept_flags[index] = True
            needed.update(step.in_slots)
    lowered.pruned = len(raw_steps) - sum(kept_flags)
    kept = [step for keep, step in zip(kept_flags, raw_steps) if keep]
    lowered.steps_unfused = len(kept)

    # ------------------------------------------------------------------
    # Pass 3: elementwise-chain fusion.
    # ------------------------------------------------------------------
    if fuse:
        kept, lowered.chain_lengths = _fuse_elementwise(kept, output_slot)

    lowered.steps = kept
    lowered.values = values
    lowered.is_const = is_const
    lowered.output_slot = output_slot
    return lowered


def _fuse_elementwise(steps: List[_Step], output_slot: int) -> Tuple[List[_Step], Tuple[int, ...]]:
    """Collapse single-consumer runs of elementwise steps into fused steps.

    A step joins the chain of its predecessor when it is elementwise
    (:data:`~repro.tensor.kernels.FUSABLE_ELEMENTWISE`), directly follows it
    in plan order, is the predecessor's *only* consumer, and produces the
    same output shape — the invariants that let the whole chain run
    in-place in one buffer.  Interior slots disappear from the plan; the
    fused step reads the union of the chain's external inputs and writes
    the tail's slot.
    """
    consumer_count: Dict[int, int] = {}
    for step in steps:
        for slot in set(step.in_slots):
            consumer_count[slot] = consumer_count.get(slot, 0) + 1

    fused: List[_Step] = []
    chain_lengths: List[int] = []
    index = 0
    while index < len(steps):
        step = steps[index]
        if step.name not in K.FUSABLE_ELEMENTWISE:
            fused.append(step)
            index += 1
            continue
        chain = [step]
        cursor = index
        while cursor + 1 < len(steps):
            tail, candidate = steps[cursor], steps[cursor + 1]
            if (
                candidate.name in K.FUSABLE_ELEMENTWISE
                and tail.out_slot in candidate.in_slots
                and consumer_count.get(tail.out_slot) == 1
                and tail.out_slot != output_slot
                and candidate.out.data.shape == tail.out.data.shape
            ):
                chain.append(candidate)
                cursor += 1
            else:
                break
        if len(chain) == 1:
            fused.append(step)
            index += 1
            continue
        # Build the instruction list: operand references are indices into
        # the fused step's external input tuple, or -1 for the running
        # value (the previous instruction's output).
        external: List[int] = []
        position: Dict[int, int] = {}
        instructions = []
        previous_slot: Optional[int] = None
        for link in chain:
            refs = []
            for slot in link.in_slots:
                if slot == previous_slot:
                    refs.append(-1)
                    continue
                if slot not in position:
                    position[slot] = len(external)
                    external.append(slot)
                refs.append(position[slot])
            instructions.append((link.name, K.KERNELS[link.name], tuple(refs), link.kwargs))
            previous_slot = link.out_slot
        tail = chain[-1]
        fused.append(
            _Step(
                "fused_elementwise",
                {"chain": tuple(instructions)},
                tuple(external),
                tail.out_slot,
                tail.out,
            )
        )
        chain_lengths.append(len(chain))
        index = cursor + 1
    return fused, tuple(sorted(chain_lengths))


def classify_steps(
    steps: List[_Step],
    values: List[Optional[np.ndarray]],
    input_value: Optional[np.ndarray] = None,
    input_slot: int = 0,
):
    """Label every step ``view`` / ``buffered`` / ``alloc``.

    * ``view`` — the kernel returned a true view of its input during
      tracing (it shares memory with the parent); no buffer needed, and for
      liveness the output aliases the input's storage;
    * ``buffered`` — the kernel writes into a preallocated output buffer;
    * ``alloc`` — the kernel allocates its result per call (advanced
      indexing); rare, and usually constant-folded away.

    Reshapes that had to copy during tracing are rewritten to the
    buffer-friendly ``reshape_copy`` kernel.  Sharing is probed with
    ``np.may_share_memory`` against the traced parent — checking ``.base``
    alone misclassifies a copying reshape, whose result is a *view of a
    fresh copy* (``base`` set, but no memory shared with the parent), and
    would silently allocate that copy again on every call.
    """
    slot_value: Dict[int, np.ndarray] = {
        slot: value for slot, value in enumerate(values) if value is not None
    }
    if input_value is not None:
        slot_value[input_slot] = input_value
    classified: List[Tuple[str, _Step]] = []
    for step in steps:
        if step.name in K.VIEW_OPS:
            parent = slot_value.get(step.in_slots[0])
            shares = parent is not None and np.may_share_memory(step.out.data, parent)
            if shares:
                kind = "view"
            elif step.name == "reshape":
                kind, step.name = "buffered", "reshape_copy"
            else:
                kind = "alloc"
        else:
            kind = "buffered"
        classified.append((kind, step))
        slot_value[step.out_slot] = step.out.data
    return classified


def build_plan_spec(
    module,
    example: np.ndarray,
    fold_constants: bool = True,
    fuse: bool = True,
    dtype=np.float64,
):
    """Trace and lower ``module`` into a serialisable plan description.

    Returns ``(spec, values)``: a :class:`~repro.runtime.engine.PlanSpec`
    holding the step list (fused chains unbound), the pooled workspace
    layout as storage ids and the plan stats — plus the full slot table
    with the constants already cast to the plan dtype.
    :func:`~repro.runtime.engine.bind_plan` materialises the pair into an
    executable :class:`Plan`; :mod:`repro.runtime.artifacts` persists it
    to disk.  Every structural decision (folding, pruning, fusion,
    pooling) happens here, so a bound artifact replays exactly the plan a
    fresh compile would produce.
    """
    dtype = np.dtype(dtype)
    lowered = lower_module(module, example, fold_constants=fold_constants, fuse=fuse)
    classified = classify_steps(lowered.steps, lowered.values, lowered.input_value)
    output_slot = lowered.output_slot

    values = lowered.values
    if dtype != np.float64:
        # Cast every floating constant (parameters, folded values) to the
        # policy dtype once; the traced arrays keep serving as float64
        # shape oracles.  Non-float constants (none today) pass through.
        values = [
            value.astype(dtype)
            if value is not None and np.issubdtype(value.dtype, np.floating)
            else value
            for value in values
        ]

    # ------------------------------------------------------------------
    # Liveness analysis over underlying buffers.
    #
    # Each buffered step's output gets a storage token; view steps propagate
    # their input's token (a view must pin the storage it aliases).  A token
    # is dead after the last step that reads any slot carrying it, at which
    # point its buffer returns to the pool for a later step — this keeps the
    # working set at the peak *live* size (cache-warm), not the sum of all
    # intermediates.
    # ------------------------------------------------------------------
    token_of_slot: Dict[int, Optional[int]] = {}
    last_use: Dict[int, int] = {}
    next_token = 0

    for index, (kind, step) in enumerate(classified):
        for slot in step.in_slots:
            token = token_of_slot.get(slot)
            if token is not None:
                last_use[token] = index
        if kind == "view":
            token_of_slot[step.out_slot] = token_of_slot.get(step.in_slots[0])
        elif kind == "buffered":
            token_of_slot[step.out_slot] = next_token
            next_token += 1
        else:  # alloc: fresh array per call, nothing to pool or pin
            token_of_slot[step.out_slot] = None
    output_token = token_of_slot.get(output_slot)
    if output_token is not None:
        last_use[output_token] = len(classified)  # never recycled

    # ------------------------------------------------------------------
    # Workspace layout (pooled by byte size), expressed as storage ids.
    #
    # Replay is index-ordered, so any freed storage is safe to hand to a
    # later step.  No memory is allocated here — steps reference storages
    # by id and :func:`bind_plan` materialises them, so the aliasing
    # structure survives serialisation byte for byte.
    # ------------------------------------------------------------------
    step_specs: List[StepSpec] = []
    pool: Dict[int, List[int]] = {}
    storage_of_token: Dict[int, int] = {}
    storage_sizes: List[int] = []
    for index, (kind, step) in enumerate(classified):
        storage_id: Optional[int] = None
        if kind == "buffered":
            nbytes = int(step.out.data.size * dtype.itemsize)
            bucket = pool.get(nbytes)
            if bucket:
                storage_id = bucket.pop()
            if storage_id is None:
                storage_id = len(storage_sizes)
                storage_sizes.append(nbytes)
            token = token_of_slot[step.out_slot]
            storage_of_token[token] = storage_id
        kwargs = step.kwargs
        if step.name == "fused_elementwise":
            # Strip the bound kernel functions out of the chain: the spec
            # stores (name, refs, kwargs) and bind_plan re-resolves names.
            kwargs = {
                "chain": tuple(
                    (name, refs, instruction_kwargs)
                    for name, _kernel, refs, instruction_kwargs in step.kwargs["chain"]
                )
            }
        step_specs.append(
            StepSpec(
                name=step.name,
                in_slots=tuple(step.in_slots),
                kwargs=kwargs,
                out_slot=step.out_slot,
                out_shape=tuple(step.out.data.shape),
                storage=storage_id,
            )
        )
        # Recycle storages whose last reader was this step.  (Allocation
        # happens first, so a step's output never aliases its inputs.)
        for slot in set(step.in_slots):
            token = token_of_slot.get(slot)
            if token is not None and last_use.get(token) == index:
                freed = storage_of_token.pop(token, None)
                if freed is not None:
                    pool.setdefault(storage_sizes[freed], []).append(freed)

    stats = PlanStats(
        input_shape=tuple(np.asarray(example).shape),
        traced_ops=lowered.traced_ops,
        steps=len(step_specs),
        folded=lowered.folded,
        pruned=lowered.pruned,
        workspace_bytes=sum(storage_sizes),
        steps_unfused=lowered.steps_unfused,
        fused_chain_lengths=lowered.chain_lengths,
        dtype=str(dtype),
    )
    spec = PlanSpec(
        dtype=str(dtype),
        input_slot=0,
        output_slot=output_slot,
        num_slots=len(values),
        const_slots=tuple(
            slot for slot, const in enumerate(lowered.is_const) if const
        ),
        steps=step_specs,
        storage_sizes=storage_sizes,
        stats=stats,
    )
    return spec, values


def compile_plan(
    module,
    example: np.ndarray,
    fold_constants: bool = True,
    fuse: bool = True,
    dtype=np.float64,
) -> Plan:
    """Compile ``module``'s forward into a :class:`Plan` for one input shape.

    ``dtype`` is the plan's execution precision (the trace itself always
    runs the float64 autograd engine): constants are cast once at compile
    time, workspace buffers are allocated at the policy's itemsize, and the
    engine casts the input on entry and the output back to float64 on exit.

    Implemented as :func:`build_plan_spec` (trace + graph passes + layout)
    followed by :func:`~repro.runtime.engine.bind_plan` (buffer and kernel
    binding) — the same two halves an on-disk plan artifact goes through,
    so loaded plans are structurally identical to compiled ones.
    """
    spec, values = build_plan_spec(
        module, example, fold_constants=fold_constants, fuse=fuse, dtype=dtype
    )
    return bind_plan(spec, values)
