"""Plan execution: flat kernel replay over preallocated workspace buffers.

A :class:`Plan` is the compiled form of one module forward pass for one
input shape: a linear sequence of kernel calls (no graph walking — the
trace order is already topological) over a slot table holding the input,
the captured constants and the intermediate buffers.

Per call, the engine pays one Python-level dispatch per surviving kernel
step and **zero allocations for intermediates**: every non-view step writes
into a buffer allocated once at compile time and reused across calls
(view steps — reshape, transpose, slicing — produce zero-copy views and
need no buffer at all).  This is the difference to an autograd forward
under ``no_grad``, which still builds a ``Tensor``, a parent tuple and a
gradient-closure tuple per op and allocates every intermediate array.
"""

from __future__ import annotations

import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from ..tensor import Tensor
from ..tensor import kernels as K

__all__ = [
    "Plan",
    "PlanCacheInfo",
    "PlanSpec",
    "PlanStats",
    "StepSpec",
    "bind_plan",
    "CompiledModel",
    "BUCKETS_ENV_VAR",
    "DEFAULT_BUCKET_CAP",
    "PRECISION_ENV_VAR",
    "PRECISIONS",
    "WORKSPACE_ALIGN",
    "plan_workspace_nbytes",
    "resolve_bucket_cap",
    "resolve_precision",
    "bucket_batch_size",
    "pad_batch_to_bucket",
    "plan_row_bytes",
    "replay_tile",
    "TILE_BUDGET_BYTES",
]

#: Environment variable controlling batch bucketing (see
#: :func:`resolve_bucket_cap`).
BUCKETS_ENV_VAR = "REPRO_RUNTIME_BUCKETS"

#: Largest padded batch by default; batches beyond it compile exact plans.
DEFAULT_BUCKET_CAP = 1024

#: Byte budget of one replay tile: a plan serves at most the largest
#: power-of-two batch whose widest step output fits in it, and larger
#: batches replay that plan over row tiles (see :func:`replay_tile`).
#: Calibrated by ``benchmarks/bench_replay_tiles.py``: a tile's working set
#: has to stay cache-resident for the bandwidth-bound kernels to win.
TILE_BUDGET_BYTES = 1 << 20

#: Environment variable selecting the default execution precision (see
#: :func:`resolve_precision`).
PRECISION_ENV_VAR = "REPRO_RUNTIME_PRECISION"

#: Supported precision policies: plan execution dtypes by policy name.
PRECISIONS = ("float64", "float32")

def resolve_precision(policy: Union[None, str, np.dtype] = None) -> np.dtype:
    """Resolve a precision policy to the plan execution dtype.

    ``policy`` may be ``"float64"`` / ``"float32"`` (or the corresponding
    NumPy dtype), or ``None`` to consult the ``REPRO_RUNTIME_PRECISION``
    environment variable (defaulting to float64 — the bit-parity mode).
    """
    if policy is None:
        policy = os.environ.get(PRECISION_ENV_VAR, "").strip().lower() or "float64"
    name = np.dtype(policy).name if not isinstance(policy, str) else policy.lower()
    if name not in PRECISIONS:
        raise ValueError(
            f"unknown precision policy {policy!r}; expected one of {PRECISIONS} "
            f"(set via argument or the {PRECISION_ENV_VAR} environment variable)"
        )
    return np.dtype(name)


def resolve_bucket_cap(policy: Union[None, bool, int] = None) -> Optional[int]:
    """Resolve the batch-bucketing policy to a bucket cap (or ``None``).

    ``policy`` may be ``True`` (bucketing on, default cap), ``False``
    (disabled), a positive integer (cap on the largest padded bucket) or
    ``None`` to consult the ``REPRO_RUNTIME_BUCKETS`` environment variable,
    which accepts the same spellings: unset/empty or ``on`` for the
    default, ``off``/``exact``/``none``/``0`` to disable, or an integer cap.
    """
    if policy is None:
        raw = os.environ.get(BUCKETS_ENV_VAR, "").strip().lower()
        if raw in ("", "on", "true"):
            return DEFAULT_BUCKET_CAP
        if raw in ("off", "exact", "none", "false", "0"):
            return None
        try:
            policy = int(raw)
        except ValueError:
            raise ValueError(
                f"cannot parse {BUCKETS_ENV_VAR}={raw!r}; expected an integer "
                "cap, 'on', or one of off/exact/none/0"
            ) from None
    if policy is True:
        return DEFAULT_BUCKET_CAP
    if policy is False:
        return None
    if policy <= 0:
        return None
    return int(policy)


def bucket_batch_size(batch: int, cap: Optional[int]) -> int:
    """The padded batch size served for ``batch`` under bucket cap ``cap``.

    Batches are rounded up to the next power of two (clamped to the cap),
    so a ragged stream of sizes compiles O(log cap) plans instead of one
    per observed size.  Batches above the cap — and any batch when
    bucketing is disabled — keep their exact size.
    """
    if cap is None or batch <= 1 or batch > cap:
        return batch
    return min(1 << (batch - 1).bit_length(), cap)


def pad_batch_to_bucket(array: np.ndarray, cap: Optional[int]):
    """Pad axis 0 of ``array`` up to its bucket; returns ``(array, trim)``.

    ``trim`` is the original batch size when padding happened, ``None``
    when the array is served as-is.  Padding rows replicate the first row:
    replicated rows run the exact arithmetic of a real row, so they can
    never produce the NaN/Inf a zero row might (e.g. through a division),
    and the caller discards them via ``trim`` anyway.  Models must treat
    batch rows independently — true of every forward in this library
    (evaluation mode uses running statistics, and no model reduces over
    axis 0).

    Edge shapes are served without padding: an empty batch has no row to
    replicate (:class:`CompiledModel` short-circuits it before reaching
    here), and a batch above the cap keeps its exact size.
    """
    if array.ndim == 0 or array.shape[0] == 0:
        return array, None
    batch = array.shape[0]
    target = bucket_batch_size(batch, cap)
    if target == batch:
        return array, None
    padded = np.empty((target,) + array.shape[1:], dtype=array.dtype)
    padded[:batch] = array
    padded[batch:] = array[0]
    return padded, batch


def plan_row_bytes(spec: "PlanSpec") -> int:
    """Bytes of the plan's widest buffered step output per batch row."""
    rows = max(int(spec.stats.input_shape[0]), 1)
    itemsize = np.dtype(spec.dtype).itemsize
    widest = max(
        (int(np.prod(step.out_shape)) * itemsize for step in spec.steps if step.storage is not None),
        default=0,
    )
    return -(-widest // rows)


def replay_tile(row_bytes: int) -> int:
    """Rows of one replay tile: the largest power of two whose widest step
    output (``row_bytes`` per row) fits :data:`TILE_BUDGET_BYTES`, at least 1."""
    fits = TILE_BUDGET_BYTES // max(int(row_bytes), 1)
    return 1 << max(fits.bit_length() - 1, 0)


@dataclass(frozen=True)
class PlanStats:
    """Size and provenance counters of one compiled plan."""

    input_shape: Tuple[int, ...]
    traced_ops: int
    steps: int
    folded: int
    pruned: int
    workspace_bytes: int
    #: Step count after folding/pruning but before elementwise-chain fusion.
    steps_unfused: int = 0
    #: Length of every fused chain (sorted); empty when fusion was off or
    #: found nothing.
    fused_chain_lengths: Tuple[int, ...] = field(default=())
    #: Execution precision of the plan's constants and workspace buffers.
    dtype: str = "float64"

    @property
    def fused_chains(self) -> int:
        """Number of elementwise chains collapsed into fused steps."""
        return len(self.fused_chain_lengths)

    @property
    def fused_chain_histogram(self) -> Dict[int, int]:
        """Chain length -> number of chains of that length."""
        histogram: Dict[int, int] = {}
        for length in self.fused_chain_lengths:
            histogram[length] = histogram.get(length, 0) + 1
        return histogram

    def __str__(self) -> str:
        fused = ""
        if self.fused_chain_lengths:
            histogram = ", ".join(
                f"{length}x{count}" for length, count in sorted(self.fused_chain_histogram.items())
            )
            fused = f", fused={self.steps_unfused}->{self.steps} (chains {histogram})"
        return (
            f"Plan(input={self.input_shape}, dtype={self.dtype}, steps={self.steps}, "
            f"folded={self.folded}, pruned={self.pruned}, "
            f"workspace={self.workspace_bytes / 1024:.1f} KiB{fused})"
        )


@dataclass(frozen=True)
class PlanCacheInfo:
    """Provenance counters of a :class:`CompiledModel`'s plan cache.

    ``compiles`` counts plans built by tracing the module; ``artifact_loads``
    counts plans rebuilt from the artifact store without any trace/fuse/
    pooling work.  A warm-started worker therefore shows
    ``compiles == 0`` — the machine-checkable "zero retraces" contract of
    the cold-start benchmarks and the CI round-trip job.
    """

    plans: int
    compiles: int
    artifact_loads: int
    artifact_rejects: int
    artifact_saves: int
    #: Plans statically verified under ``REPRO_RUNTIME_VERIFY=1`` (one per
    #: fresh compile while the gate is on; artifact loads verify in the
    #: store — see :class:`~repro.runtime.artifacts.ArtifactStoreStats`).
    verifies: int = 0
    #: One-row traces run only to size a replay tile (the traced plan is
    #: not kept); needed when the first batch of a shape has several rows
    #: and no one-row plan is cached.
    tile_probes: int = 0


@dataclass(frozen=True)
class StepSpec:
    """One plan step in backend-neutral, serialisable form.

    ``kwargs`` holds only plain data (scalars, tuples, ndarrays, sparse
    constants) — kernel *functions* are never stored.  Fused steps keep
    their chain as unbound ``(name, operand_refs, kwargs)`` instructions;
    :func:`bind_plan` resolves every name through
    :data:`repro.tensor.kernels.KERNELS` at bind time, which is what makes
    a plan loadable in a process that never ran the trace.
    """

    name: str
    in_slots: Tuple[int, ...]
    kwargs: Dict
    out_slot: int
    #: Shape of the step output at trace time (the buffer view shape).
    out_shape: Tuple[int, ...]
    #: Pooled workspace storage id, or ``None`` for view/alloc steps.
    storage: Optional[int] = None


@dataclass
class PlanSpec:
    """The complete, serialisable description of one compiled plan.

    Everything :class:`Plan` execution needs *except* live memory: the step
    list (with fused chains unbound), the pooled workspace layout as
    ``storage_sizes`` (storage id -> byte size; steps reference storages by
    id, so the liveness-pooled aliasing structure survives serialisation),
    the slot-table geometry and the :class:`PlanStats`.  Together with the
    constant slot values (cast to the plan dtype) this rebuilds a
    bit-identical plan via :func:`bind_plan` — the foundation of the
    on-disk plan artifacts in :mod:`repro.runtime.artifacts`.
    """

    dtype: str
    input_slot: int
    output_slot: int
    num_slots: int
    #: Slots whose values are plan constants (parameters, folded values).
    const_slots: Tuple[int, ...]
    steps: List[StepSpec]
    #: storage id -> byte size of the pooled workspace allocation.
    storage_sizes: List[int]
    stats: PlanStats


#: Alignment of every pooled storage inside an externally supplied plan
#: workspace (matches the artifact pack alignment, so views stay
#: cache-line aligned wherever the buffer lives — heap or shared memory).
WORKSPACE_ALIGN = 64


def plan_workspace_nbytes(storage_sizes: Sequence[int]) -> int:
    """Bytes an external workspace must provide for one plan's storages.

    The layout is deterministic: storages are carved out in id order, each
    starting on a :data:`WORKSPACE_ALIGN` boundary — exactly what
    :func:`bind_plan` does with its ``workspace=`` argument.  Callers
    preallocating shared-memory segments size them with this.
    """
    total = 0
    for nbytes in storage_sizes:
        total += (-total) % WORKSPACE_ALIGN
        total += int(nbytes)
    return total


def bind_plan(
    spec: PlanSpec,
    values: List[Optional[np.ndarray]],
    workspace: Optional[np.ndarray] = None,
) -> "Plan":
    """Materialise a :class:`Plan` from its spec and constant slot table.

    Allocates the pooled workspace storages described by
    ``spec.storage_sizes``, views each buffered step's output into its
    assigned storage at the plan dtype, and binds every step (and fused
    chain instruction) to its kernel by name.  ``values`` must be the full
    slot table with the constants filled in (non-constant slots ``None``);
    it is used as the plan's live slot table, not copied.

    ``workspace`` — a flat ``uint8`` buffer of at least
    :func:`plan_workspace_nbytes` bytes — replaces the heap allocation:
    storages become :data:`WORKSPACE_ALIGN`-aligned views *into the given
    buffer*, so a plan can execute entirely inside a
    ``multiprocessing.shared_memory`` segment and its outputs are published
    to other processes without a copy (the process-tier hand-off in
    :mod:`repro.serving.process_tier`).  Buffer placement never changes the
    arithmetic, so a workspace-bound plan stays bit-identical to a
    heap-bound one.

    Raises :class:`KeyError` when a step names a kernel this build does not
    provide — an artifact from an incompatible library version; callers
    loading artifacts treat that as a validation failure and recompile.
    """
    if len(values) != spec.num_slots:
        raise ValueError(
            f"slot table has {len(values)} entries; plan spec expects {spec.num_slots}"
        )
    dtype = np.dtype(spec.dtype)
    if workspace is None:
        storages = [np.empty(nbytes, dtype=np.uint8) for nbytes in spec.storage_sizes]
    else:
        workspace = np.asarray(workspace)
        if workspace.ndim != 1 or workspace.dtype != np.uint8:
            raise ValueError(
                f"workspace must be a flat uint8 buffer; got {workspace.dtype} "
                f"with shape {workspace.shape}"
            )
        if not workspace.flags.writeable:
            raise ValueError(
                "workspace buffer is read-only; plan replay writes every "
                "pooled storage in place"
            )
        if not workspace.flags.c_contiguous:
            raise ValueError(
                "workspace buffer is not contiguous; the 64-byte storage "
                "carving assumes a dense byte range"
            )
        needed = plan_workspace_nbytes(spec.storage_sizes)
        if workspace.nbytes < needed:
            raise ValueError(
                f"workspace of {workspace.nbytes} bytes is smaller than the "
                f"plan's {needed}-byte storage layout "
                f"({len(spec.storage_sizes)} storages at "
                f"{WORKSPACE_ALIGN}-byte alignment)"
            )
        storages = []
        offset = 0
        for nbytes in spec.storage_sizes:
            offset += (-offset) % WORKSPACE_ALIGN
            storages.append(workspace[offset : offset + int(nbytes)])
            offset += int(nbytes)
    steps: List[Tuple] = []
    for step in spec.steps:
        if step.name not in K.KERNELS:
            raise KeyError(f"plan step names unknown kernel {step.name!r}")
        kwargs = step.kwargs
        if step.name == "fused_elementwise":
            for name, _refs, _kw in step.kwargs["chain"]:
                if name not in K.KERNELS:
                    raise KeyError(f"fused chain names unknown kernel {name!r}")
            kwargs = {
                "chain": tuple(
                    (name, K.KERNELS[name], tuple(refs), kw)
                    for name, refs, kw in step.kwargs["chain"]
                )
            }
        buffer = None
        if step.storage is not None:
            buffer = storages[step.storage].view(dtype).reshape(step.out_shape)
        steps.append((K.KERNELS[step.name], step.in_slots, kwargs, step.out_slot, buffer))
    plan = Plan(steps, values, spec.input_slot, spec.output_slot, spec.stats, dtype=dtype)
    plan.spec = spec
    return plan


class Plan:
    """One compiled forward pass, specialised to a single input shape.

    Parameters
    ----------
    steps:
        ``(kernel, input_slots, kwargs, out_slot, buffer)`` tuples in
        execution order.  ``buffer`` is the preallocated output array, or
        ``None`` for view-producing kernels.
    values:
        Slot table with constants prefilled; intermediate slots are
        overwritten on every call.
    input_slot / output_slot:
        Where the caller's array goes in and where the result comes out.

    All steps share one workspace, so executions of the same plan are
    serialised by a per-plan lock (:meth:`call`); different plans — and
    therefore different input shapes — run concurrently.  :meth:`execute`
    is the raw, unlocked replay for single-threaded callers.

    ``dtype`` is the plan's execution precision.
    """

    def __init__(
        self,
        steps: List[Tuple],
        values: List,
        input_slot: int,
        output_slot: int,
        stats: PlanStats,
        dtype=np.float64,
    ) -> None:
        self._steps = steps
        self._values = values
        self._input_slot = input_slot
        self._output_slot = output_slot
        self.dtype = np.dtype(dtype)
        # Slots rewritten on every run: the input and each step output
        # (including views of the input).  Cleared after a locked call so an
        # idle plan holds only its constants and pooled buffers, not the
        # last batch it served.
        self._transient_slots = [input_slot] + [step[3] for step in steps]
        self._exec_lock = threading.Lock()
        self.stats = stats
        #: The serialisable :class:`PlanSpec` this plan was bound from
        #: (set by the compiler / :func:`bind_plan`); what
        #: :mod:`repro.runtime.artifacts` persists.
        self.spec: Optional[PlanSpec] = None
        #: Set on artifact-loaded plans that have not yet served a
        #: parity-validated result; :class:`CompiledModel` checks row 0 of
        #: the first result against the autograd forward *before returning
        #: it* and clears the flag (or rejects the plan and recompiles).
        #: Deferring the check onto the first real result keeps the warm
        #: start to one plan execution instead of two.
        self.pending_parity = False

    def constants(self) -> Dict[int, np.ndarray]:
        """Constant slot values (already cast to the plan dtype), by slot.

        Constants survive the per-call transient-slot clearing, so this is
        valid at any time; it is the value half of what an artifact saves
        (the structure half being :attr:`spec`).
        """
        if self.spec is None:
            raise ValueError("plan carries no spec; it was not built by the compiler")
        return {slot: self._values[slot] for slot in self.spec.const_slots}

    def execute(self, array: np.ndarray) -> np.ndarray:
        """Run the plan in trace order; the result may alias workspace
        (copy to retain)."""
        values = self._values
        values[self._input_slot] = array
        for kernel, in_slots, kwargs, out_slot, buffer in self._steps:
            values[out_slot] = kernel(*[values[i] for i in in_slots], out=buffer, **kwargs)
        return values[self._output_slot]

    def call(self, array: np.ndarray, trim: Optional[int] = None) -> np.ndarray:
        """Thread-safe execution returning a fresh float64 output copy.

        ``trim`` keeps only the first ``trim`` rows of the result — the
        slice-back half of batch bucketing, taken before the copy so a
        padded batch never materialises its padding rows twice.  A
        reduced-precision plan casts its output back to float64 here (the
        exit half of the precision policy; the cast replaces the copy, so
        it is free).

        References to the caller's input (and all per-run step outputs) are
        dropped from the slot table after the run so an idle plan does not
        pin the last batch it served.
        """
        with self._exec_lock:
            try:
                result = self.execute(array)
                if trim is not None:
                    result = result[:trim]
                # astype always copies here, so both branches detach the
                # result from the reused workspace.
                result = (
                    result.copy()
                    if result.dtype == np.float64
                    else result.astype(np.float64)
                )
            finally:
                values = self._values
                for slot in self._transient_slots:
                    values[slot] = None
            return result


class CompiledModel:
    """Graph-free inference wrapper around a :class:`~repro.nn.Module`.

    The first call for each input shape traces the module's forward pass
    and compiles it to a :class:`Plan`; later calls with the same shape
    replay the plan on raw arrays.  Outputs are returned as fresh copies so
    they never alias the reused workspace.

    Weights are captured **by reference** at compile time, but constant
    folding bakes derived values (embedding lookups, learned adjacencies)
    into the plan — after mutating parameters call :meth:`recompile`.

    The plan cache is a small LRU over input shapes (``max_plans``): a
    micro-batcher produces coalesced batches of many different sizes under
    bursty traffic, and each plan owns workspace proportional to its batch,
    so an unbounded cache would grow memory for the life of the service.
    **Batch bucketing** bounds what that cache has to hold: ragged batches
    are padded along axis 0 up to the next power-of-two bucket (by
    replicating the first row — always finite, and sliced back off the
    output), so the LRU sees O(log max_batch) distinct shapes instead of
    one per observed size.  Disable or cap it with ``bucket_batches`` or
    the ``REPRO_RUNTIME_BUCKETS`` environment variable (see
    :func:`resolve_bucket_cap`); batches above the cap serve exact-shape
    plans.

    **Replay tiles** bound it from above: a batch larger than the tile —
    the largest power-of-two row count whose widest step output fits
    :data:`TILE_BUDGET_BYTES`, read from the one-row plan — is served by
    replaying the tile plan over consecutive row tiles, so the working set
    of every replay stays cache-sized and no plan bigger than the tile is
    ever compiled.  The model forward is batch-invariant (see
    :func:`repro.tensor.ops.tensordot_last`), so tiling never changes a bit.

    ``precision`` selects the plans' execution dtype (see ``docs/runtime.md``
    §Precision): ``"float64"`` — the default, bit-identical to autograd — or
    ``"float32"`` for ~2x memory bandwidth; overridable per call, defaulting
    to the ``REPRO_RUNTIME_PRECISION`` environment variable.

    **Plan artifacts** (``artifact_dir=``, a directory or a shared
    :class:`~repro.runtime.artifacts.ArtifactStore`) make compiles durable:
    plan-cache misses first try to rebuild the plan from a stored artifact
    (trace-hash keyed, checksum- and parity-validated, falling back to
    compiling on any mismatch) and fresh compiles are written through, so a
    restarted process — or the N workers of a sharded service — trace each
    shape once ever instead of once per process.  See
    ``docs/runtime.md`` §Plan artifacts.

    Example
    -------
    >>> compiled = CompiledModel(model)          # switches model to eval
    >>> forecast = compiled(window[None])        # (1, T', N) ndarray
    >>> assert np.allclose(forecast, model(Tensor(window[None])).data)
    """

    def __init__(
        self,
        module,
        fold_constants: bool = True,
        max_plans: int = 16,
        fuse: bool = True,
        bucket_batches: Union[None, bool, int] = None,
        precision: Union[None, str, np.dtype] = None,
        artifact_dir=None,
    ) -> None:
        if max_plans <= 0:
            raise ValueError("max_plans must be positive")
        module.eval()
        self._module = module
        self._fold_constants = fold_constants
        self._fuse = fuse
        self._bucket_cap = resolve_bucket_cap(bucket_batches)
        self._dtype = resolve_precision(precision)
        self._max_plans = max_plans
        self._plans: "OrderedDict[Tuple, Plan]" = OrderedDict()
        # Per-trailing-shape output shapes learned from the first empty-batch
        # probe, so repeated B == 0 calls answer without running the model.
        self._empty_output_shapes: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        # Replay tile rows per (trailing shape, dtype name); see tile_rows.
        self._tiles: Dict[Tuple, int] = {}
        self._lock = threading.Lock()
        self._artifacts = self._as_store(artifact_dir)
        # Weights content hash keying artifacts; computed lazily, dropped on
        # recompile() (the declared way to pick up mutated parameters).
        self._weights_fp: Optional[str] = None
        self._compiles = 0
        self._artifact_loads = 0
        self._artifact_rejects = 0
        self._artifact_saves = 0
        self._verifies = 0
        self._tile_probes = 0

    @staticmethod
    def _as_store(artifact_dir):
        if artifact_dir is None:
            return None
        from .artifacts import ArtifactStore

        if isinstance(artifact_dir, ArtifactStore):
            return artifact_dir
        return ArtifactStore(artifact_dir)

    @property
    def module(self):
        """The wrapped module (left in evaluation mode)."""
        return self._module

    @property
    def precision(self) -> str:
        """Default execution precision policy (``"float64"`` / ``"float32"``)."""
        return self._dtype.name

    @property
    def bucket_cap(self) -> Optional[int]:
        """Largest padded batch bucket (``None`` when bucketing is disabled)."""
        return self._bucket_cap

    @staticmethod
    def _plan_key(shape: Tuple[int, ...], dtype: np.dtype) -> Tuple:
        """Plan-cache key: input shape and execution dtype.

        The dtype tag keeps a float32 plan and the float64 SLA plan of the
        same batch shape disjoint (they differ in every constant and
        buffer).
        """
        return (shape, dtype.name)

    def _resolve_call_dtype(self, precision) -> np.dtype:
        return self._dtype if precision is None else resolve_precision(precision)

    def __call__(self, x, precision: Union[None, str, np.dtype] = None) -> np.ndarray:
        """Forward ``x`` (Tensor or array-like); returns a fresh float64 ndarray.

        ``precision`` overrides the model's default policy for this call
        only — the per-request escape hatch back to the bit-exact float64
        path (or down to float32) without a second :class:`CompiledModel`.
        The input is cast to the plan dtype on entry (a float32 input under
        a float32 policy is served zero-copy, never bounced through
        float64) and the output is cast back to float64 on exit.

        Ragged batch sizes are padded up to their bucket and the output
        sliced back, so callers (micro-batcher, serving paths) can pass any
        batch through unchanged; a batch above the replay tile is served
        tile by tile (the last, ragged tile padded to its own bucket).  The
        model-wide lock only guards plan-cache lookups and inserts — never
        a compile and never an execution — so requests for already compiled
        shapes proceed while a new shape compiles, and requests with
        different batch shapes run concurrently (their workspaces are
        disjoint; same-shape requests serialise on the plan's own lock).

        Edge shapes are hardened rather than special plans: an empty batch
        (``B == 0``) replays the single-row bucket plan on a probe row and
        trims everything back off — tracing a degenerate ``(0, ...)`` shape
        or letting it churn the plan LRU would buy nothing — and a batch
        above the bucket cap (but within the tile) runs an exact-shape plan
        (see :func:`pad_batch_to_bucket`).
        """
        dtype = self._resolve_call_dtype(precision)
        array = x.data if isinstance(x, Tensor) else np.asarray(x)
        if array.dtype != dtype:
            array = array.astype(dtype)
        if array.ndim > 0 and array.shape[0] == 0:
            tail = array.shape[1:]
            known = self._empty_output_shapes.get(tail)
            if known is not None:
                return np.empty((0,) + known, dtype=np.float64)
            probe = np.zeros((1,) + tail, dtype=dtype)
            result = self._get_or_compile(probe).call(probe, trim=0)
            self._empty_output_shapes[tail] = result.shape[1:]
            return result
        if array.ndim > 0 and array.shape[0] > 1:
            tile = self.tile_rows(array.shape, dtype)
            if array.shape[0] > tile:
                return np.concatenate(
                    [self._serve(array[start : start + tile]) for start in range(0, array.shape[0], tile)],
                    axis=0,
                )
        return self._serve(array)

    def _serve(self, array: np.ndarray) -> np.ndarray:
        """Replay the bucketed plan for a batch of at most one tile."""
        array, trim = self._pad_to_bucket(array)
        plan = self._get_or_compile(array)
        result = plan.call(array, trim=trim)
        if plan.pending_parity:
            result = self._confirm_parity(plan, array, result, trim)
        return result

    def _pad_to_bucket(self, array: np.ndarray) -> Tuple[np.ndarray, Optional[int]]:
        """Pad axis 0 up to this model's bucket; see :func:`pad_batch_to_bucket`."""
        return pad_batch_to_bucket(array, self._bucket_cap)

    def tile_rows(self, shape: Tuple[int, ...], precision: Union[None, str, np.dtype] = None) -> int:
        """The replay tile serving inputs of ``shape`` (its batch axis is ignored).

        Batches up to this many rows replay one (bucketed) plan; larger ones
        replay the tile plan over row tiles.  Sized once per trailing shape
        and dtype from the one-row plan: the cached one when it exists, else
        a one-row *probe* trace whose plan is dropped (counted in
        :attr:`PlanCacheInfo.tile_probes`, never in ``compiles``, and kept
        out of the plan LRU and the artifact store).  The process tier cuts
        its jobs at this size so workers bind the plans the parent warmed.
        """
        dtype = self._resolve_call_dtype(precision)
        memo = (tuple(int(dim) for dim in shape[1:]), dtype.name)
        tile = self._tiles.get(memo)
        if tile is not None:
            return tile
        row = np.zeros((1,) + memo[0], dtype=dtype)
        with self._lock:
            plan = self._plans.get(self._plan_key(row.shape, dtype))
        if plan is None:
            plan = self._trace(row)
            with self._lock:
                self._tile_probes += 1
        tile = replay_tile(plan_row_bytes(plan.spec))
        with self._lock:
            self._tiles[memo] = tile
        return tile

    def _get_or_compile(self, array: np.ndarray) -> Plan:
        """Fetch the plan for ``array.shape``, compiling outside the cache lock.

        The array's dtype *is* the plan dtype (the caller cast on entry).
        Two threads racing on the same fresh shape may both compile; the
        first insert wins and the duplicate is dropped — wasted work, never
        wrong results, and no stall for shapes that are already cached.

        With an artifact store attached, a cache miss first tries to rebuild
        the plan from a stored artifact (validated by trace hash and
        integrity checksum here, plus a one-row parity spot check against
        the autograd forward on the first result it serves — any failure
        falls back to compiling), and every freshly compiled plan is written
        through to the store so sibling workers and future processes skip
        the trace.
        """
        key = self._plan_key(array.shape, array.dtype)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                return plan
        plan = self._load_artifact(array) if self._artifacts is not None else None
        if plan is None:
            plan = self._compile(array)
            with self._lock:
                self._compiles += 1
            if self._artifacts is not None:
                self._publish(plan)
        with self._lock:
            existing = self._plans.get(key)
            if existing is not None:
                self._plans.move_to_end(key)
                return existing
            self._plans[key] = plan
            while len(self._plans) > self._max_plans:
                self._plans.popitem(last=False)
            return plan

    # ------------------------------------------------------------------
    def _trace(self, array: np.ndarray) -> Plan:
        from .compiler import compile_plan

        return compile_plan(
            self._module,
            array,
            fold_constants=self._fold_constants,
            fuse=self._fuse,
            dtype=array.dtype,
        )

    def _compile(self, array: np.ndarray) -> Plan:
        plan = self._trace(array)
        from .verify import verify_enabled

        if verify_enabled():
            # A finding on a fresh compile is a compiler bug, and there is
            # no safe fallback — refuse to serve the plan.
            from .verify import VerifyError, verify_plan

            report = verify_plan(plan)
            with self._lock:
                self._verifies += 1
            if not report.ok:
                raise VerifyError(report)
        return plan

    # ------------------------------------------------------------------
    # Plan artifacts (see repro.runtime.artifacts and docs/runtime.md)
    # ------------------------------------------------------------------
    @property
    def artifact_store(self):
        """The attached :class:`~repro.runtime.artifacts.ArtifactStore`, if any."""
        return self._artifacts

    def _trace_key(self, shape: Tuple[int, ...], dtype: np.dtype) -> str:
        """Artifact key for one trace; caches the weights fingerprint."""
        from .artifacts import trace_hash, weights_fingerprint

        with self._lock:
            fingerprint = self._weights_fp
        if fingerprint is None:
            fingerprint = weights_fingerprint(self._module)
            with self._lock:
                self._weights_fp = fingerprint
        return trace_hash(
            self._module,
            shape,
            dtype,
            fold_constants=self._fold_constants,
            fuse=self._fuse,
            bucket_cap=self._bucket_cap,
            weights=fingerprint,
        )

    def _artifact_meta(self) -> Dict[str, str]:
        module = self._module
        return {
            "module": f"{type(module).__module__}.{type(module).__qualname__}",
            "weights": self._weights_fp or "",
        }

    def _confirm_parity(self, plan: Plan, array: np.ndarray, result: np.ndarray, trim) -> np.ndarray:
        """Validate the first result served by an artifact-loaded plan.

        Row 0 of ``result`` is compared against the autograd forward of
        ``array``'s row 0 *before the result is returned* — an unvalidated
        artifact never answers a request — and piggybacking on the result
        the request computed anyway keeps the warm start to one plan
        execution plus one 1-row autograd forward.  On a mismatch the plan
        is discarded (the store entry with it) and the request is served by
        a fresh compile.

        Float64 plans must agree to near machine precision; float32 plans
        to the documented tolerance contract (rtol = atol = 1e-4).  The
        hair of float64 tolerance is deliberate: BLAS may pick a different
        (equally valid) accumulation order for the 1-row autograd GEMM than
        for the batched plan kernel.  Real corruption (wrong constants,
        stale weights smuggled past the hash) is orders of magnitude
        outside either band.
        """
        if result.shape[0] == 0:
            return result  # empty-batch probe: nothing to check, stay pending
        row = np.ascontiguousarray(array[:1], dtype=np.float64)
        expected = self._module(Tensor(row)).data[0]
        got = result[0]
        if plan.dtype == np.float64:
            tolerance = dict(rtol=1e-9, atol=1e-12)
        else:
            tolerance = dict(rtol=1e-4, atol=1e-4)
        if got.shape == expected.shape and bool(
            np.allclose(got, expected, equal_nan=True, **tolerance)
        ):
            plan.pending_parity = False
            return result
        # Rejected: drop the plan and its artifact, serve a fresh compile.
        key = self._plan_key(array.shape, array.dtype)
        with self._lock:
            self._artifact_rejects += 1
            self._artifact_loads -= 1
            if self._plans.get(key) is plan:
                del self._plans[key]
        if self._artifacts is not None:
            self._artifacts.forget(self._trace_key(array.shape, array.dtype))
        fresh = self._compile(array)
        with self._lock:
            self._compiles += 1
        if self._artifacts is not None:
            self._publish(fresh)
        with self._lock:
            if key not in self._plans:
                self._plans[key] = fresh
                while len(self._plans) > self._max_plans:
                    self._plans.popitem(last=False)
        return fresh.call(array, trim=trim)

    def _load_artifact(self, array: np.ndarray) -> Optional[Plan]:
        """Rebuild the plan for ``array`` from the store, or ``None``.

        Every validation failure — unreadable/corrupted/stale file, unknown
        kernel name, shape/dtype mismatch — lands here as a rejection: the
        bad entry is dropped from the store's memo and the caller compiles
        instead.  Artifacts accelerate, never gate.  The surviving plan is
        still marked :attr:`Plan.pending_parity`: row 0 of the first result
        it computes is checked against the autograd forward before being
        served (see :meth:`_confirm_parity`), which catches corruption the
        structural checks cannot — without a throwaway warm-up execution.
        """
        from .artifacts import ArtifactError

        key = self._trace_key(array.shape, array.dtype)
        try:
            loaded = self._artifacts.load(key)
            if loaded is None:
                return None
            spec, values, _meta = loaded
            if spec.dtype != array.dtype.name or tuple(spec.stats.input_shape) != array.shape:
                raise ArtifactError(
                    f"artifact {key} describes shape {spec.stats.input_shape} dtype "
                    f"{spec.dtype}; requested {array.shape} {array.dtype.name}"
                )
            plan = bind_plan(spec, values)
        except (ArtifactError, KeyError, ValueError):
            with self._lock:
                self._artifact_rejects += 1
            self._artifacts.forget(key)
            return None
        plan.pending_parity = True
        with self._lock:
            self._artifact_loads += 1
        return plan

    def _publish(self, plan: Plan) -> None:
        """Write a freshly compiled plan through to the attached store."""
        from .artifacts import ArtifactError

        if plan.spec is None:
            return
        key = self._trace_key(plan.spec.stats.input_shape, np.dtype(plan.spec.dtype))
        try:
            self._artifacts.save(key, plan.spec, plan.constants(), meta=self._artifact_meta())
        except ArtifactError:
            return  # plan kwargs this store cannot serialise; fast-path unavailable
        with self._lock:
            self._artifact_saves += 1

    def save_artifacts(self, path=None) -> List:
        """Persist every cached plan as an on-disk artifact.

        ``path`` may be a directory or an
        :class:`~repro.runtime.artifacts.ArtifactStore`; omitted, the store
        attached at construction (``artifact_dir=``) is used.  Returns the
        written paths.  This is the AOT half of warm starts: compile (or
        :meth:`compile_for`) the shapes you serve, save, and any fresh
        process pointed at the same directory binds the plans without a
        single trace.
        """
        store = self._as_store(path) if path is not None else self._artifacts
        if store is None:
            raise ValueError(
                "no artifact store: pass save_artifacts(path) or construct "
                "the model with artifact_dir="
            )
        with self._lock:
            plans = list(self._plans.values())
        written = []
        for plan in plans:
            if plan.spec is None:
                continue
            key = self._trace_key(plan.spec.stats.input_shape, np.dtype(plan.spec.dtype))
            result = store.save(key, plan.spec, plan.constants(), meta=self._artifact_meta())
            with self._lock:
                self._artifact_saves += 1
            if result is not None:
                written.append(result)
        return written

    def cache_info(self) -> PlanCacheInfo:
        """Plan-cache provenance counters (see :class:`PlanCacheInfo`)."""
        with self._lock:
            return PlanCacheInfo(
                plans=len(self._plans),
                compiles=self._compiles,
                artifact_loads=self._artifact_loads,
                artifact_rejects=self._artifact_rejects,
                artifact_saves=self._artifact_saves,
                verifies=self._verifies,
                tile_probes=self._tile_probes,
            )

    def compile_for(self, example, precision: Union[None, str, np.dtype] = None) -> PlanStats:
        """Eagerly compile the plan that would serve ``example``'s shape.

        The example is precision-cast, cut to the replay tile and bucketed
        exactly like a live request, so the returned stats describe the plan
        requests of this size (and policy) will hit — for a batch above the
        tile, the tile plan.
        """
        return self._get_or_compile(self._plan_input(example, precision)).stats

    def _plan_input(self, example, precision) -> np.ndarray:
        """``example`` cast, cut to its replay tile and bucket-padded."""
        dtype = self._resolve_call_dtype(precision)
        array = example.data if isinstance(example, Tensor) else np.asarray(example)
        if array.dtype != dtype:
            array = array.astype(dtype)
        if array.ndim > 0 and array.shape[0] > 1:
            array = array[: self.tile_rows(array.shape, dtype)]
        return self._pad_to_bucket(array)[0]

    def artifact_key(self, shape: Tuple[int, ...], precision: Union[None, str, np.dtype] = None) -> str:
        """The artifact trace hash serving an (already bucketed) input shape.

        This is the name under which :meth:`save_artifacts` / the
        write-through publish stores the plan — the lookup handle a
        *different process* (a forked shard worker) uses to bind the same
        plan from a shared :class:`~repro.runtime.artifacts.ArtifactStore`
        without ever seeing this model object.
        """
        dtype = self._resolve_call_dtype(precision)
        return self._trace_key(tuple(int(dim) for dim in shape), dtype)

    def ensure_validated(self, example, precision: Union[None, str, np.dtype] = None) -> PlanStats:
        """Ensure a parity-confirmed plan exists for ``example``'s shape.

        Like :meth:`compile_for`, but an artifact-loaded plan is also taken
        through its deferred row-0 parity spot check here (executing the
        example once), instead of on the first live request.  The process
        tier calls this before telling worker processes to bind a key: a
        child replays plans blindly, so every artifact it may bind must
        already be spot-checked — or rejected and republished — by the
        parent.
        """
        array = self._plan_input(example, precision)
        plan = self._get_or_compile(array)
        if plan.pending_parity:
            probe = np.ascontiguousarray(array)
            result = plan.call(probe, trim=None)
            self._confirm_parity(plan, probe, result, None)
            # A failed check replaced the plan (and its artifact) with a
            # fresh compile; re-fetch whichever plan now serves the shape.
            plan = self._get_or_compile(array)
        return plan.stats

    def recompile(self) -> None:
        """Drop all cached plans (required after parameter updates)."""
        with self._lock:
            self._plans.clear()
            self._empty_output_shapes.clear()
            # Weights changed (that is what recompile signals), so the old
            # fingerprint — and any artifact keyed by it — no longer applies.
            self._weights_fp = None

    def plan_stats(self) -> List[PlanStats]:
        """Stats of every cached plan (one per input shape seen)."""
        with self._lock:
            return [plan.stats for plan in self._plans.values()]

    def __repr__(self) -> str:
        with self._lock:
            shapes = sorted(self._plans)
        return f"CompiledModel({type(self._module).__name__}, plans={shapes})"
