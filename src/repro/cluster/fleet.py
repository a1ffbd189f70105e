"""Structure-of-arrays state for simulating large worker fleets.

The per-worker hot paths — compute-time pricing, straggler draws, EF-SGD
memory updates, byte accounting — were all written as Python loops over
worker objects, which is fine at the paper's 19 workers and hopeless at the
ROADMAP's 1k–10k.  This module keeps the worker *objects* as the API surface
(they still own samplers and identities, and a model replica once something
reads it — the batched kernel below reads one, the replica loop of exact
compute reads each) but mirrors the numeric per-worker state into contiguous
numpy arrays, so each fleet-wide operation is one vectorised call instead of
``n`` Python ones.

Three pieces live here:

:class:`FleetState`
    The SoA mirror: worker ids, speeds, effective GFLOP/s, batch sizes, the
    most recent straggler draw, and the EF-SGD error-feedback store: one
    ``(n, d)`` residual matrix plus a has-memory mask, the only place a
    worker's codec residual lives.  Every encode path indexes it by fleet
    row — the lock-step codec stage over all rows, the async run handlers
    over the run's rows, the scalar per-event encode over one — and
    checkpoints read and write it as ``{worker_id: residual}`` through
    :meth:`FleetState.state_dict` / :meth:`FleetState.load_state_dict`.

:class:`FleetComputeKernel`
    An opt-in batched gradient kernel (``compute_mode="fleet"``): all honest
    workers' mini-batches are stacked into one forward pass over a single
    scratch replica, and the backward pass keeps per-worker parameter
    gradients via batched einsums instead of ``n`` separate backprops.  The
    kernel supports Dense/Conv2D/ResidualBlock chains (convolutions are
    lowered to im2col so per-worker weight grads come from one contraction)
    interleaved with per-sample stateless layers, under the two built-in
    losses (each worker's loss normalised by its own batch, through the
    losses' ``stacked`` form); anything else falls back to exact compute.
    Fleet compute is *statistically equivalent* to the per-worker path
    (same batches, same estimator, deterministic under the same seeds) but
    not bitwise identical — summation orders differ — which is why the
    default ``compute_mode="exact"`` never uses it.  Exact compute has a
    stacked form of its own that *is* bitwise identical, for ``Dense``
    chains only: :meth:`~repro.nn.model.Sequential.stacked_loss_and_gradients`
    runs each ``Dense`` as one ``np.matmul`` over the per-worker slices (the
    gemm each replica would call) where this kernel contracts the stacked
    batch with einsums.

:class:`PendingPool`
    The async trainer's admission buffer in SoA form: at most one pending
    gradient per worker, scalar fields in parallel arrays and payloads as
    rows of one ``(capacity, d)`` matrix with free-list row recycling, so
    the stale rescan, the Byzantine observation stack and the drain-to-batch
    sort are single vectorised calls instead of per-entry dict traversals.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.cluster.cost_model import CostModel, StragglerModel
from repro.cluster.worker import HonestWorker
from repro.exceptions import ConfigurationError
from repro.nn.layers.activations import LeakyReLU, ReLU, Sigmoid, Tanh
from repro.nn.layers.conv import Conv2D, col2im
from repro.nn.layers.dense import Dense
from repro.nn.layers.pooling import AvgPool2D, GlobalAvgPool2D, MaxPool2D
from repro.nn.layers.reshape import Flatten
from repro.nn.layers.residual import ResidualBlock
from repro.nn.losses import MeanSquaredError, SoftmaxCrossEntropy
from repro.nn.model import Sequential

#: Activation layers whose backward is elementwise and therefore batches
#: transparently across stacked worker rows.
_ELEMENTWISE_LAYERS = (ReLU, LeakyReLU, Sigmoid, Tanh)

#: Parameter-free layers whose backward is per-sample (each output row
#: depends only on its own input row), so stacking workers along the batch
#: axis leaves their semantics untouched.
_STATELESS_LAYERS = _ELEMENTWISE_LAYERS + (
    MaxPool2D,
    AvgPool2D,
    GlobalAvgPool2D,
    Flatten,
)


class FleetState:
    """Contiguous numpy mirror of the honest fleet's numeric per-worker state.

    Parameters
    ----------
    workers:
        The honest workers, in trainer order (the order every per-worker
        loop iterates in — array row ``i`` is ``workers[i]`` everywhere).
    worker_gflops:
        Per-worker base GFLOP/s map (the trainer's heterogeneous hardware
        assignment), keyed by worker id.
    """

    #: Mirrors of what the worker objects were built with, and a draw that
    #: :meth:`sample_slowdowns` replaces before every read: a resumed run
    #: rebuilds them, only the error-feedback store is state.
    _CHECKPOINT_EXEMPT = ("workers", "speeds", "batch_sizes", "slowdowns")

    def __init__(
        self,
        workers: Sequence[HonestWorker],
        *,
        worker_gflops: Dict[int, float],
    ) -> None:
        if len(workers) == 0:
            raise ConfigurationError("FleetState needs at least one honest worker")
        self.workers: List[HonestWorker] = list(workers)
        self.num_workers = len(self.workers)
        self.worker_ids = np.array([w.worker_id for w in self.workers], dtype=np.intp)
        self.row_of: Dict[int, int] = {
            int(wid): i for i, wid in enumerate(self.worker_ids)
        }
        self.speeds = np.array([w.speed for w in self.workers], dtype=np.float64)
        self.batch_sizes = np.array(
            [w.batch_size for w in self.workers], dtype=np.float64
        )
        # Effective throughput: the cost model's per-worker hardware draw
        # scaled by the worker's persistent speed multiplier.
        self.gflops = (
            np.array(
                [worker_gflops[w.worker_id] for w in self.workers], dtype=np.float64
            )
            * self.speeds
        )
        #: Most recent straggler slowdown draw (ones before the first step).
        self.slowdowns = np.ones(self.num_workers, dtype=np.float64)
        #: EF-SGD residual rows (allocated by the first store or restore) and
        #: which of them hold a residual yet: read ``ef_memory[rows]`` only
        #: where the mask is set.
        self.ef_memory: Optional[np.ndarray] = None
        self.ef_has_memory = np.zeros(self.num_workers, dtype=bool)

    # ------------------------------------------------------------- timing
    def compute_times(self, cost_model: CostModel, flops_per_sample: float) -> np.ndarray:
        """Nominal per-worker gradient-computation seconds, in one pass.

        Elementwise over the fleet arrays with the exact arithmetic of
        :meth:`CostModel.gradient_compute_time`'s measured-FLOPs branch, so
        each entry is bit-identical to the per-worker scalar call.
        """
        if not flops_per_sample > 0:
            raise ConfigurationError(
                f"fleet compute-time pricing needs measured flops_per_sample > 0, "
                f"got {flops_per_sample}"
            )
        flops = 3.0 * flops_per_sample * self.batch_sizes
        return flops / (self.gflops * 1e9)

    def sample_slowdowns(
        self, straggler_model: Optional[StragglerModel], rng: np.random.Generator
    ) -> np.ndarray:
        """Draw (and remember) this step's straggler multipliers for the fleet."""
        if straggler_model is None:
            self.slowdowns = np.ones(self.num_workers, dtype=np.float64)
        else:
            self.slowdowns = straggler_model.sample(self.num_workers, rng)
        return self.slowdowns

    # ------------------------------------------------------- error feedback
    def remember_residuals(self, rows, residuals: np.ndarray) -> None:
        """Replace the EF residuals of *rows* (one fleet row, or an index array)."""
        if self.ef_memory is None:
            self.ef_memory = np.zeros((self.num_workers, np.shape(residuals)[-1]))
        self.ef_memory[rows] = residuals
        self.ef_has_memory[rows] = True

    def state_dict(self) -> Dict[int, np.ndarray]:
        """The EF store as ``{worker_id: residual copy}``, rows that hold one only."""
        return {
            int(self.worker_ids[row]): self.ef_memory[row].copy()
            for row in np.flatnonzero(self.ef_has_memory)
        }

    def load_state_dict(self, memory: Dict[int, np.ndarray], dim: int) -> None:
        """Replace the EF store with *memory*; absent workers carry nothing."""
        self.ef_has_memory[:] = False
        for worker_id, residual in memory.items():
            flat = np.asarray(residual, dtype=np.float64).ravel()
            if flat.size != dim:
                raise ConfigurationError(
                    f"error-feedback memory for worker {int(worker_id)} has size "
                    f"{flat.size}, expected {dim}"
                )
            self.remember_residuals(self.row_of[int(worker_id)], flat)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FleetState(n={self.num_workers})"


# --------------------------------------------------------------------------
# Batched gradient kernel
# --------------------------------------------------------------------------

def fleet_computable(model: Sequential) -> bool:
    """Whether :class:`FleetComputeKernel` can batch this model's gradients.

    Supported: chains of :class:`Dense`, :class:`Conv2D` and
    :class:`ResidualBlock` layers interleaved with parameter-free
    per-sample layers (activations, pooling, flatten), under softmax
    cross-entropy or MSE loss, with at least one parameterised layer.
    BatchNorm and Dropout are out — batch statistics and RNG-per-forward
    both break the stacked-batch equivalence.
    """
    if not isinstance(model.loss, (SoftmaxCrossEntropy, MeanSquaredError)):
        return False
    has_parameters = False
    for layer in model.layers:
        if isinstance(layer, (Dense, Conv2D, ResidualBlock)):
            has_parameters = True
        elif not isinstance(layer, _STATELESS_LAYERS):
            return False
    return has_parameters


class FleetComputeKernel:
    """One forward/backward pass computing every honest worker's gradient.

    The scratch *model* is a worker replica: its parameters are overwritten
    with the broadcast vector, its layer caches are consumed by the batched
    backward, and its accumulated grads are never touched (per-worker weight
    gradients are computed out-of-place with einsums).

    All workers must hold the same parameter vector and use the same batch
    size — the trainer gates on both before routing compute here.
    """

    def __init__(self, model: Sequential) -> None:
        if not fleet_computable(model):
            raise ConfigurationError(
                "fleet compute supports Dense/Conv2D/ResidualBlock models with "
                "per-sample stateless layers and softmax cross-entropy or MSE "
                f"loss; got {model.name!r}"
            )
        self.model = model
        # Flip every convolution (including those inside residual blocks) to
        # the im2col implementation: the cached column tensors are what the
        # batched backward contracts into per-worker weight gradients.  This
        # changes the scratch replica's summation order — covered by fleet
        # mode's statistically-equivalent contract.
        for conv in self._convolutions(model):
            conv.impl = "im2col"

    @staticmethod
    def _convolutions(model: Sequential):
        for layer in model.layers:
            if isinstance(layer, Conv2D):
                yield layer
            elif isinstance(layer, ResidualBlock):
                yield layer.conv1
                yield layer.conv2
                if layer.projection is not None:
                    yield layer.projection

    def compute(
        self,
        parameters: np.ndarray,
        batches_x: Sequence[np.ndarray],
        batches_y: Sequence[np.ndarray],
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-worker ``(losses, gradients)`` for stacked mini-batches.

        ``batches_x[i]`` / ``batches_y[i]`` is worker ``i``'s mini-batch;
        returns losses of shape ``(n,)`` and gradients of shape ``(n, d)``,
        row ``i`` being the same estimator worker ``i``'s own backprop would
        produce (up to floating-point summation order).  ``batches_x`` /
        ``batches_y`` may also be pre-stacked arrays with a leading
        ``(n, batch)`` — the shape one fleet-wide gather over a shared
        training set produces — which skips the per-worker concatenation.
        """
        model = self.model
        if isinstance(batches_x, np.ndarray) and batches_x.ndim >= 2:
            n, batch = int(batches_x.shape[0]), int(batches_x.shape[1])
            if n == 0 or np.asarray(batches_y).shape[0] != n:
                raise ConfigurationError(
                    "fleet compute needs matched, non-empty batches"
                )
            stacked_x = np.asarray(batches_x, dtype=np.float64).reshape(
                n * batch, *batches_x.shape[2:]
            )
            targets = np.asarray(batches_y)
        else:
            n = len(batches_x)
            if n == 0 or len(batches_y) != n:
                raise ConfigurationError(
                    "fleet compute needs matched, non-empty batches"
                )
            batch = int(np.asarray(batches_x[0]).shape[0])
            if any(np.asarray(x).shape[0] != batch for x in batches_x):
                raise ConfigurationError("fleet compute needs a uniform batch size")
            stacked_x = np.concatenate(
                [np.asarray(x, dtype=np.float64) for x in batches_x]
            )
            targets = np.stack([np.asarray(y) for y in batches_y])
        model.set_parameters(parameters)
        outputs = model.forward(stacked_x, training=True)

        # Each worker's loss normalises over its own batch: the stacked
        # gradient is the per-sample one divided by the per-worker size.
        losses, grad = model.loss.stacked(outputs.reshape(n, batch, *outputs.shape[1:]), targets)
        grad = grad.reshape(outputs.shape)

        # Batched backward: stateless layers reuse their stacked caches;
        # parameterised layers get per-worker weight/bias grads from one
        # einsum each, assembled in forward-layer parameter order.
        per_layer: List[List[np.ndarray]] = []
        for layer in reversed(model.layers):
            grad, chunks = self._layer_backward(layer, grad, n, batch)
            if chunks:
                per_layer.append(chunks)

        columns: List[np.ndarray] = []
        for chunks in reversed(per_layer):
            columns.extend(chunks)
        gradients = np.concatenate(columns, axis=1)

        if model.l2 > 0.0:
            params = model.get_parameters()
            losses = losses + 0.5 * model.l2 * float(params @ params)
            gradients = gradients + model.l2 * params
        return losses, gradients

    def _layer_backward(
        self, layer, grad: np.ndarray, n: int, batch: int
    ) -> Tuple[np.ndarray, List[np.ndarray]]:
        """One layer of the stacked backward pass.

        Returns ``(grad_input, chunks)`` where *chunks* holds this layer's
        per-worker parameter gradients — each ``(n, p_i)``, in the layer's
        own :meth:`parameters` order — and *grad_input* is the stacked
        ``(n*batch, ...)`` gradient to feed the previous layer.
        """
        if isinstance(layer, Dense):
            x = layer._cache_input.reshape(n, batch, layer.in_features)
            g = grad.reshape(n, batch, layer.out_features)
            chunks = [np.einsum("nbi,nbo->nio", x, g).reshape(n, -1)]
            if layer.bias is not None:
                chunks.append(g.sum(axis=1))
            return grad @ layer.weight.data.T, chunks
        if isinstance(layer, Conv2D):
            return self._conv_backward(layer, grad, n, batch)
        if isinstance(layer, ResidualBlock):
            g = layer.relu2.backward(grad)
            grad_main, chunks2 = self._conv_backward(layer.conv2, g, n, batch)
            grad_main = layer.relu1.backward(grad_main)
            grad_main, chunks1 = self._conv_backward(layer.conv1, grad_main, n, batch)
            chunks = chunks1 + chunks2
            if layer.projection is not None:
                grad_skip, chunks_p = self._conv_backward(layer.projection, g, n, batch)
                chunks += chunks_p
            else:
                grad_skip = g
            return grad_main + grad_skip, chunks
        # Parameter-free per-sample layer: the stacked backward is the
        # plain backward.
        return layer.backward(grad), []

    @staticmethod
    def _conv_backward(
        layer: Conv2D, grad: np.ndarray, n: int, batch: int
    ) -> Tuple[np.ndarray, List[np.ndarray]]:
        """Per-worker weight/bias grads and the input grad for one Conv2D.

        Contracts the layer's cached im2col columns against the output
        gradient with an ``n``-batched einsum (per-worker, out-of-place —
        the replica's accumulated grads are never touched); the input
        gradient is one stacked contraction plus a :func:`col2im` scatter.
        """
        tag = layer._cache[0] if layer._cache else None
        if tag != "im2col":
            raise ConfigurationError(
                "fleet conv backward needs an im2col forward cache; "
                f"got {tag!r} (was the forward run with impl='im2col'?)"
            )
        _, cols, input_shape, padded_shape, out_h, out_w = layer._cache
        out_channels = layer.out_channels
        length = out_h * out_w
        g = np.asarray(grad, dtype=np.float64).reshape(n, batch, out_channels, length)
        cols4 = cols.reshape(n, batch, cols.shape[1], length)
        chunks = [np.einsum("nbkl,nbol->nok", cols4, g, optimize=True).reshape(n, -1)]
        if layer.bias is not None:
            chunks.append(g.sum(axis=(1, 3)))
        grad_cols = np.einsum(
            "nol,ok->nkl",
            g.reshape(n * batch, out_channels, length),
            layer.weight.data.reshape(out_channels, -1),
            optimize=True,
        )
        kh, kw = layer.kernel_size
        sh, sw = layer.stride
        grad_padded = col2im(grad_cols, padded_shape, kh, kw, sh, sw, out_h, out_w)
        _, _, h, w = input_shape
        _, _, (ph0, _), (pw0, _) = layer._geometry(h, w)
        return grad_padded[:, :, ph0 : ph0 + h, pw0 : pw0 + w], chunks


class PendingBatch:
    """One drained admission batch in structure-of-arrays form.

    Produced by :meth:`PendingPool.drain`, already in the deterministic
    aggregation order (honest workers by id, then Byzantine workers by id —
    the same shape the lock-step batch has).  All arrays are row-aligned:
    entry ``i`` of every field describes the same buffered gradient, and
    ``payloads[i]`` is its decoded vector.
    """

    __slots__ = (
        "worker_ids",
        "steps",
        "arrival_times",
        "staleness",
        "wire_bytes",
        "losses",
        "honest",
        "payloads",
    )

    def __init__(
        self,
        worker_ids: np.ndarray,
        steps: np.ndarray,
        arrival_times: np.ndarray,
        staleness: np.ndarray,
        wire_bytes: np.ndarray,
        losses: np.ndarray,
        honest: np.ndarray,
        payloads: np.ndarray,
    ) -> None:
        self.worker_ids = worker_ids
        self.steps = steps
        self.arrival_times = arrival_times
        self.staleness = staleness
        self.wire_bytes = wire_bytes
        self.losses = losses
        self.honest = honest
        self.payloads = payloads

    def __len__(self) -> int:
        return int(self.worker_ids.size)


class PendingPool:
    """SoA admission buffer: at most one pending gradient per worker.

    Replaces the dict-of-:class:`~repro.cluster.sync.ArrivalEvent` buffer
    the async trainer used to keep.  Scalar per-entry fields (worker id,
    model step, arrival time, staleness, wire bytes, reported loss, honest
    flag) live in parallel numpy arrays; decoded payloads occupy rows of a
    single ``(capacity, d)`` matrix.  A free list recycles rows as entries
    supersede, reject or drain, and the arrays grow geometrically, so the
    steady state allocates nothing per arrival.  Admission bookkeeping
    stays O(1): insert/overwrite is one dict probe plus row writes, and the
    honest-entry count is maintained incrementally for the Byzantine fire
    check.

    Semantics are bit-identical to the dict buffer: the stale rescan calls
    the same pure ``admit(lag)`` predicate once per *distinct* lag, and
    :meth:`drain` sorts by ``(not honest, worker_id)`` exactly as the old
    ``sorted(...)`` did (worker ids are unique, so the stable lexsort is
    the same permutation).
    """

    def __init__(self, dim: int, capacity: int = 64) -> None:
        if dim < 1:
            raise ConfigurationError(f"dim must be positive, got {dim}")
        capacity = max(1, int(capacity))
        self.dim = int(dim)
        self._slot_of: Dict[int, int] = {}
        self._free: List[int] = list(range(capacity - 1, -1, -1))
        self._honest_count = 0
        self._worker_ids = np.zeros(capacity, dtype=np.int64)
        self._steps = np.zeros(capacity, dtype=np.int64)
        self._arrival_times = np.zeros(capacity, dtype=np.float64)
        self._staleness = np.zeros(capacity, dtype=np.int64)
        self._wire_bytes = np.zeros(capacity, dtype=np.float64)
        self._losses = np.zeros(capacity, dtype=np.float64)
        self._honest = np.zeros(capacity, dtype=bool)
        self._payloads = np.zeros((capacity, self.dim), dtype=np.float64)

    # ------------------------------------------------------------- capacity
    def _grow(self) -> None:
        """Double every array; freshly minted rows join the free list."""
        old = self._payloads.shape[0]
        new = old * 2
        for name in (
            "_worker_ids",
            "_steps",
            "_arrival_times",
            "_staleness",
            "_wire_bytes",
            "_losses",
            "_honest",
        ):
            array = getattr(self, name)
            grown = np.zeros(new, dtype=array.dtype)
            grown[:old] = array
            setattr(self, name, grown)
        payloads = np.zeros((new, self.dim), dtype=np.float64)
        payloads[:old] = self._payloads
        self._payloads = payloads
        self._free.extend(range(new - 1, old - 1, -1))

    # -------------------------------------------------------------- queries
    def __len__(self) -> int:
        return len(self._slot_of)

    @property
    def honest_count(self) -> int:
        """Honest entries currently buffered (incrementally maintained)."""
        return self._honest_count

    def step_of(self, worker_id: int) -> Optional[int]:
        """The buffered entry's model step, or ``None`` if absent."""
        slot = self._slot_of.get(worker_id)
        if slot is None:
            return None
        return int(self._steps[slot])

    def _active_slots(self) -> np.ndarray:
        return np.fromiter(
            self._slot_of.values(), dtype=np.intp, count=len(self._slot_of)
        )

    # ------------------------------------------------------------ mutation
    def put(
        self,
        worker_id: int,
        *,
        step: int,
        payload: np.ndarray,
        arrival_time: float,
        honest: bool,
        staleness: int,
        wire_bytes: float,
        loss: float,
    ) -> None:
        """Insert or overwrite the worker's buffered gradient (O(1))."""
        slot = self._slot_of.get(worker_id)
        if slot is None:
            if not self._free:
                self._grow()
            slot = self._free.pop()
            self._slot_of[worker_id] = slot
            self._worker_ids[slot] = worker_id
            if honest:
                self._honest_count += 1
        self._steps[slot] = step
        self._arrival_times[slot] = arrival_time
        self._staleness[slot] = staleness
        self._wire_bytes[slot] = wire_bytes
        self._losses[slot] = loss
        self._honest[slot] = honest
        self._payloads[slot] = payload

    def _release(self, worker_id: int, slot: int) -> None:
        del self._slot_of[worker_id]
        self._free.append(slot)
        if self._honest[slot]:
            self._honest_count -= 1

    def rescan(self, version: int, admit: Callable[[int], bool]) -> List[int]:
        """Re-check the lag bound against *version*; returns rejected ids.

        ``admit`` is a pure predicate of the lag, so it is evaluated once
        per distinct lag in the pool instead of once per entry; survivors'
        staleness is refreshed to ``max(lag, 0)`` in one vectorised write.
        """
        slots = self._active_slots()
        if slots.size == 0:
            return []
        lags = version - self._steps[slots]
        admitted_lags = np.array(
            [lag for lag in np.unique(lags) if admit(int(lag))], dtype=np.int64
        )
        keep = np.isin(lags, admitted_lags)
        rejected: List[int] = []
        for slot in slots[~keep]:
            worker_id = int(self._worker_ids[slot])
            self._release(worker_id, int(slot))
            rejected.append(worker_id)
        kept = slots[keep]
        self._staleness[kept] = np.maximum(lags[keep], 0)
        return rejected

    # -------------------------------------------------------------- reads
    def honest_matrix(self) -> np.ndarray:
        """Honest payload rows, sorted by worker id (the adversary's view)."""
        slots = self._active_slots()
        honest = slots[self._honest[slots]]
        order = np.argsort(self._worker_ids[honest], kind="stable")
        return self._payloads[honest[order]]

    def payload_matrix(self) -> Optional[np.ndarray]:
        """All buffered payload rows (any order), or ``None`` when empty.

        The distance cache keys rows by content fingerprint, so the carry
        warm is order-insensitive; rows come out sorted by worker id for
        determinism all the same.
        """
        slots = self._active_slots()
        if slots.size == 0:
            return None
        order = np.argsort(self._worker_ids[slots], kind="stable")
        return self._payloads[slots[order]]

    def drain(self) -> PendingBatch:
        """Empty the pool into one batch in deterministic aggregation order.

        Honest workers by id, then Byzantine workers by id — worker ids are
        unique so the stable lexsort reproduces the dict buffer's
        ``sorted(..., key=(not honest, worker_id))`` permutation exactly.
        """
        slots = self._active_slots()
        ids = self._worker_ids[slots]
        order = np.lexsort((ids, np.logical_not(self._honest[slots])))
        sel = slots[order]
        batch = PendingBatch(
            worker_ids=ids[order],
            steps=self._steps[sel],
            arrival_times=self._arrival_times[sel],
            staleness=self._staleness[sel],
            wire_bytes=self._wire_bytes[sel],
            losses=self._losses[sel],
            honest=self._honest[sel],
            payloads=self._payloads[sel],
        )
        self._slot_of.clear()
        self._honest_count = 0
        capacity = self._payloads.shape[0]
        self._free = list(range(capacity - 1, -1, -1))
        return batch


__all__ = [
    "FleetState",
    "FleetComputeKernel",
    "fleet_computable",
    "PendingBatch",
    "PendingPool",
]
