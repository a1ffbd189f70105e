"""The (trusted) parameter server: the current model and its version.

Holds the authoritative model parameters, validates each round's gradients
(the aggregation itself runs in :class:`~repro.cluster.service.ServerFabric`
with the configured GAR), and applies the optimizer update
(Equation 4 of the paper).  The server also enforces the hardening described
in §3.2: only registered workers may submit gradients and nobody but the
server mutates the shared parameters (the analogue of the TensorFlow patch
that discards remote graph definitions on the "ps" job).

Every optimizer update bumps the server's **version** and appends an
:class:`UpdateRecord` describing the update to its log.  The server keeps
the current parameters only, as the paper's server does: no past model is
stored.  The async engine measures gradient staleness against these real
model versions instead of against lock-step round numbers, and delta
broadcasts are framed against each worker's own replica.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.base import GradientAggregationRule
from repro.core.distance_cache import DistanceCache
from repro.exceptions import ConfigurationError, TrainingError
from repro.optim.base import Optimizer


@dataclass
class UpdateRecord:
    """One entry of the server's update log.

    Attributes
    ----------
    version:
        The model version this update *produced* (the version after the bump).
    sim_time:
        Simulated time at which the update was applied (NaN when the caller
        did not provide one).
    num_gradients:
        Size of the aggregated batch.
    worker_ids:
        Ids of the workers whose gradients entered the batch, in aggregation
        order (``None`` when the caller did not provide them).
    wire_bytes:
        Encoded uplink bytes of the admitted gradients (0 when the caller
        did not account for the wire — e.g. histories predating codecs).
    """

    version: int
    sim_time: float = float("nan")
    num_gradients: int = 0
    worker_ids: Optional[Tuple[int, ...]] = None
    wire_bytes: float = 0.0


class ParameterServer:
    """Parameter server holding the current model, its version and the update log.

    Parameters
    ----------
    initial_parameters:
        Flat initial model vector.
    gar:
        The gradient aggregation rule (any registered GAR).
    optimizer:
        Server-side update rule (RMSprop in the paper's evaluation).
    expected_workers:
        Worker ids allowed to submit gradients; submissions from unknown ids
        are rejected (the hardened-TensorFlow behaviour).
    distance_cache:
        Optional :class:`~repro.core.distance_cache.DistanceCache` the
        server's aggregation path shares across rounds (the trainers drive
        its round lifecycle; the cost model prices only its misses).  The
        cache is *derived* state: :meth:`restore` invalidates it, and the
        checkpoint layer rebuilds it from the restored carry pool.
    """

    def __init__(
        self,
        initial_parameters: np.ndarray,
        gar: GradientAggregationRule,
        optimizer: Optimizer,
        *,
        expected_workers: Optional[Iterable[int]] = None,
        distance_cache: Optional[DistanceCache] = None,
    ) -> None:
        self._parameters = np.asarray(initial_parameters, dtype=np.float64).copy()
        if self._parameters.ndim != 1 or self._parameters.size == 0:
            raise ConfigurationError("initial parameters must be a non-empty flat vector")
        self.gar = gar
        self.optimizer = optimizer
        self.distance_cache = distance_cache
        self._allowed = None if expected_workers is None else set(int(w) for w in expected_workers)
        self.step = 0
        self.update_log: List[UpdateRecord] = []

    # ------------------------------------------------------------- accessors
    @property
    def parameters(self) -> np.ndarray:
        """Copy of the current model (what gets broadcast to the workers)."""
        return self._parameters.copy()

    @property
    def dim(self) -> int:
        """Model dimensionality ``d``."""
        return int(self._parameters.size)

    @property
    def version(self) -> int:
        """Current model version (bumped by every applied update)."""
        return self.step

    # ------------------------------------------------------------- protocol
    def validate_rows(self, worker_ids: Sequence[int], matrix: np.ndarray) -> None:
        """Reject an empty round, one from unknown workers or of the wrong width.

        The server's one validation site: one membership check over the
        round's id list and one shape probe on its ``(n, d)`` matrix.
        """
        if len(worker_ids) == 0:
            raise TrainingError("no gradients arrived this step — cannot aggregate")
        if self._allowed is not None and not self._allowed.issuperset(worker_ids):
            foreign = next(w for w in worker_ids if w not in self._allowed)
            raise TrainingError(
                f"worker {foreign} is not part of the deployed cluster "
                "(hardened server rejects foreign submissions)"
            )
        if matrix.shape[1] != self.dim:
            raise TrainingError(
                f"gradient dimensionality {matrix.shape[1]} does not match "
                f"the model ({self.dim})"
            )

    def apply_update(
        self,
        aggregated_gradient: np.ndarray,
        *,
        sim_time: float = float("nan"),
        worker_ids: Optional[Sequence[int]] = None,
        wire_bytes: float = 0.0,
    ) -> None:
        """Apply the optimizer step and bump the version.

        The optional *sim_time* / *worker_ids* / *wire_bytes* metadata lands
        in the :attr:`update_log` entry for this version.
        """
        aggregated_gradient = np.asarray(aggregated_gradient, dtype=np.float64)
        if aggregated_gradient.shape != self._parameters.shape:
            raise TrainingError(
                f"aggregated gradient shape {aggregated_gradient.shape} does not match "
                f"model shape {self._parameters.shape}"
            )
        if not np.isfinite(aggregated_gradient).all():
            raise TrainingError(
                "aggregated gradient contains non-finite values; the GAR in use does not "
                "tolerate the submitted inputs"
            )
        self._parameters = self.optimizer.step(self._parameters, aggregated_gradient)
        self.step += 1
        self.update_log.append(
            UpdateRecord(
                version=self.step,
                sim_time=float(sim_time),
                num_gradients=0 if worker_ids is None else len(worker_ids),
                worker_ids=(
                    None
                    if worker_ids is None
                    else tuple(np.asarray(worker_ids, dtype=np.int64).tolist())
                ),
                wire_bytes=float(wire_bytes),
            )
        )

    def restore(self, parameters: np.ndarray, step: int) -> None:
        """Reset the server to a checkpointed ``(parameters, step)`` state.

        The update log is cleared (its records belong to the interrupted
        run, not this one), and the distance cache — derived state whose
        entries describe the interrupted run's pool — is invalidated (the
        checkpoint layer rebuilds it from the restored carry pool).
        """
        parameters = np.asarray(parameters, dtype=np.float64).copy()
        if parameters.shape != self._parameters.shape:
            raise ConfigurationError(
                f"checkpointed parameter shape {parameters.shape} does not match "
                f"the model shape {self._parameters.shape}"
            )
        if step < 0:
            raise ConfigurationError(f"step must be non-negative, got {step}")
        self._parameters = parameters
        self.step = int(step)
        self.update_log = []
        if self.distance_cache is not None:
            self.distance_cache.reset()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ParameterServer(d={self.dim}, gar={self.gar!r}, version={self.version})"


__all__ = ["ParameterServer", "UpdateRecord"]
