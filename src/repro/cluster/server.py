"""The (trusted) parameter server with a versioned model store.

Holds the authoritative model parameters, validates each round's gradients
(the aggregation itself runs in :class:`~repro.cluster.service.ServerFabric`
with the configured GAR), and applies the optimizer update
(Equation 4 of the paper).  The server also enforces the hardening described
in §3.2: only registered workers may submit gradients and nobody but the
server mutates the shared parameters (the analogue of the TensorFlow patch
that discards remote graph definitions on the "ps" job).

Every optimizer update bumps the server's **version**; each version's
parameter vector is retained in a bounded version log (:meth:`ParameterServer.parameters_at`)
together with an :class:`UpdateRecord` describing the update.  The async
engine measures gradient staleness against these real model versions instead
of against lock-step round numbers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

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
    """Parameter server with a versioned model store.

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
    retain_versions:
        How many historical parameter vectors :meth:`parameters_at` keeps
        (``None`` retains every version — fine at simulation scale).  The
        current version is always retained.
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
        retain_versions: Optional[int] = None,
        distance_cache: Optional[DistanceCache] = None,
    ) -> None:
        self._parameters = np.asarray(initial_parameters, dtype=np.float64).copy()
        if self._parameters.ndim != 1 or self._parameters.size == 0:
            raise ConfigurationError("initial parameters must be a non-empty flat vector")
        if retain_versions is not None and retain_versions < 1:
            raise ConfigurationError(
                f"retain_versions must be >= 1 or None, got {retain_versions}"
            )
        self.gar = gar
        self.optimizer = optimizer
        self.distance_cache = distance_cache
        self._allowed = None if expected_workers is None else set(int(w) for w in expected_workers)
        self.step = 0
        self.retain_versions = retain_versions
        self._version_log: Dict[int, np.ndarray] = {0: self._parameters.copy()}
        #: Pin counts per version: pinned versions are exempt from the
        #: ``retain_versions`` eviction (a delta broadcast still targets them).
        self._pins: Dict[int, int] = {}
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

    def parameters_at(self, version: int) -> np.ndarray:
        """Copy of the parameters at *version*, if still retained.

        Raises :class:`~repro.exceptions.ConfigurationError` for versions
        that never existed or were evicted by the ``retain_versions`` bound.
        """
        try:
            return self._version_log[int(version)].copy()
        except KeyError as exc:
            raise ConfigurationError(
                f"model version {version} is not in the store (current version "
                f"{self.version}, retaining {len(self._version_log)} versions)"
            ) from exc

    def retained_versions(self) -> List[int]:
        """Versions currently available through :meth:`parameters_at`, ascending."""
        return sorted(self._version_log)

    def has_version(self, version: int) -> bool:
        """Whether *version* is still in the store (delta-broadcast capable)."""
        return int(version) in self._version_log

    def pinned_versions(self) -> Dict[int, int]:
        """Current pin counts per version (copy): ``{version: live pins}``.

        Pinned versions are the ones live downlink sessions still hold as
        delta bases; a sharded parameter service mirrors them into every
        shard's checkpointed version store.
        """
        return dict(self._pins)

    # --------------------------------------------------------- delta broadcasts
    def pin_version(self, version: int) -> None:
        """Exempt *version* from eviction while a worker still holds it.

        The downlink keeps each worker's held version pinned so the
        ``v → v'`` delta it will need next fetch stays computable; pins are
        counted, so several workers may hold the same version.  Pinning an
        unretained version is rejected (the delta it protects is already
        impossible).
        """
        version = int(version)
        if version not in self._version_log:
            raise ConfigurationError(
                f"cannot pin version {version}: it is not in the store "
                f"(retained: {self.retained_versions()})"
            )
        self._pins[version] = self._pins.get(version, 0) + 1

    def release_version(self, version: int) -> None:
        """Drop one pin on *version* (no-op for versions never pinned)."""
        version = int(version)
        count = self._pins.get(version, 0)
        if count <= 1:
            self._pins.pop(version, None)
        else:
            self._pins[version] = count - 1

    def track_version(self, version: int, parameters: np.ndarray) -> None:
        """Re-register a historical *version* in the store (restore path).

        :meth:`restore` restarts the version log from the restored version
        alone, which would force every delta-broadcast session back to a
        full-state resync.  Re-registering a worker's held version keeps its
        delta path alive; the vector recorded is the caller's best-known
        reconstruction of that version (exact under lossless broadcast
        codecs — and never consulted as a delta base, because the downlink
        always passes the worker's replica as the ``reference``).
        """
        version = int(version)
        if version > self.step:
            raise ConfigurationError(
                f"cannot track version {version}: the server is at version {self.step}"
            )
        parameters = np.asarray(parameters, dtype=np.float64).copy()
        if parameters.shape != self._parameters.shape:
            raise ConfigurationError(
                f"tracked parameter shape {parameters.shape} does not match "
                f"the model shape {self._parameters.shape}"
            )
        self._version_log.setdefault(version, parameters)

    def delta_since(
        self, base_version: int, *, reference: Optional[np.ndarray] = None
    ) -> Optional[np.ndarray]:
        """The ``base_version → current`` parameter delta, or ``None`` if evicted.

        *reference* optionally substitutes the worker's actual reconstructed
        state for the logged vector (downlink error feedback: the delta then
        also re-offers whatever a lossy broadcast codec failed to express
        last round, so reconstruction error stays one-step instead of
        accumulating).  Even then the base version must still be retained —
        an evicted base means the worker's state is no longer tracked and
        the caller must fall back to a full-state broadcast.
        """
        if not self.has_version(base_version):
            return None
        base = self._version_log[int(base_version)] if reference is None else reference
        if base.shape != self._parameters.shape:
            raise ConfigurationError(
                f"delta reference shape {base.shape} does not match the model "
                f"shape {self._parameters.shape}"
            )
        return self._parameters - base

    def _record_version(self) -> None:
        self._version_log[self.step] = self._parameters.copy()
        if self.retain_versions is not None:
            while len(self._version_log) > self.retain_versions:
                evictable = [
                    version
                    for version in self._version_log
                    if version != self.step and self._pins.get(version, 0) == 0
                ]
                if not evictable:
                    break  # every old version is pinned by a live downlink
                del self._version_log[min(evictable)]

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
    ) -> np.ndarray:
        """Apply the optimizer step, bump the version, return the new parameters.

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
        self._record_version()
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
        return self.parameters

    def restore(self, parameters: np.ndarray, step: int) -> None:
        """Reset the server to a checkpointed ``(parameters, step)`` state.

        The version log restarts from the restored version (historical
        versions belong to the interrupted run, not this one), the update
        log is cleared, and the distance cache — derived state whose entries
        describe the interrupted run's pool — is invalidated (the checkpoint
        layer rebuilds it from the restored carry pool).
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
        self._version_log = {self.step: self._parameters.copy()}
        self._pins = {}
        self.update_log = []
        if self.distance_cache is not None:
            self.distance_cache.reset()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"ParameterServer(d={self.dim}, gar={self.gar!r}, version={self.version})"


__all__ = ["ParameterServer", "UpdateRecord"]
