"""Every registered model on the stacked exact pass against the frozen replica loop.

``tests/replica_reference.py`` is the loop the pass replaced: one model
replica per honest worker, each running its own backprop.  Its twin of a
deployment (``as_replica_loop``) computes every honest gradient there, so the
grid — every registered model, both engines, a shared snapshot and per-worker
top-k delta snapshots, ``compute_mode="exact"`` — requires the two to export
the same telemetry and end on the same parameters, ``==``, and a lock-step
checkpoint resumed mid-run to do the same.  The gate rows are deployments the
pass cannot serve, refused at construction.  The count guard and the pricing
pins are host-independent readings of what the pass saves and what it must
not move.
"""

import ast
import json
from pathlib import Path

import numpy as np
import pytest

from repro.cluster import TrainerConfig, build_trainer
from repro.cluster import trainer as trainer_module
from repro.cluster.checkpoint import capture_training_state, restore_training_state
from repro.cluster.cost_model import StragglerModel
from repro.cluster.trainer import SynchronousTrainer
from repro.cluster.worker import HonestWorker
from repro.data.datasets import gaussian_blobs, synthetic_cifar
from repro.exceptions import ConfigurationError
from repro.nn.layers import Dense, Layer
from repro.nn.model import Sequential
from tests.replica_reference import as_replica_loop
from tests.test_builder_lazy import _Constructions

BLOBS = gaussian_blobs(num_train=200, num_test=40, num_classes=4, dim=8, rng=3)
IMAGES = synthetic_cifar(num_train=60, num_test=16, image_size=6, channels=2, num_classes=3, rng=0)
MLP = {"model": "mlp", "model_kwargs": {"input_dim": 8, "hidden": 6, "num_classes": 4}}
WAN = {"link_profile": "wan:2x10mbit/5ms", "link_sharing": "fifo"}
LOSSY_TOP_K = {"broadcast_codec": "top-k", "broadcast_k": 8}

#: Every registered model, at a size that trains in milliseconds.
MODELS = {
    "logistic": dict(model="logistic", model_kwargs={"input_dim": 8, "num_classes": 4}),
    "mlp": MLP,
    "mlp-dropout": dict(model="mlp", model_kwargs={
        "input_dim": 8, "hidden": (6, 5), "num_classes": 4, "dropout": 0.5}),
    "small-cnn": dict(model="small-cnn", dataset=IMAGES, model_kwargs={
        "image_size": 6, "channels": 2, "num_classes": 3, "conv_filters": 3, "fc1": 6,
        "fc2": 4}),
    "resnet-like": dict(model="resnet-like", dataset=IMAGES, model_kwargs={
        "image_size": 6, "channels": 2, "num_classes": 3, "stage_channels": (2, 3),
        "blocks_per_stage": 1}),
}
ENGINES = {
    "sync": {},
    "async": {"mode": "async", "sync_policy": "quorum"},
}
BROADCASTS = {"shared": {}, "top-k-delta": LOSSY_TOP_K}

SCENARIOS = {
    "async-wan-lossy-broadcast": dict(
        MLP, mode="async", sync_policy="quorum", num_workers=12, declared_f=2, gar="median",
        **WAN, **LOSSY_TOP_K,
    ),
    "sync-lossy-bulyan": dict(
        MLP, gar="bulyan", num_workers=11, num_byzantine=2, declared_f=2,
        attack="reversed-gradient", lossy_links=2, lossy_drop_rate=0.1,
    ),
    "async-pareto-stragglers": dict(
        model="logistic", model_kwargs={"input_dim": 8, "num_classes": 4}, mode="async",
        sync_policy="quorum", num_workers=10, declared_f=1, gar="median",
        straggler_model=StragglerModel("pareto"), codec="top-k", codec_k=5,
    ),
}


def _kwargs(**deployment):
    kwargs = dict(dataset=BLOBS, batch_size=4, seed=5, num_workers=7, declared_f=1,
                  gar="median")
    kwargs.update(deployment)
    return kwargs


def _pair(**deployment):
    """``(live, twin)``: the same deployment, the twin on the replica loop."""
    kwargs = _kwargs(**deployment)
    return build_trainer(**kwargs), as_replica_loop(build_trainer(**kwargs))


def _outcome(trainer, steps):
    history = trainer.run(TrainerConfig(max_steps=steps, eval_every=2))
    return json.dumps(history.to_dict(), sort_keys=True), trainer.server.parameters.tobytes()


@pytest.fixture
def runs(monkeypatch):
    """``(k, distinct snapshot objects)`` of every stacked pass the trainers run."""
    seen = []
    compute_stacked = trainer_module.compute_stacked

    def recording(snapshots, model, batch, rngs=None):
        seen.append((len(batch[0]), len({id(p) for _, p in snapshots})))
        return compute_stacked(snapshots, model, batch, rngs)

    monkeypatch.setattr(trainer_module, "compute_stacked", recording)
    return seen


@pytest.mark.parametrize("broadcast", sorted(BROADCASTS))
@pytest.mark.parametrize("engine", sorted(ENGINES))
@pytest.mark.parametrize("model", sorted(MODELS))
def test_every_model_runs_to_the_replica_loops_bytes(model, engine, broadcast, runs):
    live, twin = _pair(**MODELS[model], **ENGINES[engine], **BROADCASTS[broadcast])
    assert _outcome(live, 4) == _outcome(twin, 4)
    assert runs, "the live trainer never ran the stacked pass"
    if broadcast == "top-k-delta":
        assert any(k > 1 and distinct == k for k, distinct in runs), runs


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_the_pass_runs_to_the_replica_loops_bytes(scenario, runs):
    live, twin = _pair(**SCENARIOS[scenario])
    assert _outcome(live, 6) == _outcome(twin, 6)
    if scenario == "async-wan-lossy-broadcast":
        assert any(k > 1 and distinct == k for k, distinct in runs), runs
    if scenario == "sync-lossy-bulyan":
        assert {run for run in runs} == {(9, 1)}  # one shared snapshot, broadcast
    if scenario == "async-pareto-stragglers":
        assert sum(k == 1 for k, _ in runs) > len(runs) // 2, runs


@pytest.mark.parametrize("model", sorted(MODELS))
def test_a_checkpoint_resumed_mid_run_equals_the_twins_and_the_straight_run(model):
    deployment = _kwargs(**MODELS[model], **LOSSY_TOP_K)

    def build(stacked):
        trainer = build_trainer(**deployment)
        return trainer if stacked else as_replica_loop(trainer)

    def resumed(stacked):
        first, fresh = build(stacked), build(stacked)
        first.run(TrainerConfig(max_steps=3, eval_every=0))
        restore_training_state(fresh, capture_training_state(first))
        return _outcome(fresh, 3)

    live = resumed(stacked=True)
    assert live == resumed(stacked=False)
    straight = build(stacked=True)
    straight.run(TrainerConfig(max_steps=3, eval_every=0))
    assert live[1] == _outcome(straight, 3)[1]


def test_corrupted_data_samplers_gather_per_worker(runs):
    live, twin = _pair(num_workers=8, corrupted_workers=2, **MLP)
    features = {id(w.sampler.features) for w in live.honest_workers}
    assert len(features) == 3  # the shared set and two private corrupted copies
    assert _outcome(live, 3) == _outcome(twin, 3)
    assert runs


# ------------------------------------------------------------------ gate rows
class _Identity(Layer):
    """A custom layer with no stacked form."""

    def forward(self, x, *, training=True):
        return x

    def backward(self, grad_output):
        return grad_output


class _L1Loss:
    """A custom loss with no stacked form."""

    def forward(self, outputs, targets):
        self._diff = outputs - targets
        return float(np.abs(self._diff).mean())

    def backward(self):
        return np.sign(self._diff) / self._diff.size


REFUSED = {
    "custom-layer": (
        lambda rng=None: Sequential([Dense(8, 4, rng=rng), _Identity()]),
        "_Identity has no stacked form",
    ),
    "custom-loss": (
        lambda rng=None: Sequential([Dense(8, 4, rng=rng)], loss=_L1Loss()),
        "_L1Loss has no stacked form",
    ),
}


@pytest.mark.parametrize("case", sorted(REFUSED))
def test_a_model_without_a_stacked_form_is_refused_at_construction(case):
    factory, message = REFUSED[case]
    for engine in ENGINES.values():
        with pytest.raises(ConfigurationError, match=message):
            build_trainer(**_kwargs(model=factory, **engine))


def test_mixed_batch_sizes_are_refused_at_construction():
    built = build_trainer(**_kwargs(num_workers=6, **MLP))
    built.workers[2].sampler.batch_size = 7
    with pytest.raises(ConfigurationError, match="must share one batch size"):
        SynchronousTrainer(
            built.server, built.workers, built.cost_model,
            eval_model=built.eval_model, test_set=built.test_set,
        )


def test_an_eval_model_of_another_size_is_refused_at_construction():
    built = build_trainer(**_kwargs(**MLP))
    wider = build_trainer(**_kwargs(model="mlp", model_kwargs={
        "input_dim": 8, "hidden": 9, "num_classes": 4}))
    with pytest.raises(ConfigurationError, match="parameters but the server holds"):
        SynchronousTrainer(built.server, built.workers, built.cost_model,
                           eval_model=wider.eval_model)


# ----------------------------------------------------------------- the count
@pytest.mark.parametrize("deployment", [
    dict(model="logistic", model_kwargs={"input_dim": 8, "num_classes": 4}),
    dict(MLP, mode="async", sync_policy="quorum", **WAN, **LOSSY_TOP_K),
    dict(MLP, lossy_links=2, lossy_drop_rate=0.1),
    MODELS["small-cnn"],
    dict(MODELS["mlp-dropout"], mode="async", sync_policy="quorum"),
], ids=["sync-logistic", "async-wan-mlp", "sync-lossy-mlp", "sync-small-cnn",
        "async-dropout-mlp"])
def test_a_run_builds_no_worker_replica(monkeypatch, deployment):
    """Two models, not ``n + 2``, whatever the architecture.

    The server's and the evaluator's are built; no honest worker holds one.
    """
    counts = _Constructions(monkeypatch)
    trainer = build_trainer(**_kwargs(num_workers=9, declared_f=2, **deployment))
    assert counts.models == 2
    trainer.run(TrainerConfig(max_steps=4, eval_every=2))
    assert counts.models == 2
    assert not any(
        isinstance(value, Sequential) for w in trainer.honest_workers for value in vars(w).values()
    )


def test_src_holds_no_replica_path():
    """The replica loop lives only in ``tests/replica_reference.py``."""
    root = Path(trainer_module.__file__).parents[1]
    defined = set()
    for path in sorted(root.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defined.add(node.name)
    gone = {"compute_gradient", "stacked_signature", "_stacked_pass_model", "replica"}
    assert not defined & gone
    assert not hasattr(HonestWorker, "model") and not hasattr(HonestWorker, "flops_per_sample")


# ------------------------------------------------------------------- pricing
LOGISTIC = dict(model="logistic", model_kwargs={"input_dim": 10, "num_classes": 5},
                dataset=gaussian_blobs(num_train=200, num_classes=5, dim=10, rng=1),
                batch_size=2, num_workers=6, declared_f=1, gar="median", seed=3)
MEASURED = 2.0 * 10 * 5  # Σ 2·i·o per sample


def _priced_at(trainer):
    """Forward flops per sample each honest worker's compute pricing charges.

    Both engines price a fleet row through ``FleetState.compute_times`` at
    the flops the stacked pass measured.
    """
    readings = []
    dim = trainer.server.dim
    priced = trainer._fleet.compute_times(trainer.cost_model, trainer._stacked_flops)
    for row, worker in enumerate(trainer.honest_workers):
        seconds = priced[row]
        gflops = trainer._worker_gflops[worker.worker_id] * worker.speed
        if seconds == trainer.cost_model.gradient_compute_time(
            dim, worker.batch_size, gflops=gflops, flops_per_sample=MEASURED
        ):
            readings.append(MEASURED)
    assert len(readings) == len(trainer.honest_workers)
    return readings


def test_an_exact_run_prices_every_worker_at_the_measured_flops():
    trainer = build_trainer(**LOGISTIC)
    trainer.run(TrainerConfig(max_steps=2, eval_every=0))
    assert _priced_at(trainer) == [MEASURED] * 6
    assert trainer._stacked_flops == MEASURED


def test_async_fleet_mode_prices_every_worker_at_the_measured_flops():
    """Herds and runs of one alike compute in the stacked pass and price at its flops."""
    trainer = build_trainer(mode="async", sync_policy="quorum", compute_mode="fleet",
                            **LOGISTIC)
    trainer.run(TrainerConfig(max_steps=3, eval_every=0))
    assert _priced_at(trainer) == [MEASURED] * 6
