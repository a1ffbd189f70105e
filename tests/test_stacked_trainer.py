"""Both engines on the stacked exact pass against their replica-loop twins.

A twin is the same deployment with ``_stacked_model`` cleared, so every
honest gradient comes from a worker's own replica (the path before the
pass).  Every scenario requires the two to export the same telemetry and end
on the same parameters, ``==``.  The gate rows are deployments the pass must
not serve (a forward with per-replica state, mixed batch sizes) and one it
serves with per-worker gathers (corrupted-data samplers).  The count guard
and the pricing pins are host-independent readings of what the pass saves
and what it must not move.
"""

import json

import pytest

from repro.cluster import TrainerConfig, build_trainer
from repro.cluster import trainer as trainer_module
from repro.cluster.checkpoint import capture_training_state, restore_training_state
from repro.cluster.cost_model import StragglerModel
from repro.cluster.trainer import SynchronousTrainer
from repro.data.datasets import gaussian_blobs, synthetic_cifar
from tests.test_builder_lazy import _Constructions

BLOBS = gaussian_blobs(num_train=200, num_test=40, num_classes=4, dim=8, rng=3)
IMAGES = synthetic_cifar(num_train=60, num_test=16, image_size=4, channels=1, num_classes=3, rng=0)
MLP = {"model": "mlp", "model_kwargs": {"input_dim": 8, "hidden": 6, "num_classes": 4}}
WAN = {"link_profile": "wan:2x10mbit/5ms", "link_sharing": "fifo"}
LOSSY_TOP_K = {"broadcast_codec": "top-k", "broadcast_k": 8}

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


def _pair(**deployment):
    """``(live, twin)``: the same deployment, the twin forced onto the replica loop."""
    kwargs = dict(dataset=BLOBS, batch_size=4, seed=5, **deployment)
    live, twin = build_trainer(**kwargs), build_trainer(**kwargs)
    twin._stacked_model = None
    return live, twin


def _outcome(trainer, steps):
    history = trainer.run(TrainerConfig(max_steps=steps, eval_every=2))
    return json.dumps(history.to_dict(), sort_keys=True), trainer.server.parameters.tobytes()


@pytest.fixture
def runs(monkeypatch):
    """``(k, distinct snapshot objects)`` of every stacked pass the trainers run."""
    seen = []
    compute_stacked = trainer_module.compute_stacked

    def recording(workers, snapshots, model):
        seen.append((len(workers), len({id(p) for _, p in snapshots})))
        return compute_stacked(workers, snapshots, model)

    monkeypatch.setattr(trainer_module, "compute_stacked", recording)
    return seen


@pytest.mark.parametrize("scenario", sorted(SCENARIOS))
def test_the_pass_runs_to_the_replica_loops_bytes(scenario, runs):
    live, twin = _pair(**SCENARIOS[scenario])
    assert live._stacked_model is live.eval_model
    assert _outcome(live, 6) == _outcome(twin, 6)
    assert runs, "the live trainer never ran the stacked pass"
    if scenario == "async-wan-lossy-broadcast":
        assert any(k > 1 and distinct == k for k, distinct in runs), runs
    if scenario == "sync-lossy-bulyan":
        assert {run for run in runs} == {(9, 1)}  # one shared snapshot, broadcast
    if scenario == "async-pareto-stragglers":
        assert sum(k == 1 for k, _ in runs) > len(runs) // 2, runs


def test_a_checkpoint_resumed_mid_run_equals_the_twins_and_the_straight_run():
    deployment = dict(dataset=BLOBS, batch_size=4, seed=5, num_workers=7, declared_f=1,
                      gar="median", **MLP, **LOSSY_TOP_K)

    def build(stacked):
        trainer = build_trainer(**deployment)
        if not stacked:
            trainer._stacked_model = None
        return trainer

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


# ------------------------------------------------------------------ gate rows
def _hand_built_with_mixed_batch_sizes():
    built = build_trainer(dataset=BLOBS, batch_size=4, seed=5, num_workers=6, declared_f=1,
                          gar="median", **MLP)
    built.workers[2].sampler.batch_size = 7
    return SynchronousTrainer(
        built.server, built.workers, built.cost_model,
        eval_model=built.eval_model, test_set=built.test_set,
    )


GATES = {
    "small-cnn": dict(
        model="small-cnn", dataset=IMAGES, num_workers=5, declared_f=1, gar="median",
        model_kwargs={"image_size": 4, "channels": 1, "num_classes": 3, "conv_filters": 2,
                      "fc1": 6, "fc2": 4},
    ),
    "dropout-mlp": dict(
        model="mlp", model_kwargs={"input_dim": 8, "hidden": 6, "num_classes": 4,
                                   "dropout": 0.5},
        num_workers=5, declared_f=1, gar="median",
    ),
}


@pytest.mark.parametrize("gate", sorted(GATES))
def test_a_forward_with_per_replica_state_keeps_the_replica_loop(gate):
    kwargs = {"dataset": BLOBS, "batch_size": 4, "seed": 5, **GATES[gate]}
    live, twin = build_trainer(**kwargs), build_trainer(**kwargs)
    twin._stacked_model = None
    assert live._stacked_model is None
    assert _outcome(live, 2) == _outcome(twin, 2)


def test_mixed_batch_sizes_keep_the_replica_loop():
    live, twin = _hand_built_with_mixed_batch_sizes(), _hand_built_with_mixed_batch_sizes()
    assert live._stacked_model is None
    assert _outcome(live, 2) == _outcome(twin, 2)


def test_corrupted_data_samplers_gather_per_worker(runs):
    live, twin = _pair(num_workers=8, declared_f=1, gar="median", corrupted_workers=2, **MLP)
    assert live._stacked_model is not None
    features = {id(w.sampler.features) for w in live.honest_workers}
    assert len(features) == 3  # the shared set and two private corrupted copies
    assert _outcome(live, 3) == _outcome(twin, 3)
    assert runs


# ----------------------------------------------------------------- the count
@pytest.mark.parametrize("deployment", [
    dict(model="logistic", model_kwargs={"input_dim": 8, "num_classes": 4}),
    dict(MLP, mode="async", sync_policy="quorum", **WAN, **LOSSY_TOP_K),
    dict(MLP, lossy_links=2, lossy_drop_rate=0.1),
], ids=["sync-logistic", "async-wan-mlp", "sync-lossy-mlp"])
def test_an_exact_run_builds_no_worker_replica(monkeypatch, deployment):
    """The guard behind ``paper_bulyan_lossy``'s ``peak_rss_mb``: two models, not ``n + 2``.

    The server's and the evaluator's are built; no honest worker's replica is.
    """
    counts = _Constructions(monkeypatch)
    trainer = build_trainer(dataset=BLOBS, batch_size=4, seed=5, num_workers=9,
                            declared_f=2, gar="median", **deployment)
    assert counts.models == 2
    trainer.run(TrainerConfig(max_steps=4, eval_every=2))
    assert counts.models == 2
    assert not any("model" in vars(worker) for worker in trainer.honest_workers)


# ------------------------------------------------------------------- pricing
LOGISTIC = dict(model="logistic", model_kwargs={"input_dim": 10, "num_classes": 5},
                dataset=gaussian_blobs(num_train=200, num_classes=5, dim=10, rng=1),
                batch_size=2, num_workers=6, declared_f=1, gar="median", seed=3)
MEASURED, FALLBACK = 2.0 * 10 * 5, 2.0 * 55  # Σ 2·i·o against the unmeasured 2d


def _priced_at(trainer):
    """Forward flops per sample each honest worker's ``_compute_time`` charges."""
    readings = []
    dim = trainer.server.dim
    for worker in trainer.honest_workers:
        seconds = trainer._compute_time(worker, dim)
        gflops = trainer._worker_gflops[worker.worker_id] * worker.speed
        for flops in (MEASURED, FALLBACK):
            if seconds == trainer.cost_model.gradient_compute_time(
                dim, worker.batch_size, gflops=gflops, flops_per_sample=flops
            ):
                readings.append(flops)
    assert len(readings) == len(trainer.honest_workers)
    return readings


def test_an_exact_run_prices_every_worker_at_the_measured_flops():
    trainer = build_trainer(**LOGISTIC)
    assert _priced_at(trainer) == [FALLBACK] * 6  # today's read: a never-run replica
    trainer.run(TrainerConfig(max_steps=2, eval_every=0))
    assert _priced_at(trainer) == [MEASURED] * 6
    assert {worker.stacked_flops for worker in trainer.honest_workers} == {MEASURED}


def test_async_fleet_mode_keeps_its_borrowed_replica_quirk():
    """The fleet kernel's worker 0 reads its measured forward, the rest their replicas' 2d.

    Pricing the herds through ``FleetState.compute_times`` instead is a
    declared digest move of its own, not this change.
    """
    trainer = build_trainer(mode="async", sync_policy="quorum", compute_mode="fleet",
                            **LOGISTIC)
    assert _priced_at(trainer) == [FALLBACK] * 6
    trainer.run(TrainerConfig(max_steps=3, eval_every=0))
    assert _priced_at(trainer) == [MEASURED] + [FALLBACK] * 5
    # Workers 1-5 only ever computed in herds: their 2d is their replicas' read.
    assert [worker.stacked_flops for worker in trainer.honest_workers[1:]] == [None] * 5
