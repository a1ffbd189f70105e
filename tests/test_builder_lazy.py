"""A build that costs what the run will use — and changes no simulated float.

``build_trainer`` derives child stream ``i`` of the master seed when it is
first indexed and builds honest worker ``k``'s model replica when something
first reads it (after every lower id's).  The parent commit's eager
construction is frozen in ``tests/builder_reference.py``; everything here is
a differential ``==`` against it, plus the host-independent *count* that
guards the gain: how many ``Generator``s and ``Sequential``s a 10,000-worker
lock-step build and run construct.
"""

import itertools
import json

import numpy as np
import pytest

from repro.cluster import TrainerConfig, build_trainer
from repro.cluster.checkpoint import capture_training_state, restore_training_state
from repro.cluster.worker import HonestWorker
from repro.data import MiniBatchSampler
from repro.data.datasets import gaussian_blobs, synthetic_cifar
from repro.exceptions import ConfigurationError
from repro.nn.model import Sequential
from repro.nn.models.registry import make_model
from repro.utils.random import ChildStreams, spawn_rngs
from tests.builder_reference import as_eager_reference
from tests.builder_reference import spawn_rngs as eager_spawn_rngs


# ------------------------------------------------------------ stream identity
SEEDS = {
    "int": lambda: 11,
    "generator": lambda: np.random.default_rng(11),
    "seed-sequence": lambda: np.random.SeedSequence(11, spawn_key=(3,)),
}


def _draws(generator):
    return generator.integers(0, 2**63 - 1, size=4).tolist()


@pytest.mark.parametrize("kind", SEEDS)
@pytest.mark.parametrize("order", ["reverse", "random", "forward"])
def test_stream_i_is_a_function_of_seed_and_i_alone(kind, order):
    count = 2 * 19 + 7
    expected = [_draws(g) for g in eager_spawn_rngs(SEEDS[kind](), count)]
    streams = ChildStreams(SEEDS[kind](), count)
    assert len(streams) == count
    indices = list(range(count))
    if order == "reverse":
        indices.reverse()
    elif order == "random":
        np.random.default_rng(0).shuffle(indices)
    for i in indices:
        assert _draws(streams[i]) == expected[i], f"stream {i} ({kind}, {order})"
    # ... and a stream made alone, with no other ever indexed.
    assert _draws(ChildStreams(SEEDS[kind](), count)[17]) == expected[17]
    # The eager spelling sits on the same derivation.
    assert [_draws(g) for g in spawn_rngs(SEEDS[kind](), count)] == expected


def test_indexing_twice_returns_the_same_generator():
    streams = ChildStreams(5, 4)
    assert streams[2] is streams[2]  # the attack stream is shared by every Byzantine worker
    with pytest.raises(IndexError):
        streams[4]
    with pytest.raises(IndexError):
        streams[-1]
    with pytest.raises(ValueError):
        ChildStreams(5, -1)
    with pytest.raises(ConfigurationError):
        ChildStreams(-5, 2)


def test_parents_advance_as_the_eager_spawn_advanced_them():
    lazy_parent, eager_parent = np.random.default_rng(3), np.random.default_rng(3)
    ChildStreams(lazy_parent, 9)  # no child indexed: the draw is the constructor's
    eager_spawn_rngs(eager_parent, 9)
    assert lazy_parent.bit_generator.state == eager_parent.bit_generator.state

    lazy_seq, eager_seq = np.random.SeedSequence(3), np.random.SeedSequence(3)
    first = ChildStreams(lazy_seq, 5)
    second = ChildStreams(lazy_seq, 2)  # a second family starts where the first ended
    eager = eager_spawn_rngs(eager_seq, 5) + eager_spawn_rngs(eager_seq, 2)
    assert lazy_seq.n_children_spawned == eager_seq.n_children_spawned == 7
    assert [_draws(second[1]), _draws(first[4])] == [_draws(eager[6]), _draws(eager[4])]


# ------------------------------------------------------- whole-run == grid
BLOBS = gaussian_blobs(num_train=120, num_test=30, num_classes=3, dim=8, rng=0)
IMAGES = synthetic_cifar(num_train=60, num_test=16, image_size=4, channels=1, num_classes=3, rng=0)


class StatefulFactory:
    """A caller's factory with state: the k-th call's weights depend on k."""

    def __init__(self):
        self.calls = 0

    def __call__(self, **kwargs):
        self.calls += 1
        return make_model("logistic", rng=1000 + self.calls, **kwargs)


MODELS = {
    "logistic": (lambda: "logistic", {"input_dim": 8, "num_classes": 3}, BLOBS),
    "mlp-dropout": (lambda: "mlp", {"input_dim": 8, "hidden": (6,), "num_classes": 3,
                                    "dropout": 0.5}, BLOBS),
    "small-cnn": (lambda: "small-cnn", {"image_size": 4, "channels": 1, "num_classes": 3,
                                        "conv_filters": 2, "fc1": 6, "fc2": 4}, IMAGES),
    "stateful-factory": (StatefulFactory, {"input_dim": 8, "num_classes": 3}, BLOBS),
}
# (factory of the ``model`` argument, model_kwargs, dataset)
LINKS = {
    "reliable": {},
    "lossy": {"lossy_links": 2, "lossy_drop_rate": 0.1},
    "delayed": {"link_delays": {2: 2e-5, 5: 4e-5}, "link_jitters": {5: 2e-5, 6: 1e-5}},
}
NUM_WORKERS = 7


def _build(mode, compute, model, links, seed_kind):
    """``(trainer, reference kwargs)`` — every call gets fresh, equal seed and factory."""
    factory, model_kwargs, dataset = MODELS[model]
    kwargs = dict(
        model=factory(), model_kwargs=model_kwargs, dataset=dataset, gar="median",
        num_workers=NUM_WORKERS, num_byzantine=1, declared_f=1, attack="random",
        batch_size=4, mode=mode, compute_mode=compute, seed=SEEDS[seed_kind](),
        sync_policy="quorum" if mode == "async" else "full-sync", **LINKS[links],
    )
    reference = dict(model=factory(), model_kwargs=model_kwargs, seed=SEEDS[seed_kind]())
    return build_trainer(**kwargs), reference


def _run(trainer, steps=3):
    history = trainer.run(TrainerConfig(max_steps=steps, eval_every=steps))
    return json.dumps(history.to_dict(), sort_keys=True), trainer.server.parameters.tobytes()


@pytest.mark.parametrize(
    "mode,compute,model,links,seed_kind",
    list(itertools.product(["sync", "async"], ["exact", "fleet"], MODELS, LINKS, SEEDS)),
)
def test_lazy_build_runs_to_the_eager_builds_bytes(mode, compute, model, links, seed_kind):
    lazy, _ = _build(mode, compute, model, links, seed_kind)
    built, reference = _build(mode, compute, model, links, seed_kind)
    assert _run(lazy) == _run(as_eager_reference(built, **reference))


def test_a_replica_asked_for_out_of_order_is_the_one_id_order_builds():
    """Worker 5 backprops before worker 0 on a Dropout MLP: both replicas are the eager ones.

    ``mlp`` derives each replica's ``Dropout`` stream from the shared
    ``model_rng`` after a variable-length ``he_normal`` draw, so a replica
    built out of turn would get another worker's mask stream.
    """
    lazy, _ = _build("sync", "exact", "mlp-dropout", "reliable", "int")
    built, reference = _build("sync", "exact", "mlp-dropout", "reliable", "int")
    eager = as_eager_reference(built, **reference)
    parameters = lazy.server.parameters
    for worker_id in (5, 1, 3, 6, 2, 4):  # id 0 is the Byzantine worker
        ours = lazy.workers[worker_id].compute_gradient(parameters, step=0)
        theirs = eager.workers[worker_id].compute_gradient(parameters, step=0)
        assert ours.loss == theirs.loss
        assert ours.gradient.tobytes() == theirs.gradient.tobytes()


def test_one_factory_call_per_replica_read_and_none_before():
    factory = StatefulFactory()
    trainer = build_trainer(model=factory, model_kwargs=MODELS["logistic"][1], dataset=BLOBS,
                            gar="median", num_workers=NUM_WORKERS, declared_f=1, seed=0)
    assert factory.calls == 2  # the server's and the evaluator's
    assert trainer.workers[4].model is trainer.workers[4].model
    assert factory.calls == 2 + 5  # workers 0..4, in id order
    trainer.workers[2].model
    assert factory.calls == 2 + 5


# ------------------------------------------------------------------ checkpoint
@pytest.mark.parametrize("links", LINKS)
def test_checkpoint_of_a_lazy_lock_step_trainer_equals_the_eager_one_and_resumes(links):
    """Fleet compute never touches a sampler stream: capture materialises them all."""
    def states(trainer):
        rng_states = capture_training_state(trainer).rng_states
        return json.dumps(rng_states, sort_keys=True, default=lambda a: a.tolist())

    lazy, _ = _build("sync", "fleet", "logistic", links, "int")
    built, reference = _build("sync", "fleet", "logistic", links, "int")
    eager = as_eager_reference(built, **reference)
    assert states(lazy) == states(eager)
    assert _run(lazy, steps=2) == _run(eager, steps=2)
    assert states(lazy) == states(eager)

    # Resume: exact compute, so the samplers' positions matter.  The state is
    # restored into streams nothing had materialised on the fresh trainer.
    straight, _ = _build("sync", "exact", "logistic", links, "int")
    first, _ = _build("sync", "exact", "logistic", links, "int")
    resumed, _ = _build("sync", "exact", "logistic", links, "int")
    straight.run(TrainerConfig(max_steps=4, eval_every=0))
    first.run(TrainerConfig(max_steps=2, eval_every=0))
    restore_training_state(resumed, capture_training_state(first))
    resumed.run(TrainerConfig(max_steps=2, eval_every=0))
    assert resumed.server.parameters.tobytes() == straight.server.parameters.tobytes()
    assert resumed.clock.now == straight.clock.now
    assert states(resumed) == states(straight)


# --------------------------------------------- a count instead of a stopwatch
class _Constructions:
    """Counts ``numpy.random.default_rng`` calls and ``Sequential.__init__`` runs.

    Every ``Generator`` under ``src/`` is made by ``default_rng`` (simlint's
    SIM2xx rules allow no other constructor), and ``utils/random.py`` calls it
    as ``np.random.default_rng``, so wrapping the module attribute sees all.
    """

    def __init__(self, monkeypatch):
        self.generators = self.models = 0
        default_rng, init = np.random.default_rng, Sequential.__init__

        def counting_default_rng(*args, **kwargs):
            self.generators += 1
            return default_rng(*args, **kwargs)

        def counting_init(model, *args, **kwargs):
            self.models += 1
            init(model, *args, **kwargs)

        monkeypatch.setattr(np.random, "default_rng", counting_default_rng)
        monkeypatch.setattr(Sequential, "__init__", counting_init)

    def read(self):
        return self.generators, self.models


def test_a_10k_worker_fleet_build_and_run_construct_a_handful_of_objects(monkeypatch):
    """The guard for ``sync_10k_topk``'s ``setup_s``, as counts that repeat on any host.

    This is the deployment ``bench/workloads.py`` names ``sync_10k_topk``.
    The parent built 20,007 ``Generator``s and 10,002 ``Sequential``s here
    before step 0.  ``fleet_scale``'s ``sync_10k`` tracemalloc ceiling cannot
    see that spend: it starts tracing after ``_build`` has returned, so it
    measures the run's allocations only.
    """
    dataset = gaussian_blobs(num_train=400, num_test=50, num_classes=5, dim=10, rng=7)
    deployment = dict(
        model="logistic", model_kwargs={"input_dim": 10, "num_classes": 5}, dataset=dataset,
        gar="median", batch_size=2, num_byzantine=0, declared_f=2, codec="top-k", codec_k=8,
        compute_mode="fleet", compact_telemetry=True, num_workers=10_000, seed=7,
    )
    counts = _Constructions(monkeypatch)
    trainer = build_trainer(**deployment)
    generators, models = counts.read()
    assert generators <= 16 and models <= 4, (generators, models)
    trainer.run(TrainerConfig(max_steps=3, eval_every=3))
    assert counts.read() == (generators, models), "the run made a stream or a replica"

    # Three lossy uplinks cost exactly what three LossyChannels construct:
    # each one's position in the seed tree plus its wire and fill children.
    lossy = build_trainer(**deployment, lossy_links=3)
    assert counts.read() == (2 * generators + 3 * 3, 2 * models)
    lossy.run(TrainerConfig(max_steps=3, eval_every=3))
    assert counts.read() == (2 * generators + 3 * 3, 2 * models)


# ------------------------------------ direct construction refuses as before
def test_a_bad_seed_or_non_model_is_refused_at_construction():
    sampler = MiniBatchSampler(BLOBS.train_x, BLOBS.train_y, 4, rng=0)
    with pytest.raises(ConfigurationError, match="seed must be a non-negative integer"):
        MiniBatchSampler(BLOBS.train_x, BLOBS.train_y, 4, rng=-1)
    with pytest.raises(TypeError):
        MiniBatchSampler(BLOBS.train_x, BLOBS.train_y, 4, rng="seven")
    with pytest.raises(ConfigurationError, match="model must be a Sequential or a factory"):
        HonestWorker(0, "logistic", sampler)
    model = make_model("logistic", input_dim=8, num_classes=3, rng=0)
    assert HonestWorker(0, model, sampler).model is model
    generator = np.random.default_rng(4)
    assert MiniBatchSampler(BLOBS.train_x, BLOBS.train_y, 4, rng=generator)._rng is generator
