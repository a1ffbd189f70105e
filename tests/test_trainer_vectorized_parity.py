"""Bitwise parity: the array-at-a-time collect path against the frozen per-worker loop.

The collect path's contract is *bit identity* with the per-worker loop it
replaced (frozen verbatim as ``tests/trainer_reference.py``): every
elementwise array operation produces the floats the per-worker scalar
operation would, every RNG draw happens in the same stream in the same
order, and the stable argsort over arrival times reproduces the event heap's
``(time, order)`` pop order exactly.  Each scenario below trains the same
deployment twice — as ``build_trainer`` returns it, and re-classed onto the
frozen reference bodies — and requires byte-identical final parameters *and*
a byte-identical telemetry export.

These scenarios deliberately sweep every hot-path branch: all four codecs
(with and without error feedback), stragglers, link contention (also with a
persistent straggler whose push starts after every other transfer has
landed), a WAN topology, delta broadcasts, lossy links and compact
telemetry.
"""

import numpy as np
import pytest

from repro.cluster.builder import build_trainer
from repro.cluster.cost_model import StragglerModel
from repro.cluster.trainer import TrainerConfig
from repro.data.datasets import gaussian_blobs
from tests.trainer_reference import as_loop_reference

SCENARIOS = {
    "identity": {},
    "topk_ef": {"codec": "top-k", "codec_k": 8},
    "randomk": {"codec": "random-k", "codec_k": 8, "error_feedback": False},
    "qsgd_ef": {"codec": "qsgd", "quantize_bits": 4},
    "straggler": {"straggler_model": StragglerModel("pareto")},
    "contended": {"link_sharing": "fair"},
    "straggler_contended": {
        "straggler_model": StragglerModel("pareto"),
        "worker_speeds": {2: 1e-6},
        "link_sharing": "fair",
    },
    "wan": {"link_profile": "wan:2x10mbit/5ms", "link_sharing": "fair"},
    "broadcast_delta": {"broadcast_codec": "top-k", "broadcast_k": 8},
    "lossy": {"lossy_links": 3, "lossy_drop_rate": 0.3},
    "compact_telemetry": {"compact_telemetry": True},
}


def _run(overrides: dict, *, reference: bool = False):
    kwargs = dict(
        model="logistic",
        model_kwargs={"input_dim": 10, "num_classes": 5},
        dataset=gaussian_blobs(num_train=2000, num_classes=5, dim=10, rng=3),
        gar="median",
        num_workers=8,
        num_byzantine=2,
        attack="sign-flip",
        batch_size=16,
        learning_rate=0.05,
        seed=11,
    )
    kwargs.update(overrides)
    trainer = build_trainer(**kwargs)
    if reference:
        trainer = as_loop_reference(trainer)
    history = trainer.run(TrainerConfig(max_steps=6, eval_every=0))
    return trainer, history


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_vectorized_path_is_bit_identical_to_the_loop(name):
    overrides = SCENARIOS[name]
    vec_trainer, vec_history = _run(overrides)
    loop_trainer, loop_history = _run(overrides, reference=True)
    np.testing.assert_array_equal(
        vec_trainer.server.parameters, loop_trainer.server.parameters
    )
    assert vec_trainer.clock.now == loop_trainer.clock.now
    assert vec_history.to_dict() == loop_history.to_dict()
    # Event accounting agrees even though the live path never builds the
    # per-step heap.
    assert vec_trainer.events_dispatched == loop_trainer.events_dispatched
    assert vec_trainer.peak_queue_size == loop_trainer.peak_queue_size


def test_vectorized_parity_with_selection_gar():
    # Multi-Krum surfaces selected_workers / selection_scores through the
    # aggregation fast path — the diagnostics must match the loop's.
    overrides = {"gar": "multi-krum", "codec": "top-k", "codec_k": 8}
    vec_trainer, vec_history = _run(overrides)
    loop_trainer, loop_history = _run(overrides, reference=True)
    np.testing.assert_array_equal(
        vec_trainer.server.parameters, loop_trainer.server.parameters
    )
    vec_steps = vec_history.steps
    loop_steps = loop_history.steps
    assert [s.selected_workers for s in vec_steps] == [
        s.selected_workers for s in loop_steps
    ]
    assert [s.selection_scores for s in vec_steps] == [
        s.selection_scores for s in loop_steps
    ]
