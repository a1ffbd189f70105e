"""A lock-step step's Python does not grow with the fleet.

The step keeps its per-worker state in columns — the arrival plane in one
``ArrivalBatch``, the wire plane in one ``FrameBatch`` — so, from the second
step on, the number of Python and C calls ``sys.setprofile`` sees in one
``run_step`` is the same at 50 and at 500 workers.  Two deployments: the
``sync_10k_topk`` shape (top-k codec, fleet compute mode, compact telemetry)
and the ``wan_sharded_sync_2k`` shape (identity codec, a fair-shared 2-region
WAN, the region-sharded service).  A transparent honest uplink never mints a
``WireFrame``.
"""

import gc
import sys

import pytest

from repro.cluster import build_trainer
from repro.cluster.codec import WireFrame
from repro.data.datasets import load_dataset

DEPLOYMENTS = {
    "top-k": {"codec": "top-k", "codec_k": 8},
    "wan-region-sharded": {
        "codec": "identity", "link_profile": "wan:2x10mbit/5ms", "link_sharing": "fair",
        "server_topology": "region-sharded",
    },
}


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("blobs", num_train=400, num_test=50, num_classes=5, dim=10, rng=0)


def _counted_step(trainer):
    """``(calls, WireFrame inits)`` of one ``run_step``."""
    counts = {"calls": 0, "frames": 0}

    def profile(frame, event, arg):
        if event in ("call", "c_call"):
            counts["calls"] += 1
            if (
                event == "call" and frame.f_code.co_name == "__init__"
                and type(frame.f_locals.get("self")) is WireFrame
            ):
                counts["frames"] += 1

    # A cyclic collection mid-step would run other tests' finalizers and
    # callbacks under the profiler: collect first, then keep it out.
    gc.collect()
    gc.disable()
    sys.setprofile(profile)
    try:
        trainer.run_step()
    finally:
        sys.setprofile(None)
        gc.enable()
    return counts["calls"], counts["frames"]


def _steps(dataset, num_workers, deployment):
    trainer = build_trainer(
        dataset=dataset, model="logistic", model_kwargs={"input_dim": 10, "num_classes": 5},
        num_workers=num_workers, num_byzantine=0, declared_f=0, gar="median",
        batch_size=2, sync_policy="full-sync", compute_mode="fleet",
        compact_telemetry=True, seed=5, **DEPLOYMENTS[deployment],
    )
    trainer.run_step()  # the first step builds what the later ones reuse
    return [_counted_step(trainer) for _ in range(2)]


@pytest.mark.parametrize("deployment", sorted(DEPLOYMENTS))
def test_a_steps_call_count_does_not_depend_on_the_fleet_size(dataset, deployment):
    small = _steps(dataset, 50, deployment)
    large = _steps(dataset, 500, deployment)
    assert [calls for calls, _ in small] == [calls for calls, _ in large]
    assert [frames for _, frames in small + large] == [0] * 4
