"""The six benchmark workloads: what is built, how long it runs, and why.

Each workload is one simulated deployment driven through the stable public
surface only (``load_dataset`` → ``build_trainer`` → ``trainer.run`` →
``history.to_dict``) and, for ``cli_wall_s``, through ``python -m
repro.runner`` with the flags :func:`cli_args` derives from the very same
keyword arguments — the API/CLI digest check in the harness proves the two
describe one deployment.  No flag slated for removal (``vectorized``,
``gar_selection``) is ever passed.

Sizes are set so one session takes ~0.7-1.0 s on the reference box in its
fast state: the driver gives a run ``run_seconds`` of measuring, and a steady
median needs as many sessions inside it as will fit.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List

WAN = "wan:4x10mbit/20ms"

#: The tiny deployment every fleet-scale workload starts from: a 55-parameter
#: logistic model on 5-class blobs, so host time is simulator overhead and
#: never the maths.
TINY_DATASET = {"name": "blobs", "num_train": 2000, "num_classes": 5, "dim": 10}
TINY = {
    "model": "logistic",
    "model_kwargs": {"input_dim": 10, "num_classes": 5},
    "gar": "median",
    "batch_size": 2,
    "num_byzantine": 0,
    "declared_f": 2,
    "codec": "top-k",
    "codec_k": 8,
    "compute_mode": "fleet",
    "compact_telemetry": True,
}


@dataclass(frozen=True)
class Workload:
    """One deployment, its length, and the reason it is in the benchmark."""

    name: str
    why: str
    dataset: Dict
    trainer: Dict
    steps: int
    eval_every: int = 0  # 0 = one evaluation, after the last step
    #: A full-scale session ending below this accuracy fails its check.
    accuracy_floor: float = 0.0
    #: Overrides for ``--scale smoke`` (<= 60 workers, 2 steps; the tests).
    smoke: Dict = field(default_factory=dict)

    @property
    def lock_step(self) -> bool:
        return self.trainer.get("mode", "sync") == "sync"

    @property
    def num_workers(self) -> int:
        return int(self.trainer["num_workers"])

    def scaled(self, scale: str) -> "Workload":
        """This workload at *scale* (``"full"`` or ``"smoke"``)."""
        if scale == "full":
            return self
        if scale != "smoke":
            raise ValueError(f"unknown scale {scale!r}; choose full or smoke")
        return replace(
            self,
            dataset={**self.dataset, **self.smoke.get("dataset", {})},
            trainer={**self.trainer, **self.smoke.get("trainer", {})},
            steps=2,
            eval_every=0,
            accuracy_floor=0.0,
        )


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper_bulyan_lossy",
            why="the paper's 19-worker f=4 Bulyan deployment under attack and packet "
                "loss: kernels and nn do the work, the only workload through packets",
            dataset={"name": "blobs", "num_train": 4000, "num_test": 1000,
                     "num_classes": 10, "dim": 1024},
            trainer={
                "model": "mlp",
                "model_kwargs": {"input_dim": 1024, "hidden": 96, "num_classes": 10},
                "gar": "bulyan",
                "num_workers": 19,
                "declared_f": 4,
                "num_byzantine": 2,
                "attack": "reversed-gradient",
                "lossy_links": 2,
                "lossy_drop_rate": 0.1,
                "lossy_policy": "random-fill",
                "batch_size": 100,
                "optimizer": "rmsprop",
            },
            steps=6,
            eval_every=3,
            accuracy_floor=0.95,  # under two attackers and two lossy uplinks
            smoke={
                "dataset": {"num_train": 400, "num_test": 100, "dim": 64},
                "trainer": {"model_kwargs": {"input_dim": 64, "hidden": 16,
                                             "num_classes": 10}},
            },
        ),
        Workload(
            name="sync_10k_topk",
            why="10,000 lock-step workers: trainer glue, batched top-k codec, fleet "
                "kernel, a 3.9 MB telemetry export and a 0.5 s build; the memory workload",
            dataset=TINY_DATASET,
            trainer={**TINY, "num_workers": 10_000},
            steps=3,
            smoke={"trainer": {"num_workers": 60}},
        ),
        Workload(
            name="async_quorum_1k",
            why="1000 workers on the async event stream with a quorum policy: event "
                "queue, async trainer glue, admission and PendingPool; GAR and link idle",
            dataset=TINY_DATASET,
            trainer={**TINY, "num_workers": 1000, "mode": "async",
                     "sync_policy": "quorum"},
            steps=24,
            smoke={"trainer": {"num_workers": 60}},
        ),
        Workload(
            name="wan_sharded_sync_2k",
            why="2000 lock-step workers, identity codec, fair-shared 4-region WAN, "
                "region-sharded service: closed-world link simulate, per-shard frame "
                "pricing and the only workload where the server fabric runs",
            dataset=TINY_DATASET,
            trainer={**TINY, "num_workers": 2000, "codec": "identity", "codec_k": None,
                     "link_profile": WAN, "link_sharing": "fair",
                     "server_topology": "region-sharded"},
            steps=12,
            smoke={"trainer": {"num_workers": 60}},
        ),
        Workload(
            name="bulyan_attack_600",
            why="600 workers, 20 sign-flip Byzantine, Bulyan f=20: distance matrix and "
                "bulyan_select are nearly all of the time, so a kernel change shows here "
                "and nowhere else",
            dataset=TINY_DATASET,
            trainer={**TINY, "num_workers": 600, "num_byzantine": 20, "declared_f": 20,
                     "gar": "bulyan", "attack": "sign-flip"},
            steps=9,
            smoke={"trainer": {"num_workers": 60, "num_byzantine": 3, "declared_f": 3}},
        ),
        Workload(
            name="wan_delta_fifo_400",
            why="400 async workers on the same WAN with fifo sharing and top-k delta "
                "broadcasts: the event-driven link path (open_many/advance/reschedule), "
                "the downlink codec and exact per-worker compute",
            dataset=TINY_DATASET,
            trainer={**TINY, "num_workers": 400, "mode": "async",
                     "sync_policy": "quorum", "compute_mode": "exact",
                     "link_profile": WAN, "link_sharing": "fifo",
                     "broadcast_codec": "top-k", "broadcast_k": 8},
            steps=5,
            smoke={"trainer": {"num_workers": 60}},
        ),
    )
}

#: ``build_trainer`` keyword -> ``repro.runner`` flag (the runner's own mapping,
#: read off ``runner.run``; the digest check fails if it drifts).
_FLAGS = {
    "model": "--experiment",
    "gar": "--aggregator",
    "num_workers": "--nb-workers",
    "declared_f": "--nb-decl-byz",
    "num_byzantine": "--nb-real-byz",
    "attack": "--attack",
    "batch_size": "--batch-size",
    "optimizer": "--optimizer",
    "mode": "--mode",
    "sync_policy": "--sync-policy",
    "codec": "--codec",
    "codec_k": "--codec-k",
    "broadcast_codec": "--broadcast-codec",
    "broadcast_k": "--broadcast-k",
    "link_sharing": "--link-sharing",
    "link_profile": "--link-profile",
    "server_topology": "--server-topology",
    "compute_mode": "--compute-mode",
    "lossy_links": "--lossy-links",
    "lossy_drop_rate": "--drop-rate",
    "lossy_policy": "--recovery-policy",
}


def _kv(mapping: Dict) -> str:
    return " ".join(f"{key}:{value}" for key, value in mapping.items())


def cli_args(workload: Workload, seed: int, output: str) -> List[str]:
    """``python -m repro.runner`` arguments describing *workload* at *seed*."""
    dataset = dict(workload.dataset)
    args = [
        "--dataset", dataset.pop("name"),
        "--dataset-args", _kv(dataset),
        "--max-step", str(workload.steps),
        "--evaluation-delta", str(workload.eval_every or workload.steps),
        "--seed", str(seed),
        "--output", output,
    ]
    for key, value in workload.trainer.items():
        if value is None:
            continue
        if key == "model_kwargs":
            args += ["--experiment-args", _kv(value)]
        elif key == "compact_telemetry":
            if value:
                args.append("--compact-telemetry")
        else:
            args += [_FLAGS[key], str(value)]
    return args
