"""Simulated synchronous parameter-server cluster.

This package is the stand-in for the paper's Grid5000 deployment of
TensorFlow: a discrete-event simulation of the standard synchronous parameter
server model (one trusted server, ``n`` workers of which up to ``f`` are
Byzantine), with

* a simulated clock driven by a calibrated cost model (gradient computation,
  network transfer, aggregation),
* a reliable TCP-like transport and a lossy UDP-like transport (lossyMPI
  analogue) with the three §3.3 recovery policies,
* honest, data-corrupted and Byzantine (attack-driven) workers,
* pluggable synchrony policies (full synchrony, quorum, bounded staleness)
  deciding which gradient arrivals the server waits for each step,
* a trainer pipeline that reproduces the paper's metrics: accuracy vs
  time, accuracy vs model updates, throughput, and latency breakdowns.
"""

from repro.cluster.clock import SimulatedClock
from repro.cluster.codec import (
    CODEC_REGISTRY,
    IdentityCodec,
    QSGDCodec,
    RandomKCodec,
    TopKCodec,
    WireCodec,
    WireFrame,
    available_codecs,
    decode_frame,
    make_codec,
)
from repro.cluster.cost_model import CostModel, StragglerModel
from repro.cluster.deploy import ClusterSpec, NodeSpec, allocate_devices
from repro.cluster.events import Event, EventLoop, EventQueue
from repro.cluster.link import (
    DEFAULT_REGION,
    SHARING_MODES,
    LinkFabric,
    LinkScheduler,
    LinkSession,
    LinkTopology,
    RegionLink,
    parse_link_profile,
)
from repro.cluster.message import GradientMessage
from repro.cluster.packets import Packetizer, RecoveryPolicy
from repro.cluster.network import (
    ReliableChannel,
    DelayedChannel,
    LossyChannel,
    Channel,
    build_uplink_map,
)
from repro.cluster.sync import (
    AdmissionPredicate,
    ArrivalBatch,
    BoundedStaleness,
    FullSync,
    Quorum,
    SyncDecision,
    SyncPolicy,
    available_sync_policies,
    make_sync_policy,
)
from repro.cluster.worker import HonestWorker, ByzantineWorker, Worker
from repro.cluster.server import ParameterServer, UpdateRecord
from repro.cluster.telemetry import TrainingHistory, StepRecord, EvalRecord, WorkerTimeline
from repro.cluster.trainer import (
    AsyncTrainer,
    BaseTrainer,
    DownlinkSession,
    SynchronousTrainer,
    TrainerConfig,
)
from repro.cluster.builder import build_trainer
from repro.cluster.checkpoint import (
    Checkpoint,
    CheckpointManager,
    TrainingState,
    capture_training_state,
    load_checkpoint,
    load_training_state,
    restore_training_state,
    save_checkpoint,
    save_training_state,
    write_summary_csv,
)
from repro.cluster.service import majority_model

__all__ = [
    "SimulatedClock",
    "CostModel",
    "StragglerModel",
    "WireCodec",
    "WireFrame",
    "IdentityCodec",
    "TopKCodec",
    "RandomKCodec",
    "QSGDCodec",
    "CODEC_REGISTRY",
    "available_codecs",
    "decode_frame",
    "make_codec",
    "LinkScheduler",
    "LinkSession",
    "LinkFabric",
    "LinkTopology",
    "RegionLink",
    "DEFAULT_REGION",
    "parse_link_profile",
    "SHARING_MODES",
    "Event",
    "EventLoop",
    "EventQueue",
    "AdmissionPredicate",
    "ArrivalBatch",
    "SyncDecision",
    "SyncPolicy",
    "FullSync",
    "Quorum",
    "BoundedStaleness",
    "make_sync_policy",
    "available_sync_policies",
    "DelayedChannel",
    "ClusterSpec",
    "NodeSpec",
    "allocate_devices",
    "GradientMessage",
    "Packetizer",
    "RecoveryPolicy",
    "Channel",
    "ReliableChannel",
    "LossyChannel",
    "build_uplink_map",
    "Worker",
    "HonestWorker",
    "ByzantineWorker",
    "ParameterServer",
    "UpdateRecord",
    "TrainingHistory",
    "StepRecord",
    "EvalRecord",
    "WorkerTimeline",
    "BaseTrainer",
    "SynchronousTrainer",
    "AsyncTrainer",
    "TrainerConfig",
    "DownlinkSession",
    "build_trainer",
    "Checkpoint",
    "CheckpointManager",
    "TrainingState",
    "capture_training_state",
    "restore_training_state",
    "save_training_state",
    "load_training_state",
    "save_checkpoint",
    "load_checkpoint",
    "write_summary_csv",
    "majority_model",
]
