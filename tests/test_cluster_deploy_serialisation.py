"""Tests for cluster-spec JSON (de)serialisation (the deploy-tool file format)."""

import json

import pytest

from repro.cluster import ClusterSpec, NodeSpec, allocate_devices
from repro.exceptions import ConfigurationError


def test_to_dict_roundtrip():
    spec = allocate_devices(ClusterSpec.homogeneous(4), 3)
    rebuilt = ClusterSpec.from_dict(spec.to_dict())
    assert rebuilt.server_node == spec.server_node
    assert rebuilt.worker_nodes == spec.worker_nodes
    assert [n.name for n in rebuilt.nodes] == [n.name for n in spec.nodes]


def test_json_file_roundtrip(tmp_path):
    spec = allocate_devices(ClusterSpec.homogeneous(3), 2)
    path = tmp_path / "cluster.json"
    spec.to_json(path)
    rebuilt = ClusterSpec.from_json(path)
    assert rebuilt.to_dict() == spec.to_dict()


def test_json_string_roundtrip():
    spec = ClusterSpec(nodes=[NodeSpec("a", compute_gflops=10), NodeSpec("b")])
    rebuilt = ClusterSpec.from_json(spec.to_json())
    assert rebuilt.node("a").compute_gflops == 10


def test_heterogeneous_properties_survive():
    nodes = [
        NodeSpec("gpu0", compute_gflops=500.0, has_gpu=True),
        NodeSpec("cpu0", compute_gflops=50.0),
    ]
    rebuilt = ClusterSpec.from_dict(ClusterSpec(nodes=nodes).to_dict())
    assert rebuilt.node("gpu0").has_gpu is True
    assert rebuilt.node("cpu0").compute_gflops == 50.0


def test_unknown_worker_reference_rejected():
    data = ClusterSpec.homogeneous(2).to_dict()
    data["worker_nodes"] = ["node7"]
    with pytest.raises(ConfigurationError):
        ClusterSpec.from_dict(data)


def test_malformed_payloads_rejected():
    with pytest.raises(ConfigurationError):
        ClusterSpec.from_dict({"nodes": [{"bogus": 1}]})
    with pytest.raises(ConfigurationError):
        ClusterSpec.from_json("{not json")
    with pytest.raises(ConfigurationError):
        ClusterSpec.from_dict({})


def test_builder_accepts_deserialised_cluster(tiny_dataset, tiny_model_kwargs, tmp_path):
    from repro.cluster import TrainerConfig, build_trainer

    path = tmp_path / "cluster.json"
    allocate_devices(ClusterSpec.homogeneous(5), 4).to_json(path)
    trainer = build_trainer(
        model="mlp", model_kwargs=tiny_model_kwargs, dataset=tiny_dataset,
        gar="average", num_workers=4, batch_size=16, seed=0,
        cluster=ClusterSpec.from_json(path),
    )
    history = trainer.run(TrainerConfig(max_steps=5, eval_every=0))
    assert history.num_updates == 5


def test_spec_server_topology_reaches_the_fabric(tiny_dataset, tiny_model_kwargs):
    import dataclasses

    from repro.cluster import build_trainer

    spec = dataclasses.replace(ClusterSpec.homogeneous(5), server_topology="shards:2")
    restored = ClusterSpec.from_dict(json.loads(json.dumps(spec.to_dict())))
    assert restored.server_topology == "shards:2"
    kwargs = dict(
        model="mlp", model_kwargs=tiny_model_kwargs, dataset=tiny_dataset,
        gar="average", num_workers=4, batch_size=16, seed=0, cluster=restored,
    )
    trainer = build_trainer(**kwargs)
    assert trainer.service.topology.spec == "shards:2"
    assert trainer.cluster.server_topology == "shards:2"  # survives allocation
    # The builder's own argument overrides the spec's field.
    assert build_trainer(server_topology="replicas:3", **kwargs).service.num_actors == 3
    assert build_trainer(server_topology="single", **kwargs).service.topology.spec == "single"
