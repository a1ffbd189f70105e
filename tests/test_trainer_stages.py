"""The worker-side stage contract: one body per stage on ``BaseTrainer``.

The lock-step step and the async run handlers are sequences of calls to four
stage methods (fetch framing, compute, encode, uplink pricing); the async
per-event handlers are the run-of-one spelling, whose scalar ``_encode`` and
per-channel ``transfer_frame`` the two array stages must equal bit for bit on
any subset and order of fleet rows — the error-feedback row store and every
PRNG stream included.  The last test counts callers in the syntax tree, so a
second spelling of a stage cannot come back unnoticed.
"""

import ast
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cluster import build_trainer
from repro.cluster import trainer as trainer_module
from repro.cluster.checkpoint import _channel_rngs
from repro.cluster.codec import decode_frame
from repro.data.datasets import load_dataset

NUM_WORKERS = 9  # worker 0 is Byzantine: fleet rows 0..7 are worker ids 1..8
NUM_HONEST = 8
CODECS = {
    "identity": {},
    "top-k": {"codec": "top-k", "codec_k": 6},
    "random-k": {"codec": "random-k", "codec_k": 6},
    "qsgd": {"codec": "qsgd", "quantize_bits": 3},
}

#: Three consecutive rounds, each over its own subset and order of fleet rows.
_rounds = st.lists(
    st.lists(st.integers(0, NUM_HONEST - 1), unique=True, min_size=1),
    min_size=3, max_size=3,
)


@pytest.fixture(scope="module")
def dataset():
    return load_dataset("blobs", num_train=120, num_test=30, num_classes=3, dim=8, rng=0)


def _build(dataset, **kwargs):
    return build_trainer(
        dataset=dataset, model="logistic",
        model_kwargs={"input_dim": 8, "num_classes": 3},
        num_workers=NUM_WORKERS, num_byzantine=1, attack="sign-flip", declared_f=1,
        gar="median", seed=11, **kwargs,
    )


def _gradients(seed, count, dim):
    """Rows a codec can get wrong: a zero row, negative zeros, a huge row."""
    matrix = np.random.default_rng(seed).standard_normal((count, dim))
    matrix[0, ::3] = -0.0
    if count > 1:
        matrix[1] = 0.0  # qsgd: consumes no PRNG draw, forces its loop fallback
    if count > 2:
        matrix[2] *= 1e9
    return matrix


def _bits(array):
    return None if array is None else (array.dtype.str, array.shape, array.tobytes())


def _frame_fields(frame):
    if frame is None:
        return None
    return (
        frame.dim, frame.codec, frame.nbytes, frame.scale, frame.shared_support,
        _bits(np.asarray(frame.values)),
        None if frame.indices is None else np.asarray(frame.indices).tolist(),
    )


def _codec_state(trainer):
    rng = getattr(trainer.codec, "_rng", None)
    return None if rng is None else rng.bit_generator.state


@pytest.mark.parametrize("error_feedback", [True, False], ids=["ef", "no-ef"])
@pytest.mark.parametrize("codec", sorted(CODECS))
@settings(max_examples=20, deadline=None)
@given(rounds=_rounds, seed=st.integers(0, 2**16))
def test_encode_stage_equals_sequential_scalar_encodes(
    dataset, codec, error_feedback, rounds, seed
):
    staged = _build(dataset, error_feedback=error_feedback, **CODECS[codec])
    scalar = _build(dataset, error_feedback=error_feedback, **CODECS[codec])
    dim = staged.server.dim
    for number, rows in enumerate(rounds):
        gradients = _gradients(seed + number, len(rows), dim)
        frames, decoded, errors = staged._encode_rows(
            np.array(rows, dtype=np.intp), gradients.copy()
        )
        expected = [
            scalar._encode(
                gradients[i], honest=True, worker_id=int(scalar._fleet.worker_ids[row])
            )
            for i, row in enumerate(rows)
        ]
        assert [_frame_fields(f) for f in frames] == [_frame_fields(f) for f, _ in expected]
        assert errors.tolist() == [error for _, error in expected]
        for i, (frame, _) in enumerate(expected):
            assert _bits(decoded[i]) == _bits(decode_frame(frame))
        # The one error-feedback store, row for row and bit for bit.
        assert staged._fleet.ef_has_memory.tolist() == scalar._fleet.ef_has_memory.tolist()
        assert _bits(staged._fleet.ef_memory) == _bits(scalar._fleet.ef_memory)
        assert _codec_state(staged) == _codec_state(scalar)
    carries = error_feedback and codec != "identity"
    touched = sorted({row for rows in rounds for row in rows})
    assert np.flatnonzero(staged._fleet.ef_has_memory).tolist() == (touched if carries else [])


@pytest.mark.parametrize("codec", ["identity", "top-k"])
@settings(max_examples=20, deadline=None)
@given(rounds=_rounds, seed=st.integers(0, 2**16))
def test_uplink_pricing_equals_per_row_transfer_frame(dataset, codec, rounds, seed):
    # Workers 7 and 8 are lossy, 3 is jittered, 8 is also delayed (a delayed
    # channel wrapping a lossy one); the rest keep the transparent default.
    channels = dict(
        lossy_links=2, lossy_drop_rate=0.3, lossy_policy="random-fill",
        link_jitters={3: 0.2}, link_delays={8: 0.5},
    )
    staged = _build(dataset, **channels, **CODECS[codec])
    scalar = _build(dataset, **channels, **CODECS[codec])
    assert staged._uplink_transparent().tolist() == [w not in (3, 7, 8) for w in range(1, 9)]
    dim = staged.server.dim
    for number, rows in enumerate(rounds):
        gradients = _gradients(seed + number, len(rows), dim)
        index = np.array(rows, dtype=np.intp)
        frames, _, _ = staged._encode_rows(index, gradients.copy())
        twin_frames, _, _ = scalar._encode_rows(index, gradients.copy())
        wires, nbytes, seconds, penalty = staged._price_uplinks(index, frames)
        for i, row in enumerate(rows):
            worker_id = int(scalar._fleet.worker_ids[row])
            arrived, solo = scalar.uplink_channels[worker_id].transfer_frame(
                twin_frames[i], scalar.cost_model
            )
            assert _frame_fields(wires[i]) == _frame_fields(arrived)
            assert (wires[i] is frames[i]) == (arrived is twin_frames[i])
            assert nbytes[i] == twin_frames[i].nbytes
            assert seconds[i] == solo
            assert penalty[i] == solo - scalar.cost_model.transfer_time(twin_frames[i].nbytes)
        for worker_id in range(1, NUM_WORKERS):
            assert [
                (label, rng.bit_generator.state)
                for label, rng in _channel_rngs(staged.uplink_channels[worker_id], "c")
            ] == [
                (label, rng.bit_generator.state)
                for label, rng in _channel_rngs(scalar.uplink_channels[worker_id], "c")
            ]


def _callers(tree, callee):
    """Names of the innermost functions of *tree* whose body calls *callee*."""
    found = set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            owner = node.name
        if isinstance(node, ast.Call):
            func = node.func
            name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
            if name == callee:
                found.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


def test_each_worker_stage_has_exactly_one_calling_function():
    tree = ast.parse(Path(trainer_module.__file__).read_text())
    assert _callers(tree, "encode_decode_batch") == {"_encode_rows"}
    assert _callers(tree, "_fleet_gradients") == {"_compute_gradients"}
    # Exact compute: the stacked pass, and the replica loop as its one fallback.
    assert _callers(tree, "compute_gradient") == {"_exact_gradients"}
    assert _callers(tree, "compute_stacked") == {"_exact_gradients"}
    assert _callers(tree, "_exact_gradients") == {"_compute_gradients", "_on_compute"}
    assert _callers(tree, "open_many") == {"_open_run_sessions"}
    # Honest uplinks: the batched ideal wire time is priced in one place, and
    # the only other transfer_frame calls are the per-event push and the
    # lock-step step's raw Byzantine frames.
    assert _callers(tree, "transfer_time_batch") == {"_price_uplinks"}
    assert _callers(tree, "transfer_frame") == {"_price_uplinks", "_on_push", "_collect_arrivals"}
    # Both engines are made of the four stages.
    for stage in ("_frame_fetches", "_compute_gradients", "_encode_rows", "_price_uplinks"):
        callers = _callers(tree, stage)
        assert "_collect_arrivals" in callers, stage
        assert callers - {"_collect_arrivals"} <= {
            "_on_fetch_batch", "_on_compute_batch", "_on_push_batch"
        }, stage
        assert len(callers) == 2, (stage, callers)
    # One admission body: the pool has one writer, which both ``arrive``
    # handlers (and nothing else) run per event.
    assert _callers(tree, "put") == {"_admit_arrival"}
    assert _callers(tree, "_admit_arrival") == {"_on_arrive", "_on_arrive_batch"}
