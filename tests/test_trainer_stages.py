"""The worker-side stage contract: one body per stage on ``BaseTrainer``.

The lock-step step and the async run handlers are sequences of calls to four
stage methods (fetch framing, compute, encode, uplink pricing); the async
per-event handlers are the run-of-one spelling, whose scalar ``_encode`` and
per-channel ``transfer_frame`` the two array stages must equal bit for bit on
any subset and order of fleet rows — the error-feedback row store and every
PRNG stream included.  Two tests count callers in the syntax tree, so a
second spelling of a stage, or a second gradient function, cannot come back
unnoticed.  The server side closes a round in one place as well: the last
tests count its callers the same way and pin what the close owns — the update
log's sim time, and a clock that moves only once the update was accepted.
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
from repro.cluster.sync import ArrivalBatch
from repro.data.datasets import load_dataset
from repro.exceptions import TrainingError

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
        batch, decoded, errors = staged._encode_rows(
            np.array(rows, dtype=np.intp), gradients.copy()
        )
        expected = [
            scalar._encode(gradients[i], worker_id=int(scalar._fleet.worker_ids[row]))
            for i, row in enumerate(rows)
        ]
        assert len(batch) == len(rows)
        assert [_frame_fields(batch.frame(i)) for i in range(len(rows))] == [
            _frame_fields(f) for f, _ in expected
        ]
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
        batch, _, _ = staged._encode_rows(index, gradients.copy())
        twin_batch, _, _ = scalar._encode_rows(index, gradients.copy())
        touched, nbytes, seconds, penalty = staged._price_uplinks(index, batch)
        for i, row in enumerate(rows):
            worker_id = int(scalar._fleet.worker_ids[row])
            twin_frame = twin_batch.frame(i)
            arrived, solo = scalar.uplink_channels[worker_id].transfer_frame(
                twin_frame, scalar.cost_model
            )
            # Only the rows a channel handed back changed or dropped are reported.
            assert (i in touched) == (arrived is not twin_frame)
            wire = touched[i] if i in touched else batch.frame(i)
            assert _frame_fields(wire) == _frame_fields(arrived)
            assert nbytes[i] == twin_frame.nbytes
            assert seconds[i] == solo
            assert penalty[i] == solo - scalar.cost_model.transfer_time(twin_frame.nbytes)
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
    # The honest encode stage, and the lock-step step's one raw identity
    # batch of Byzantine frames.
    assert _callers(tree, "encode_decode_batch") == {"_encode_rows", "_collect_arrivals"}
    # One compute stage in both modes and both engines: the stacked pass.
    assert _callers(tree, "compute_gradient") == set()
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


def test_one_function_in_src_computes_a_stacked_gradient():
    """``compute_stacked`` is the only caller of the stacked pass but the benchmark's adapter."""
    root = Path(trainer_module.__file__).parents[1]
    callers, naming = set(), set()

    def visit(node, owner):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = f"{owner}.{node.name}" if owner else node.name
        if isinstance(node, ast.Call) and getattr(node.func, "attr", None) == (
            "stacked_loss_and_gradients"
        ):
            callers.add(owner)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    for path in sorted(root.rglob("*.py")):
        source = path.read_text()
        visit(ast.parse(source), None)
        if "FleetComputeKernel" in source:
            naming.add(path.relative_to(root).as_posix())
    assert callers == {"compute_stacked", "FleetComputeKernel.compute"}
    assert naming == {"cluster/fleet.py"}


# ------------------------------------------------------------ the round close
def test_both_engines_close_a_round_in_one_place():
    source = Path(trainer_module.__file__).read_text()
    tree = ast.parse(source)
    assert source.count("self.server.apply_update(") == 1
    assert source.count("StepRecord(") == 1
    assert _callers(tree, "apply_update") == {"_close_round"}
    assert _callers(tree, "StepRecord") == {"_close_round"}
    assert _callers(tree, "_close_round") == {"run_step", "_on_update_done"}
    assert _callers(tree, "_aggregate") == {"run_step", "_maybe_aggregate"}
    # The fabric validates; the trainer never does.
    assert _callers(tree, "validate_rows") == set()


@pytest.mark.parametrize("mode", ["sync", "async"])
def test_the_update_log_carries_each_steps_sim_time(dataset, mode):
    trainer = build_trainer(
        dataset=dataset, model="logistic", model_kwargs={"input_dim": 8, "num_classes": 3},
        num_workers=8, gar="median", batch_size=4, seed=3, mode=mode,
        **({"sync_policy": "quorum"} if mode == "async" else {}),
    )
    records = [trainer.run_step() for _ in range(3)]
    assert [u.sim_time for u in trainer.server.update_log] == [r.sim_time for r in records]
    assert [u.version for u in trainer.server.update_log] == [1, 2, 3]


class _NaNAttack:
    def craft(self, parameters, honest_gradients, num_byzantine, rng):
        return np.full((num_byzantine, parameters.size), np.nan)


def test_a_rejected_update_leaves_the_clock_where_it_was(dataset):
    trainer = build_trainer(
        dataset=dataset, model="logistic", model_kwargs={"input_dim": 8, "num_classes": 3},
        num_workers=5, num_byzantine=1, attack="sign-flip", gar="average", seed=3,
    )
    trainer.run_step()
    now, updates = trainer.clock.now, len(trainer.server.update_log)
    trainer.byzantine_workers[0].attack = _NaNAttack()
    with pytest.raises(TrainingError, match="non-finite"):
        trainer.run_step()
    assert trainer.clock.now == now
    assert len(trainer.server.update_log) == updates


def test_an_empty_round_is_refused_before_the_fabric(dataset):
    trainer = _build(dataset)
    with pytest.raises(TrainingError, match="every gradient was dropped"):
        trainer._aggregate(ArrivalBatch.empty())
