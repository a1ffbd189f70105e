"""``FrameBatch``: a codec's batch encode, in columns, is its frozen per-row encode.

For every built-in codec — top-k with ``k >= d`` and qsgd's zero and
non-finite rows included — ``batch.frame(i)`` is the frozen scalar encode
of ``M[i]`` (``tests/codec_reference.py``) field for field, the codec's PRNG
ends where the per-row loop leaves it, the decoded matrix and the per-shard
pricing equal the frozen list-of-frames functions row for row, a stacked
list of frames round-trips, and the rows ``DeliveredFrames`` picks by an
int array keep their channels' verdicts.
"""

import numpy as np
import pytest

from repro.cluster.codec import (
    DeliveredFrames,
    IdentityCodec,
    QSGDCodec,
    RandomKCodec,
    TopKCodec,
    WireFrame,
    decode_frame,
)
from repro.exceptions import ConfigurationError
from tests.codec_reference import (
    decode_frames,
    encode,
    shard_frame_bytes,
    shard_frame_bytes_batch,
    stack,
)

DIM = 23
CODECS = {
    "identity": lambda: IdentityCodec(),
    "top-k": lambda: TopKCodec(k=5),
    "top-k-all": lambda: TopKCodec(k=DIM + 4),  # k >= d keeps every coordinate
    "random-k": lambda: RandomKCodec(k=5, rng=9),
    "qsgd": lambda: QSGDCodec(bits=3, rng=9),
}
MATRICES = {
    "plain": lambda rng: rng.standard_normal((7, DIM)),
    "ties-and-negative-zeros": lambda rng: np.where(
        rng.random((7, DIM)) < 0.5, -0.0, np.round(rng.standard_normal((7, DIM)))
    ),
    "zero-row": lambda rng: np.vstack([rng.standard_normal((3, DIM)), np.zeros((1, DIM)),
                                       rng.standard_normal((3, DIM))]),
    "non-finite-rows": lambda rng: np.vstack([
        rng.standard_normal((2, DIM)), np.full((1, DIM), np.inf),
        rng.standard_normal((2, DIM)), np.full((1, DIM), np.nan),
    ]),
}
BOUNDS = [[(0, DIM)], [(0, 11), (11, DIM)], [(0, 3), (3, 9), (9, 20), (20, DIM)]]


def _fields(frame: WireFrame):
    def bits(array):
        return None if array is None else np.asarray(array).tobytes()

    return (
        frame.dim, frame.codec, frame.nbytes, frame.scale, frame.shared_support,
        np.asarray(frame.values).dtype.str,
        np.shape(frame.values), bits(frame.values), bits(frame.indices),
    )


def _state(codec):
    rng = getattr(codec, "_rng", None)
    return None if rng is None else rng.bit_generator.state


@pytest.mark.parametrize("matrix", sorted(MATRICES))
@pytest.mark.parametrize("name", sorted(CODECS))
def test_each_row_is_the_per_row_encode(name, matrix):
    values = MATRICES[matrix](np.random.default_rng(3))
    batched, looped = CODECS[name](), CODECS[name]()
    with np.errstate(invalid="ignore", over="ignore"):
        batch, decoded = batched.encode_decode_batch(values)
        expected = [encode(looped, row) for row in values]
    assert len(batch) == len(expected)
    assert [_fields(batch.frame(i)) for i in range(len(batch))] == [
        _fields(frame) for frame in expected
    ]
    assert _state(batched) == _state(looped)
    with np.errstate(invalid="ignore"):
        assert decoded.tobytes() == np.stack([decode_frame(f) for f in expected]).tobytes()
        assert decoded.tobytes() == decode_frames(expected).tobytes()
        assert batch.decode().tobytes() == decoded.tobytes()
    for bounds in BOUNDS:
        split = batch.shard_bytes(bounds)
        assert split.tobytes() == np.stack(
            [shard_frame_bytes(frame, bounds) for frame in expected]
        ).tobytes()
        assert split.tobytes() == shard_frame_bytes_batch(expected, bounds).tobytes()


@pytest.mark.parametrize("name", sorted(CODECS))
def test_a_stacked_frame_list_round_trips(name):
    values = MATRICES["zero-row"](np.random.default_rng(4))
    frames = [encode(CODECS[name](), row) for row in values]
    batch = stack(frames)
    assert [_fields(batch.frame(i)) for i in range(len(batch))] == [_fields(f) for f in frames]
    assert batch.decode().tobytes() == decode_frames(frames).tobytes()


def test_frames_of_different_codecs_or_prices_do_not_stack():
    row = np.arange(1.0, DIM + 1.0)
    with pytest.raises(ConfigurationError, match="one codec, dim, price and shape"):
        stack([encode(IdentityCodec(), row), encode(TopKCodec(k=DIM), row)])
    with pytest.raises(ConfigurationError, match="one codec, dim, price and shape"):
        stack([encode(TopKCodec(k=3), row), encode(TopKCodec(k=4), row)])


def test_frame_values_are_row_views_of_the_batch():
    matrix = np.random.default_rng(5).standard_normal((3, DIM))
    batch = TopKCodec(k=4).encode_decode_batch(matrix)[0]
    frame = batch.frame(1)
    assert np.shares_memory(frame.values, batch.values)
    assert np.shares_memory(frame.indices, batch.indices)


@pytest.mark.parametrize("name", ["identity", "top-k", "qsgd"])
@pytest.mark.parametrize("picked", [[6, 5, 4, 3, 2, 1, 0], [2, 2, 5, 2], [5, 0], [3], []])
def test_rows_picked_by_an_int_array_keep_their_channels_verdicts(name, picked):
    """An ``arrive`` cohort's rows landing at several instants: ``delivered[index]``."""
    values = MATRICES["plain"](np.random.default_rng(6))
    batch, decoded = CODECS[name]().encode_decode_batch(values)
    degraded = batch.frame(2).degraded(np.full(np.shape(batch.frame(2).values), -7.5))
    delivered = DeliveredFrames(batch, {2: degraded, 5: None})
    index = np.array(picked, dtype=np.intp)
    part = delivered[index]
    assert len(part) == len(picked)
    # Untouched rows come out as the batch's rows, in the picked order.
    assert part.frames.values.tobytes() == batch.values[index].tobytes()
    assert [_fields(part.frames.frame(i)) for i in range(len(picked))] == [
        _fields(batch.frame(old)) for old in picked
    ]
    # ``touched`` is re-keyed to the new positions: every pick of row 2 is
    # the degraded frame itself, every pick of row 5 a drop.
    assert part.touched == {
        new: delivered.touched[old] for new, old in enumerate(picked) if old in (2, 5)
    }
    for new, old in enumerate(picked):
        if old in (2, 5):
            assert part[new] is delivered.touched[old]
        else:
            assert _fields(part[new]) == _fields(batch.frame(old))
    rows, lost = part.decode()
    whole, whole_lost = delivered.decode()
    assert rows.tobytes() == whole[index].tobytes()
    assert lost.tolist() == whole_lost[index].tolist()
    assert lost.tolist() == [old == 5 for old in picked]
    assert whole[2].tobytes() == decode_frame(degraded).tobytes()
    assert whole[0].tobytes() == decoded[0].tobytes()
