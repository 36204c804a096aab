import math
import os
import struct
import tracemalloc

import numpy as np
import pytest

from snnbounds import (ACTIVATIONS, RELU, SIGMOID, TANH, Checkpoint,
                       InitSnapshot, SnnParams, checkpoint_load,
                       checkpoint_save, forward, init_kaiming, make_rng)
from snnbounds.datasets import DataError
from snnbounds.model import ACTIVATION_BY_ID, checkpoint_header
from conftest import write_two_output_checkpoint


def test_relu_values():
    assert RELU.fn(np.array(-2.0)) == 0.0
    assert RELU.fn(np.array(3.0)) == 3.0
    # subgradient at 0 pinned to 0
    assert RELU.deriv(RELU.fn(np.array(0.0))) == 0.0


def test_tanh_matches_reference():
    assert abs(TANH.fn(np.array(0.5)) - math.tanh(0.5)) < 1e-12


def test_sigmoid_stable_at_extremes():
    vals = SIGMOID.fn(np.array([-500.0, 0.0, 500.0]))
    assert np.all(np.isfinite(vals))
    assert vals[1] == 0.5
    assert vals[0] == pytest.approx(0.0, abs=1e-200)
    assert vals[2] == pytest.approx(1.0, abs=1e-15)


def _sigmoid_masked_scatter(a):
    """The sigmoid as the model computed it in separate passes over a >= 0
    and a < 0, in the dtype of a."""
    out = np.empty_like(a)
    pos = a >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-a[pos]))
    e = np.exp(a[~pos])
    out[~pos] = e / (1.0 + e)
    return out


# each activation's fn and deriv as written when the model computed in
# float64 alone, both as functions of z (the model's deriv takes gamma(z))
FLOAT64_EXPRESSIONS = {
    "relu": (lambda a: np.maximum(a, 0.0), lambda a: (a > 0).astype(float)),
    "tanh": (np.tanh, lambda a: 1.0 - np.tanh(a) ** 2),
    "sigmoid": (_sigmoid_masked_scatter,
                lambda a: _sigmoid_masked_scatter(a)
                * (1.0 - _sigmoid_masked_scatter(a))),
}


@pytest.mark.parametrize("name", list(ACTIVATIONS))
def test_activations_keep_the_input_dtype(name):
    act = ACTIVATIONS[name]
    a = make_rng(4).standard_normal((5, 7)) * 3
    a[0, :3] = [0.0, 40.0, -40.0]
    for dtype in (np.float32, np.float64):
        g = act.fn(a.astype(dtype))
        assert g.dtype == act.deriv(g).dtype == dtype
    got = (act.fn(a), act.deriv(act.fn(a)))
    for value, want in zip(got, FLOAT64_EXPRESSIONS[name]):
        assert np.array_equal(value, want(a))


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_sigmoid_matches_the_masked_scatter_bitwise(dtype):
    a = (make_rng(5).standard_normal((64, 96)) * 20).astype(dtype)
    a[0, :6] = [0.0, -0.0, np.inf, -np.inf, 100.0, -100.0]
    for view in (a, a.T, a[::3, 1::2], a[0], a[:1, :1]):
        got = SIGMOID.fn(view)
        assert got.dtype == dtype
        assert np.array_equal(got, _sigmoid_masked_scatter(view))


def test_lipschitz_constants():
    assert RELU.lipschitz == 1.0
    assert TANH.lipschitz == 1.0
    assert SIGMOID.lipschitz == 0.25


def test_activation_ids():
    """The ids of the checkpoint header and measures.csv: 0 relu, 1 tanh,
    2 sigmoid, each naming back the one Activation."""
    assert [(a.name, a.id) for a in ACTIVATIONS.values()] == [
        ("relu", 0), ("tanh", 1), ("sigmoid", 2)]
    for name, activation in ACTIVATIONS.items():
        assert ACTIVATION_BY_ID[activation.id] is activation
        assert activation.name == name
    assert ACTIVATIONS["relu"] is RELU


def test_init_deterministic():
    p1, s1 = init_kaiming(make_rng(3), 5, 4, 1)
    p2, s2 = init_kaiming(make_rng(3), 5, 4, 1)
    assert np.array_equal(p1.W, p2.W) and np.array_equal(p1.V, p2.V)
    assert np.array_equal(s1.W0, s2.W0)


@pytest.mark.parametrize("m, d, c", [(0, 4, 1), (5, 0, 1), (5, 4, 0)],
                         ids=["m", "d", "c"])
def test_init_refuses_dimensions_below_one(m, d, c):
    with pytest.raises(ValueError, match="m, d, c must be >= 1"):
        init_kaiming(make_rng(3), m, d, c)


def test_init_scale():
    # empirical std of W entries should track sqrt(2/d)
    p, _ = init_kaiming(make_rng(0), 400, 100, 1)
    assert np.std(p.W) == pytest.approx(math.sqrt(2.0 / 100), rel=0.05)
    assert np.std(p.V) == pytest.approx(math.sqrt(2.0 / 400), rel=0.05)


def test_snapshot_immutable():
    _, snap = init_kaiming(make_rng(0), 2, 2, 1)
    with pytest.raises(ValueError):
        snap.W0[0, 0] = 99.0


def test_forward_zero_head():
    p = SnnParams(np.ones((3, 2)), np.zeros((1, 3)), RELU)
    out = forward(p, np.ones((2, 4)))
    assert np.all(out == 0.0)


def test_params_keep_float32_and_forward_keeps_their_dtype():
    W = make_rng(5).standard_normal((3, 2))
    p64 = SnnParams(W.astype(np.float16), np.ones((1, 3), int), RELU)
    assert p64.W.dtype == p64.V.dtype == np.float64
    p32 = p64.astype(np.float32)
    assert p32.W.dtype == p32.V.dtype == np.float32
    assert np.array_equal(p32.W, p64.W) and p32.activation is RELU
    for V in (np.ones((1, 3)), np.ones((1, 3), int)):
        with pytest.raises(ValueError, match="W is float32 but V is float64"):
            SnnParams(p32.W, V, RELU)
    X = make_rng(6).standard_normal((2, 4))
    assert forward(p32, X.astype(np.float32)).dtype == np.float32
    assert forward(p64, X).dtype == np.float64


@pytest.mark.parametrize("weights, data", [(np.float32, np.float64),
                                           (np.float64, np.float32)],
                         ids=["float32-weights", "float64-weights"])
def test_forward_refuses_x_of_another_dtype(weights, data):
    p = SnnParams(np.ones((3, 2)), np.ones((1, 3)), RELU).astype(weights)
    with pytest.raises(ValueError, match="astype"):
        forward(p, np.ones((2, 4), dtype=data))


def test_forward_hand_scalar():
    p = SnnParams(np.array([[2.0]]), np.array([[3.0]]), RELU)
    assert forward(p, np.array([[1.0]]))[0, 0] == 6.0


def test_shape_mismatch_rejected():
    with pytest.raises(ValueError, match="W must be 2-D"):
        SnnParams(np.ones(3), np.ones((1, 3)), RELU)
    with pytest.raises(ValueError):
        SnnParams(np.ones((3, 2)), np.ones((1, 4)), RELU)
    with pytest.raises(ValueError, match="c = 1"):  # a head of two outputs
        SnnParams(np.ones((3, 2)), np.ones((2, 3)), RELU)
    p = SnnParams(np.ones((3, 2)), np.ones((1, 3)), RELU)
    with pytest.raises(ValueError):
        forward(p, np.ones((5, 1)))


def _random_checkpoint(seed=0, m=4, d=3, act="tanh"):
    params, snap = init_kaiming(make_rng(seed), m, d, 1, ACTIVATIONS[act])
    params.W += 0.1
    return Checkpoint(params, snap, seed=seed, epochs=7, final_train_error=0.125)


def test_checkpoint_roundtrip(tmp_path):
    ck = _random_checkpoint()
    path = os.path.join(tmp_path, "a.snn")
    checkpoint_save(ck, path)
    back = checkpoint_load(path)
    assert np.array_equal(back.params.W, ck.params.W)
    assert np.array_equal(back.params.V, ck.params.V)
    assert np.array_equal(back.snapshot.W0, ck.snapshot.W0)
    assert np.array_equal(back.snapshot.V0, ck.snapshot.V0)
    assert back.seed == 0 and back.epochs == 7
    assert back.final_train_error == 0.125
    assert back.params.activation.name == "tanh"
    # one copy per array, read straight from the file buffer: each owns its
    # memory, the live parameters stay writable, the snapshot stays frozen
    arrays = [back.params.W, back.params.V, back.snapshot.W0, back.snapshot.V0]
    assert all(a.flags.owndata for a in arrays)
    assert back.params.W.flags.writeable and back.params.V.flags.writeable
    assert not any(np.shares_memory(a, b)
                   for i, a in enumerate(arrays) for b in arrays[i + 1:])


def test_checkpoint_bytes_stable(tmp_path):
    ck = _random_checkpoint()
    p1 = os.path.join(tmp_path, "a.snn")
    p2 = os.path.join(tmp_path, "b.snn")
    checkpoint_save(ck, p1)
    checkpoint_save(checkpoint_load(p1), p2)
    with open(p1, "rb") as a, open(p2, "rb") as b:
        assert a.read() == b.read()


def test_checkpoint_save_failing_midway_keeps_previous_file(tmp_path):
    path = os.path.join(tmp_path, "a.snn")
    checkpoint_save(_random_checkpoint(), path)
    with open(path, "rb") as f:
        before = f.read()
    bad = _random_checkpoint(seed=1)
    bad.epochs = -1  # the trailer fails to pack, after the arrays are written
    with pytest.raises(struct.error):
        checkpoint_save(bad, path)
    with open(path, "rb") as f:
        assert f.read() == before
    assert os.listdir(tmp_path) == ["a.snn"]


def test_checkpoint_bad_magic(tmp_path):
    path = os.path.join(tmp_path, "bad.snn")
    with open(path, "wb") as f:
        f.write(b"NOTACKPT" + b"\x00" * 64)
    with pytest.raises(DataError):
        checkpoint_load(path)


def test_checkpoint_truncation_fuzz(tmp_path):
    full = os.path.join(tmp_path, "full.snn")
    checkpoint_save(_random_checkpoint(), full)
    with open(full, "rb") as f:
        blob = f.read()
    cut = os.path.join(tmp_path, "cut.snn")
    # every strict prefix must be rejected, never crash
    for k in range(0, len(blob), 7):
        with open(cut, "wb") as f:
            f.write(blob[:k])
        with pytest.raises(DataError):
            checkpoint_load(cut)


def test_checkpoint_trailing_bytes(tmp_path):
    full = os.path.join(tmp_path, "full.snn")
    checkpoint_save(_random_checkpoint(), full)
    with open(full, "rb") as f:
        blob = f.read() + b"\x00"
    with open(full, "wb") as f:
        f.write(blob)
    with pytest.raises(DataError):
        checkpoint_load(full)


def test_checkpoint_bad_version(tmp_path):
    full = os.path.join(tmp_path, "full.snn")
    checkpoint_save(_random_checkpoint(), full)
    with open(full, "rb") as f:
        blob = bytearray(f.read())
    blob[8] = 99  # version field, little-endian low byte
    with open(full, "wb") as f:
        f.write(bytes(blob))
    with pytest.raises(DataError):
        checkpoint_load(full)


def test_checkpoint_header_reads_the_header_only(tmp_path):
    path = os.path.join(tmp_path, "a.snn")
    checkpoint_save(_random_checkpoint(seed=3, m=5, d=2), path)
    with open(path, "rb") as f:
        header = checkpoint_header(f)
        assert f.tell() == 36  # left at the first array
    assert (header.m, header.d, header.seed) == (5, 2, 3)
    assert header.activation is TANH


def test_checkpoint_header_refuses_two_outputs(tmp_path):
    # a file of the documented layout with c = 2 has the size its header
    # gives, and is refused for its head alone
    path = write_two_output_checkpoint(os.path.join(tmp_path, "a.snn"), 5, 2)
    with open(path, "rb") as f, pytest.raises(DataError) as exc:
        checkpoint_header(f)
    assert path in str(exc.value) and "c = 2" in str(exc.value)
    with pytest.raises(DataError, match="c = 2"):
        checkpoint_load(path)


def test_checkpoint_load_peak_memory_is_one_copy(tmp_path):
    # each array is read straight into its own memory, with no buffer of
    # the whole file besides
    params, snap = init_kaiming(make_rng(0), 256, 256, 1)
    path = os.path.join(tmp_path, "big.snn")
    checkpoint_save(Checkpoint(params, snap), path)
    tracemalloc.start()
    try:
        checkpoint_load(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * os.path.getsize(path)
