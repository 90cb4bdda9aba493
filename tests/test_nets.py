"""MLP forward/backward, Adam, and checkpoint round-trips."""

import json

import numpy as np
import pytest

from annealed_il.envs import ActionSpec
from annealed_il.nets import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPS,
    MLP,
    Adam,
    build_disc_net,
    build_policy_net,
    clip_params,
    get_flat,
    load_checkpoint,
    orthogonal_init,
    save_checkpoint,
    set_flat,
)


def test_zero_network_outputs_zero():
    net = MLP(4, [3, 3], {"pi": 2, "v": 1})  # no rng: all weights zero
    outs, _ = net.forward(np.ones((5, 4)))
    assert np.array_equal(outs["pi"], np.zeros((5, 2)))
    assert np.array_equal(outs["v"], np.zeros((5, 1)))


def test_constant_head_bias():
    net = MLP(4, [3], {"v": 1})
    net.heads["v"][1][:] = 2.5
    outs, _ = net.forward(np.random.default_rng(0).standard_normal((6, 4)))
    assert np.allclose(outs["v"], 2.5)


def test_batching_matches_single_rows():
    rng = np.random.default_rng(1)
    net = MLP(5, [4, 4], {"pi": 3, "v": 1}, rng=rng)
    x = rng.standard_normal((7, 5))
    batch_outs, _ = net.forward(x)
    for i in range(7):
        single, _ = net.forward(x[i : i + 1])
        assert np.allclose(batch_outs["pi"][i], single["pi"][0], atol=1e-12)
        assert np.allclose(batch_outs["v"][i], single["v"][0], atol=1e-12)


def test_forward_rejects_wrong_dim():
    net = MLP(5, [4], {"v": 1})
    with pytest.raises(ValueError):
        net.forward(np.zeros((3, 6)))


def test_hand_derived_single_unit_gradient():
    # one input, one hidden unit, value head; loss = sum of outputs
    net = MLP(1, [1], {"v": 1})
    w1, b1 = net.trunk[0]
    w2, b2 = net.heads["v"]
    w1[0, 0], b1[0] = 0.0, 0.3  # zero hidden weight, bias only
    w2[0, 0], b2[0] = 1.7, 0.1
    x = np.array([[2.0]])
    outs, cache = net.forward(x)
    h = np.tanh(0.3)
    assert np.allclose(outs["v"][0, 0], 1.7 * h + 0.1)
    grads = net.backward(cache, {"v": np.ones((1, 1))})
    d_w1, d_b1, d_w2, d_b2 = grads
    assert np.allclose(d_w2[0, 0], h)
    assert np.allclose(d_b2[0], 1.0)
    assert np.allclose(d_b1[0], 1.7 * (1 - h**2))
    assert np.allclose(d_w1[0, 0], 1.7 * (1 - h**2) * 2.0)


def test_loss_independent_block_gets_zero_gradient():
    rng = np.random.default_rng(2)
    net = MLP(4, [3], {"pi": 2, "v": 1}, rng=rng)
    _, cache = net.forward(rng.standard_normal((5, 4)))
    grads = net.backward(cache, {"v": np.ones((5, 1))})
    # the pi head never influenced the loss
    names = ["w0", "b0", "pi_w", "pi_b", "v_w", "v_b"]
    by_name = dict(zip(names, grads))
    assert np.array_equal(by_name["pi_w"], np.zeros_like(by_name["pi_w"]))
    assert np.array_equal(by_name["pi_b"], np.zeros_like(by_name["pi_b"]))
    assert not np.array_equal(by_name["v_w"], np.zeros_like(by_name["v_w"]))


def test_orthogonal_init_is_orthogonal_and_scaled():
    rng = np.random.default_rng(3)
    w = orthogonal_init(rng, 8, 4, gain=2.0)
    assert np.allclose(w.T @ w / 4.0, np.eye(4), atol=1e-10)
    w = orthogonal_init(rng, 3, 6, gain=1.0)
    assert np.allclose(w @ w.T, np.eye(3), atol=1e-10)


def test_adam_zero_gradient_is_fixed_point():
    net = MLP(3, [2], {"v": 1}, rng=np.random.default_rng(0))
    before = get_flat(net).copy()
    opt = Adam(net.params(), lr=0.1)
    opt.step(net.params(), net.zero_grads())
    assert np.array_equal(get_flat(net), before)


def test_adam_first_step_magnitude():
    # bias correction makes the first update ~lr * sign(g) for eps << |g|
    net = MLP(2, [2], {"v": 1}, rng=np.random.default_rng(1))
    before = get_flat(net).copy()
    opt = Adam(net.params(), lr=1e-3)
    grads = [np.full_like(p, 0.37) for p in net.params()]
    opt.step(net.params(), grads)
    delta = get_flat(net) - before
    assert np.allclose(delta, -1e-3, rtol=1e-6)


def test_adam_deterministic():
    def run():
        net = MLP(3, [3], {"v": 1}, rng=np.random.default_rng(5))
        opt = Adam(net.params(), lr=1e-2)
        g = [np.ones_like(p) * 0.1 for p in net.params()]
        for _ in range(10):
            opt.step(net.params(), g)
        return get_flat(net)

    assert np.array_equal(run(), run())


def test_adam_rejects_nonfinite():
    net = MLP(2, [2], {"v": 1})
    opt = Adam(net.params(), lr=1e-3)
    bad = net.zero_grads()
    bad[0][0, 0] = np.nan
    with pytest.raises(ValueError):
        opt.step(net.params(), bad)


def test_clip_params():
    net = MLP(3, [4], {"f": 1}, rng=np.random.default_rng(0))
    clip_params(net, 0.01)
    assert max(np.abs(p).max() for p in net.params()) <= 0.01


def test_flat_round_trip():
    rng = np.random.default_rng(4)
    net = build_policy_net(6, ActionSpec(kind="continuous", dim=2), rng, hidden=[4, 3])
    flat = get_flat(net)
    other = build_policy_net(6, ActionSpec(kind="continuous", dim=2), rng, hidden=[4, 3])
    set_flat(other, flat)
    assert np.array_equal(get_flat(other), flat)
    with pytest.raises(ValueError):
        set_flat(other, flat[:-1])


def test_checkpoint_round_trip_exact(tmp_path):
    rng = np.random.default_rng(7)
    for spec in (ActionSpec(kind="discrete", n=4), ActionSpec(kind="continuous", dim=2)):
        policy = build_policy_net(9, spec, rng)
        policy.extras.get("log_std", np.zeros(1))[...] = -0.731
        path = tmp_path / f"{spec.kind}.ckpt"
        # 9 -> 64 and 385 -> 64 first layers: Fortran- and C-ordered weights
        for net in (policy, build_disc_net(9, spec, rng), build_policy_net(385, spec, rng)):
            save_checkpoint(net, path, meta={"env_id": "test"})
            loaded, meta = load_checkpoint(path)
            assert meta == {"env_id": "test"}
            assert get_flat(loaded).tobytes() == get_flat(net).tobytes()
            assert loaded.head_dims == net.head_dims
            # BLAS rounds a forward differently for C- and Fortran-ordered
            # weights, so each keeps the memory order the builders give it
            for p, q in zip(net.params(), loaded.params()):
                assert (q.flags.c_contiguous, q.flags.f_contiguous) == (p.flags.c_contiguous, p.flags.f_contiguous)


def test_checkpoint_rejects_other_files(tmp_path):
    path = tmp_path / "x.ckpt"
    path.write_bytes(b'{"format": "something"}\n')
    with pytest.raises(ValueError):
        load_checkpoint(path)


def _checkpoint_bytes(tmp_path):
    net = MLP(4, [3], {"pi": 2}, rng=np.random.default_rng(0))
    save_checkpoint(net, tmp_path / "good.ckpt")
    header, blob = (tmp_path / "good.ckpt").read_bytes().split(b"\n", 1)
    return json.loads(header), blob


def _without(header, key):
    return {k: v for k, v in header.items() if k != key}


NAN = np.array([np.nan], dtype="<f8").tobytes()


@pytest.mark.parametrize(
    "make, cause",
    [
        (lambda h, b: b"\xff{not json\n" + b, "not a JSON line"),
        (lambda h, b: json.dumps(_without(h, "hidden")).encode() + b"\n" + b, "missing hidden"),
        (lambda h, b: json.dumps(dict(h, hidden="x")).encode() + b"\n" + b, "malformed header"),
        (lambda h, b: json.dumps(dict(h, in_dim=10**13)).encode() + b"\n" + b, "malformed header"),
        (lambda h, b: json.dumps(h).encode() + b"\n" + b[:-8], "truncated or padded"),
        (lambda h, b: json.dumps(h).encode() + b"\n" + b[:-12], "truncated or padded"),
        (lambda h, b: json.dumps(h).encode() + b"\n" + b + bytes(8), "truncated or padded"),
        (lambda h, b: json.dumps(h).encode() + b"\n" + b[:16] + NAN + b[24:], "non-finite parameter at flat index 2"),
    ],
    ids=["garbage-header", "missing-field", "bad-shape", "absurd-shape", "short", "short-ragged", "long", "nan"],
)
def test_checkpoint_faults_raise_value_error_naming_the_file(tmp_path, make, cause):
    header, blob = _checkpoint_bytes(tmp_path)
    path = tmp_path / "bad.ckpt"
    path.write_bytes(make(header, blob))
    with pytest.raises(ValueError) as info:
        load_checkpoint(path)
    assert type(info.value) is ValueError  # not a JSONDecodeError or a reshape error
    assert str(path) in str(info.value) and cause in str(info.value)


def test_interrupted_checkpoint_save_keeps_the_previous_file(tmp_path):
    net = MLP(4, [3], {"pi": 2}, rng=np.random.default_rng(0))
    path = tmp_path / "net.ckpt"
    save_checkpoint(net, path)
    before = path.read_bytes()
    with pytest.raises(TypeError):  # the header cannot be serialised
        save_checkpoint(net, path, meta={"bad": object()})
    assert path.read_bytes() == before
    assert sorted(tmp_path.iterdir()) == [path]


def test_disc_input_dim():
    rng = np.random.default_rng(0)
    d = build_disc_net(10, ActionSpec(kind="discrete", n=4), rng)
    assert d.in_dim == 14
    c = build_disc_net(6, ActionSpec(kind="continuous", dim=2), rng)
    assert c.in_dim == 8


# -- bit-for-bit oracles: the update path as it was before it was trimmed ----


def _reference_backward(net, cache, d_outs):
    """MLP.backward with every head's d_h as a matmul and the input gradient kept."""
    activations = cache["activations"]
    h_last = activations[-1]
    d_h = np.zeros_like(h_last)
    head_grads = {}
    for name, (w, b) in net.heads.items():
        d_out = d_outs.get(name)
        if d_out is None:
            head_grads[name] = (np.zeros_like(w), np.zeros_like(b))
            continue
        d_out = np.asarray(d_out, dtype=np.float64)
        head_grads[name] = (h_last.T @ d_out, d_out.sum(axis=0))
        d_h = d_h + d_out @ w.T
    trunk_grads = [None] * len(net.trunk)
    for i in range(len(net.trunk) - 1, -1, -1):
        w, _ = net.trunk[i]
        d_z = d_h * (1.0 - activations[i + 1] ** 2)
        trunk_grads[i] = (activations[i].T @ d_z, d_z.sum(axis=0))
        d_h = d_z @ w.T
    grads = []
    for gw, gb in trunk_grads:
        grads += [gw, gb]
    for name in net.head_dims:
        grads += list(head_grads[name])
    return grads + [np.zeros_like(net.extras[name]) for name in net.extras]


def _reference_adam_step(opt, params, grads):
    """Adam.step with fresh arrays for every intermediate."""
    opt.t += 1
    c1 = 1.0 - ADAM_BETA1**opt.t
    c2 = 1.0 - ADAM_BETA2**opt.t
    for p, g, m, v in zip(params, grads, opt.m, opt.v):
        m[...] = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
        v[...] = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
        p -= opt.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


NET_SHAPES = {  # the benchmark's two envs: keydoor8 (385 inputs, 4 actions) and pointreach
    "keydoor8-policy": lambda rng: build_policy_net(385, ActionSpec(kind="discrete", n=4), rng),
    "keydoor8-disc": lambda rng: build_disc_net(385, ActionSpec(kind="discrete", n=4), rng),
    "pointreach-policy": lambda rng: build_policy_net(6, ActionSpec(kind="continuous", dim=2), rng),
    "pointreach-disc": lambda rng: build_disc_net(6, ActionSpec(kind="continuous", dim=2), rng),
}


def _random_d_outs(net, rng, batch, skip=None):
    return {name: rng.standard_normal((batch, dim)) for name, dim in net.head_dims.items() if name != skip}


@pytest.mark.parametrize("shape", sorted(NET_SHAPES))
@pytest.mark.parametrize("batch", [1, 256])
def test_backward_matches_reference_bit_for_bit(shape, batch):
    rng = np.random.default_rng(11)
    net = NET_SHAPES[shape](rng)
    _, cache = net.forward(rng.standard_normal((batch, net.in_dim)))
    skips = [None] + (list(net.head_dims) if len(net.head_dims) > 1 else [])
    for skip in skips:  # every head, then each head left out
        d_outs = _random_d_outs(net, rng, batch, skip)
        got, want = net.backward(cache, d_outs), _reference_backward(net, cache, d_outs)
        assert len(got) == len(want) == len(net.params())
        for g, w in zip(got, want):
            assert g.shape == w.shape and np.array_equal(g, w)


@pytest.mark.parametrize("shape", sorted(NET_SHAPES))
def test_adam_matches_reference_bit_for_bit(shape):
    rng = np.random.default_rng(12)
    net, ref = NET_SHAPES[shape](np.random.default_rng(3)), NET_SHAPES[shape](np.random.default_rng(3))
    opt, ref_opt = Adam(net.params(), lr=3e-4), Adam(ref.params(), lr=3e-4)
    for _ in range(5):
        x = rng.standard_normal((256, net.in_dim))
        d_outs = _random_d_outs(net, rng, 256)
        _, cache = net.forward(x)
        grads = net.backward(cache, d_outs)
        if net.extras:
            grads[net.extra_index("log_std")] = rng.standard_normal(2)
        opt.step(net.params(), grads)
        _reference_adam_step(ref_opt, ref.params(), [g.copy() for g in grads])
        for a, b in zip(net.params() + opt.m + opt.v, ref.params() + ref_opt.m + ref_opt.v):
            assert np.array_equal(a, b)
    assert opt.t == ref_opt.t == 5
