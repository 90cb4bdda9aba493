"""Dense tanh networks with hand-written backpropagation, plus Adam.

Everything is float64.  An :class:`MLP` is a tanh trunk with one or more
linear heads and optional free extra parameters (e.g. a state-independent
log-std vector).  ``forward`` returns all head outputs and a cache;
``backward`` turns gradients w.r.t. the head outputs into gradients
w.r.t. every parameter, aligned with ``params()``.
"""

import json
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .envs import ActionSpec

CHECKPOINT_MAGIC = "annealed-il/checkpoint"
CHECKPOINT_VERSION = 1


def orthogonal_init(rng: np.random.Generator, n_in: int, n_out: int, gain: float) -> np.ndarray:
    """Orthogonal weight matrix scaled by gain."""
    a = rng.standard_normal((max(n_in, n_out), min(n_in, n_out)))
    q, r = np.linalg.qr(a)
    q = q * np.sign(np.diag(r))  # fix the sign ambiguity of QR
    if n_in < n_out:
        q = q.T
    return gain * q[:n_in, :n_out]


class MLP:
    """Tanh trunk with named linear heads.

    heads maps head name to output dim; extras maps name to an initial
    parameter array that lives outside the computation graph (its
    gradients are produced by the loss that uses it).
    """

    def __init__(
        self,
        in_dim: int,
        hidden: Sequence[int],
        heads: Dict[str, int],
        rng: Optional[np.random.Generator] = None,
        head_gains: Optional[Dict[str, float]] = None,
        extras: Optional[Dict[str, np.ndarray]] = None,
    ):
        self.in_dim = in_dim
        self.hidden = list(hidden)
        self.head_dims = dict(heads)
        head_gains = head_gains or {}

        def init(n_in, n_out, gain):
            if rng is None:
                return np.zeros((n_in, n_out))
            return orthogonal_init(rng, n_in, n_out, gain)

        self.trunk: List[Tuple[np.ndarray, np.ndarray]] = []
        prev = in_dim
        for width in self.hidden:
            self.trunk.append((init(prev, width, np.sqrt(2.0)), np.zeros(width)))
            prev = width
        self.heads: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        for name, dim in self.head_dims.items():
            self.heads[name] = (init(prev, dim, head_gains.get(name, 1.0)), np.zeros(dim))
        self.extras: Dict[str, np.ndarray] = {
            name: np.array(value, dtype=np.float64) for name, value in (extras or {}).items()
        }

    # -- parameter access ------------------------------------------------

    def params(self) -> List[np.ndarray]:
        """Live parameter arrays in a fixed order (trunk, heads, extras)."""
        out = []
        for w, b in self.trunk:
            out += [w, b]
        for name in self.head_dims:
            w, b = self.heads[name]
            out += [w, b]
        out += [self.extras[name] for name in self.extras]
        return out

    def zero_grads(self) -> List[np.ndarray]:
        return [np.zeros_like(p) for p in self.params()]

    # -- forward / backward ----------------------------------------------

    def forward(self, x: np.ndarray) -> Tuple[Dict[str, np.ndarray], dict]:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.in_dim:
            raise ValueError(f"expected input of shape (batch, {self.in_dim}), got {x.shape}")
        activations = [x]
        h = x
        for w, b in self.trunk:
            h = np.tanh(h @ w + b)
            activations.append(h)
        outs = {name: h @ w + b for name, (w, b) in self.heads.items()}
        return outs, {"activations": activations}

    def backward(self, cache: dict, d_outs: Dict[str, np.ndarray]) -> List[np.ndarray]:
        """Gradients of a scalar loss given d(loss)/d(head output)."""
        activations = cache["activations"]
        h_last = activations[-1]
        d_h = np.zeros_like(h_last)
        head_grads: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        for name, (w, b) in self.heads.items():
            d_out = d_outs.get(name)
            if d_out is None:
                head_grads[name] = (np.zeros_like(w), np.zeros_like(b))
                continue
            d_out = np.asarray(d_out, dtype=np.float64)
            head_grads[name] = (h_last.T @ d_out, d_out.sum(axis=0))
            d_h = d_h + d_out @ w.T

        trunk_grads: List[Tuple[np.ndarray, np.ndarray]] = [None] * len(self.trunk)
        for i in range(len(self.trunk) - 1, -1, -1):
            w, _ = self.trunk[i]
            d_z = d_h * (1.0 - activations[i + 1] ** 2)  # tanh'
            trunk_grads[i] = (activations[i].T @ d_z, d_z.sum(axis=0))
            d_h = d_z @ w.T

        grads: List[np.ndarray] = []
        for gw, gb in trunk_grads:
            grads += [gw, gb]
        for name in self.head_dims:
            gw, gb = head_grads[name]
            grads += [gw, gb]
        grads += [np.zeros_like(self.extras[name]) for name in self.extras]
        return grads

    def extra_index(self, name: str) -> int:
        """Index of an extra parameter in the params()/grads list."""
        base = 2 * len(self.trunk) + 2 * len(self.head_dims)
        return base + list(self.extras).index(name)


# -- flat parameter vector utilities (finite differences, checkpoints) ----


def get_flat(net: MLP) -> np.ndarray:
    return np.concatenate([p.ravel() for p in net.params()])


def set_flat(net: MLP, flat: np.ndarray) -> None:
    flat = np.asarray(flat, dtype=np.float64)
    offset = 0
    for p in net.params():
        p[...] = flat[offset : offset + p.size].reshape(p.shape)
        offset += p.size
    if offset != flat.size:
        raise ValueError(f"flat vector has {flat.size} entries, net needs {offset}")


ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8


class Adam:
    """Bias-corrected Adam on a list of parameter arrays, updating in place."""

    def __init__(self, params: List[np.ndarray], lr: float):
        self.lr = lr
        self.t = 0
        self.m = [np.zeros_like(p) for p in params]
        self.v = [np.zeros_like(p) for p in params]

    def step(self, params: List[np.ndarray], grads: List[np.ndarray]) -> None:
        if len(params) != len(self.m) or len(grads) != len(self.m):
            raise ValueError("parameter/gradient structure does not match optimizer state")
        for g in grads:
            if not np.all(np.isfinite(g)):
                raise ValueError("non-finite gradient")
        self.t += 1
        c1 = 1.0 - ADAM_BETA1**self.t
        c2 = 1.0 - ADAM_BETA2**self.t
        for p, g, m, v in zip(params, grads, self.m, self.v):
            m[...] = ADAM_BETA1 * m + (1.0 - ADAM_BETA1) * g
            v[...] = ADAM_BETA2 * v + (1.0 - ADAM_BETA2) * g * g
            p -= self.lr * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


def clip_params(net: MLP, bound: float) -> None:
    """Clamp every parameter into [-bound, bound] (WGAN critic clipping)."""
    for p in net.params():
        np.clip(p, -bound, bound, out=p)


# -- network builders ------------------------------------------------------

HIDDEN_SIZES = (64, 64)
POLICY_HEAD_GAIN = 0.01
LOG_STD_MIN, LOG_STD_MAX = -5.0, 2.0


def build_policy_net(obs_dim: int, action_spec: ActionSpec, rng: np.random.Generator, hidden=HIDDEN_SIZES) -> MLP:
    """Shared trunk with a policy head ("pi") and a value head ("v")."""
    if action_spec.kind == "discrete":
        heads = {"pi": action_spec.n, "v": 1}
        extras = None
    else:
        heads = {"pi": action_spec.dim, "v": 1}
        extras = {"log_std": np.zeros(action_spec.dim)}
    return MLP(
        obs_dim,
        hidden,
        heads,
        rng=rng,
        head_gains={"pi": POLICY_HEAD_GAIN, "v": 1.0},
        extras=extras,
    )


def disc_input_dim(obs_dim: int, action_spec: ActionSpec) -> int:
    return obs_dim + (action_spec.n if action_spec.kind == "discrete" else action_spec.dim)


def build_disc_net(obs_dim: int, action_spec: ActionSpec, rng: np.random.Generator, hidden=HIDDEN_SIZES) -> MLP:
    """Discriminator/critic: scalar head "f" over concat(obs, action encoding).

    The scalar head starts near zero (gain 0.01, like the policy head), so
    an untrained discriminator is near-uninformative: D = sigmoid(f) = 0.5.
    """
    return MLP(
        disc_input_dim(obs_dim, action_spec),
        hidden,
        {"f": 1},
        rng=rng,
        head_gains={"f": POLICY_HEAD_GAIN},
    )


# -- checkpoints -----------------------------------------------------------


def save_checkpoint(net: MLP, path, meta: Optional[dict] = None) -> None:
    """Header line (JSON) followed by the raw little-endian float64 params."""
    header = {
        "format": CHECKPOINT_MAGIC,
        "version": CHECKPOINT_VERSION,
        "in_dim": net.in_dim,
        "hidden": net.hidden,
        "heads": net.head_dims,
        "extras": {name: list(arr.shape) for name, arr in net.extras.items()},
        "meta": meta or {},
    }
    flat = get_flat(net)
    with open(path, "wb") as f:
        f.write(json.dumps(header).encode() + b"\n")
        f.write(flat.astype("<f8").tobytes())


def load_checkpoint(path) -> Tuple[MLP, dict]:
    with open(path, "rb") as f:
        header_line = f.readline()
        blob = f.read()
    header = json.loads(header_line)
    if header.get("format") != CHECKPOINT_MAGIC:
        raise ValueError(f"{path}: not a checkpoint file")
    extras = {name: np.zeros(shape) for name, shape in header["extras"].items()}
    net = MLP(header["in_dim"], header["hidden"], {k: int(v) for k, v in header["heads"].items()}, extras=extras)
    flat = np.frombuffer(blob, dtype="<f8")
    set_flat(net, flat)
    return net, header["meta"]
