"""Per-node spectral filtering models, gradients, and the training loop.

Two pipelines share the same trainable pieces (a 2-layer MLP, a projection W,
and base-filter matrix Gamma):

* ``appnp_like``  - transform features with the MLP, then run the polynomial
  recursion on the transformed features, mixing each order k with the
  node-dependent coefficient sigmoid(X^(k) W) Gamma_k.
* ``sgc_like``    - propagate the raw features once (precomputable, reusable
  across epochs and mini-batches), combine with the same coefficients, and
  apply the MLP last.

``global_only`` is the ablation: a single learned coefficient vector gamma
replaces the factorized per-node coefficients in the appnp pipeline.

Gradients come from the tape in ``autodiff``. The network is three fused
nodes on it, each with a closed-form backward: ``autodiff.propagation`` for
the (K+1, n, c) stack; the combine built in ``_combine_layers``, which mixes
the whole stack with its coefficients; and the MLP built in ``_mlp``, which
runs in place on one hidden array and skips the gradient of constant
features. Evaluation and prediction run the same nodes without dropout. The
Chebyshev operator is assembled from the graph in one pass
(``graph.chebyshev_operator``). Optimization is Adam with the MLP and filter
parameters on separate learning rates, and weight decay enters the loss as
an explicit squared-norm penalty.
"""

import json
import struct
import warnings
from dataclasses import asdict, dataclass, field
from typing import Optional

import numpy as np

from .autodiff import (Tensor, log_softmax_nll, parameter, propagation,
                       sigmoid, softmax_cross_entropy)
from .data import Dataset, Split, subset, validate_split
from .evaluate import accuracy
from .graph import (Graph, SparseOperator, chebyshev_operator,
                    estimate_lambda_max, normalized_laplacian)
from .polyfilter import PropagationStack, propagate

MODES = ("appnp_like", "sgc_like", "global_only")

CHECKPOINT_MAGIC = b"NODESPEC-CKPT-1\n"

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class DivergenceError(RuntimeError):
    """Training produced non-finite values; carries the offending epoch."""

    def __init__(self, message: str, epoch: int):
        super().__init__(f"{message} (epoch {epoch})")
        self.epoch = epoch


@dataclass
class TrainConfig:
    lr_l: float = 0.01          # MLP learning rate
    lr_p: float = 0.01          # filtering-layer learning rate
    dp_l: float = 0.5           # MLP dropout
    dp_p: float = 0.5           # filtering-layer dropout
    l2: float = 5e-4            # weight-decay coefficient in the loss
    order: int = 10             # polynomial order K
    rank: int = 1               # factorization rank d
    hidden: int = 64            # MLP hidden width f_h
    epochs: int = 1000
    patience: int = 200
    seed: int = 0
    mode: str = "appnp_like"
    basis: str = "chebyshev"
    batch_size: Optional[int] = None   # sgc_like mini-batching; None = full batch
    static_coefficients: bool = False  # derive H once from the order-0 features
    lambda_max: float = 2.0
    estimate_spectrum: bool = False    # power-iterate lambda_max instead of the bound
    precision: str = "float64"

    def validate(self) -> None:
        for name in ("dp_l", "dp_p"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
        if self.order < 1:
            raise ValueError("polynomial order must be >= 1")
        if self.rank < 1:
            raise ValueError("factorization rank must be >= 1")
        if self.hidden < 1:
            raise ValueError("hidden width must be >= 1")
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch size must be >= 1 when set")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.precision not in ("float64", "float32"):
            raise ValueError("precision must be float64 or float32")

    @property
    def dtype(self):
        return np.float64 if self.precision == "float64" else np.float32


@dataclass
class FilterFactorization:
    """Low-rank coefficient factors: per-node rows come from sigmoid(X W) Gamma^T."""

    w: np.ndarray       # (c_in, d) projection
    gamma: np.ndarray   # (K+1, d) base filters

    @property
    def rank(self) -> int:
        return self.w.shape[1]

    @property
    def order(self) -> int:
        return self.gamma.shape[0] - 1


@dataclass
class ModelParams:
    w1: np.ndarray
    b1: np.ndarray
    w2: np.ndarray
    b2: np.ndarray
    mode: str
    factorization: Optional[FilterFactorization] = None
    gamma: Optional[np.ndarray] = None   # global_only coefficient vector (K+1, 1)

    def arrays(self) -> dict:
        """Trainable arrays in their declared (checkpoint) order."""
        out = {"mlp.w1": self.w1, "mlp.b1": self.b1,
               "mlp.w2": self.w2, "mlp.b2": self.b2}
        if self.mode == "global_only":
            out["filter.gamma"] = self.gamma
        else:
            out["filter.w"] = self.factorization.w
            out["filter.gamma"] = self.factorization.gamma
        return out

    def copy(self) -> "ModelParams":
        fact = None
        if self.factorization is not None:
            fact = FilterFactorization(self.factorization.w.copy(),
                                       self.factorization.gamma.copy())
        gamma = None if self.gamma is None else self.gamma.copy()
        return ModelParams(self.w1.copy(), self.b1.copy(), self.w2.copy(),
                           self.b2.copy(), self.mode, fact, gamma)


@dataclass
class ForwardTrace:
    """Everything the reverse pass needs: the logits tensor (whose tape
    references all intermediates) and the named parameter tensors."""

    logits: Tensor
    params: dict
    coefficients: np.ndarray
    loss: Optional[Tensor] = None


@dataclass
class TrainResult:
    params: ModelParams
    history: list
    best_epoch: int
    best_validation_accuracy: float
    epochs_run: int


def init_params(cfg: TrainConfig, feature_dim: int, class_count: int,
                rng: np.random.Generator) -> ModelParams:
    """Fan-scaled symmetric-uniform MLP/W init; decayed-coefficient Gamma."""
    cfg.validate()
    dtype = cfg.dtype

    def uniform(fan_in, shape):
        bound = 1.0 / np.sqrt(fan_in)
        return rng.uniform(-bound, bound, size=shape).astype(dtype)

    w1 = uniform(feature_dim, (feature_dim, cfg.hidden))
    b1 = np.zeros(cfg.hidden, dtype=dtype)
    w2 = uniform(cfg.hidden, (cfg.hidden, class_count))
    b2 = np.zeros(class_count, dtype=dtype)
    decay = 0.1 * np.power(0.9, np.arange(cfg.order + 1))
    if cfg.mode == "global_only":
        gamma = decay[:, None].astype(dtype)
        return ModelParams(w1, b1, w2, b2, cfg.mode, gamma=gamma)
    c_in = class_count if cfg.mode == "appnp_like" else feature_dim
    fact = FilterFactorization(
        w=uniform(c_in, (c_in, cfg.rank)),
        gamma=np.tile(decay[:, None], (1, cfg.rank)).astype(dtype),
    )
    return ModelParams(w1, b1, w2, b2, cfg.mode, factorization=fact)


def spectrum_bound(lap: SparseOperator,
                   cfg: TrainConfig) -> tuple[float, bool]:
    """The lambda_max that scales the Chebyshev operator of ``lap``, and
    whether its power-iteration estimate converged (True when none ran).

    An unconverged estimate falls back to 2.0 with a RuntimeWarning.
    """
    if not cfg.estimate_spectrum:
        return cfg.lambda_max, True
    lam_max, converged = estimate_lambda_max(lap)
    if converged:
        return max(lam_max, 1e-12), True
    # an unconverged power iteration underestimates; 2 bounds the spectrum
    warnings.warn(f"the lambda_max power iteration did not converge (last "
                  f"estimate {lam_max!r}); using the bound 2.0 instead",
                  RuntimeWarning, stacklevel=2)
    return 2.0, False


def build_operator(graph: Graph, cfg: TrainConfig) -> SparseOperator:
    """Propagation operator for the configured basis. The Chebyshev operator
    is assembled from the graph in one pass; only an estimated lambda_max
    builds the normalized Laplacian to run the estimate on."""
    if cfg.basis != "chebyshev":
        return normalized_laplacian(graph)
    lam = (spectrum_bound(normalized_laplacian(graph), cfg)[0]
           if cfg.estimate_spectrum else cfg.lambda_max)
    return chebyshev_operator(graph, lam)


def _dropout_mask(shape: tuple, rate: float, dtype,
                  rng: np.random.Generator) -> np.ndarray:
    """Inverted-dropout mask (draw >= rate) / (1 - rate) in ``dtype``. A
    float64 mask is thresholded and scaled in the drawn array itself."""
    draw = rng.random(shape)
    keep = draw if draw.dtype == dtype else np.empty(shape, dtype)
    np.greater_equal(draw, rate, out=keep)
    keep /= 1.0 - rate
    return keep


def _dropout(t: Tensor, rate: float, training: bool,
             rng: Optional[np.random.Generator]) -> Tensor:
    if not training or rate <= 0.0:
        return t
    mask = _dropout_mask(t.shape, rate, t.data.dtype, rng)
    out = Tensor(t.data * mask, parents=(t,))

    def push(g):
        t._accumulate(g * mask)

    out._backward_fn = push
    return out


def _mlp(x: Tensor, tensors: dict, cfg: TrainConfig, training: bool,
         rng) -> Tensor:
    """relu(x_d W1 + b1)_d W2 + b2 as one tape node, where _d is dropout at
    rate dp_l in training.

    The forward runs in place on the one (n, hidden) array h, and the
    closed-form backward computes the gradient of x only when x requires
    one: the appnp features are constant, so their g @ W1^T is never formed.
    """
    w1, b1, w2, b2 = (tensors[name] for name in
                      ("mlp.w1", "mlp.b1", "mlp.w2", "mlp.b2"))
    dropping = training and cfg.dp_l > 0.0
    x_d, x_mask, h_mask = x.data, None, None
    if dropping:
        x_mask = _dropout_mask(x.shape, cfg.dp_l, x.data.dtype, rng)
        x_d = x_d * x_mask
    h = x_d @ w1.data
    h += b1.data
    np.maximum(h, 0.0, out=h)
    if dropping:
        h_mask = _dropout_mask(h.shape, cfg.dp_l, h.dtype, rng)
        h *= h_mask
    out = h @ w2.data
    out += b2.data
    node = Tensor(out, parents=(x, w1, b1, w2, b2))

    def push(g):
        b2._accumulate(g.sum(axis=0))
        w2._accumulate(h.T @ g)
        g = g @ w2.data.T
        if h_mask is not None:
            g *= h_mask
        # h > 0 wherever the pre-dropout h is; where the mask dropped it,
        # g is already zero
        g *= h > 0.0
        w1._accumulate(x_d.T @ g)
        b1._accumulate(g.sum(axis=0))
        if x.requires_grad:
            g = g @ w1.data.T
            if x_mask is not None:
                g *= x_mask
            x._accumulate(g)

    node._backward_fn = push
    return node


def _combine_layers(stack: Tensor, tensors: dict, params: ModelParams,
                    cfg: TrainConfig) -> tuple[Tensor, np.ndarray]:
    """Mix a (K+1, n, c) stack Z with per-node (or global) coefficients, as
    one tape node for the whole stack.

    Per node, A = Z @ W (Z_0 @ W with static coefficients), H = sigmoid(A),
    eta[k, i] = H[k, i] . Gamma_k, and the output is sum_k eta_k * Z_k;
    global_only uses eta[k, i] = gamma_k. Returns the combined tensor and the
    realized n x (K+1) coefficient matrix for diagnostics, a transposed view.
    """
    z = stack.data
    gamma = tensors["filter.gamma"]
    w = None if params.mode == "global_only" else tensors["filter.w"]
    static = w is not None and cfg.static_coefficients
    if w is None:
        eta = np.broadcast_to(gamma.data, z.shape[:2])
    else:
        z_a = z[0] if static else z           # the layers that A reads
        a = z_a @ w.data                      # (n, d) or (K+1, n, d)
        h = sigmoid(a, out=a)
        eta = (gamma.data @ h.T if static
               else np.einsum("kir,kr->ki", h, gamma.data))
    parents = (stack, gamma) if w is None else (stack, w, gamma)
    node = Tensor(np.einsum("kic,ki->ic", z, eta), parents=parents)

    def push(g):
        d_eta = np.einsum("kic,ic->ki", z, g)
        if w is None:
            gamma._accumulate(d_eta.sum(axis=1, keepdims=True))
        else:
            if static:
                gamma._accumulate(d_eta @ h)
                d_a = d_eta.T @ gamma.data
            else:
                gamma._accumulate(np.matmul(d_eta[:, None, :], h)[:, 0, :])
                d_a = d_eta[:, :, None] * gamma.data[:, None, :]
            d_a *= h
            d_a *= 1.0 - h
            w._accumulate(z_a.reshape(-1, z_a.shape[-1]).T
                          @ d_a.reshape(-1, d_a.shape[-1]))
        if stack.requires_grad:
            d_z = eta[:, :, None] * g
            if w is not None:
                d_z_a = d_z[0] if static else d_z
                d_z_a += d_a @ w.data.T
            stack._accumulate(d_z)

    node._backward_fn = push
    return node, eta.T


def _param_tensors(params: ModelParams) -> dict:
    return {name: parameter(arr) for name, arr in params.arrays().items()}


def _check_finite(logits: np.ndarray, epoch: int = -1) -> None:
    if not np.all(np.isfinite(logits)):
        bad = int(np.sum(~np.isfinite(logits)))
        raise DivergenceError(f"logits contain {bad} non-finite entries", epoch)


def forward_appnp_like(params: ModelParams, features: np.ndarray,
                       op: SparseOperator, cfg: TrainConfig,
                       training: bool = False,
                       rng: Optional[np.random.Generator] = None) -> ForwardTrace:
    """Transform-then-propagate pipeline; logits are the combined output."""
    tensors = _param_tensors(params)
    x = Tensor(np.asarray(features, dtype=cfg.dtype))
    x0 = _mlp(x, tensors, cfg, training, rng)
    x0 = _dropout(x0, cfg.dp_p, training, rng)
    stack = propagation(cfg.basis, op, x0, cfg.order)
    logits, eta = _combine_layers(stack, tensors, params, cfg)
    _check_finite(logits.data)
    return ForwardTrace(logits=logits, params=tensors, coefficients=eta)


def forward_sgc_like(params: ModelParams, stack: PropagationStack,
                     cfg: TrainConfig, training: bool = False,
                     rng: Optional[np.random.Generator] = None,
                     rows: Optional[np.ndarray] = None) -> ForwardTrace:
    """Propagate-then-transform pipeline over a precomputed stack.

    ``rows`` selects a mini-batch of nodes; the combine and MLP are row-wise,
    so batched outputs concatenate to the full-batch result.
    """
    if stack.order != cfg.order:
        raise ValueError(f"stack order {stack.order} != config order {cfg.order}")
    tensors = _param_tensors(params)
    layers = stack.layers
    if rows is not None:
        layers = layers[:, np.asarray(rows, dtype=np.int64)]
    combined, eta = _combine_layers(
        Tensor(layers.astype(cfg.dtype, copy=False)), tensors, params, cfg)
    combined = _dropout(combined, cfg.dp_p, training, rng)
    logits = _mlp(combined, tensors, cfg, training, rng)
    _check_finite(logits.data)
    return ForwardTrace(logits=logits, params=tensors, coefficients=eta)


def loss(logits: np.ndarray, labels: np.ndarray, index_set,
         params: ModelParams, l2: float) -> float:
    """Mean cross-entropy over index_set plus l2 * sum of squared parameters."""
    nll, _ = log_softmax_nll(np.asarray(logits, dtype=np.float64), labels,
                             index_set)
    penalty = sum(float(np.sum(a.astype(np.float64) ** 2))
                  for a in params.arrays().values())
    return float(nll + l2 * penalty)


def attach_loss(trace: ForwardTrace, labels: np.ndarray, index_set,
                l2: float) -> float:
    """Build the loss on the trace's tape; returns its value."""
    total = softmax_cross_entropy(trace.logits, labels, index_set)
    if l2 > 0.0:
        for tensor in trace.params.values():
            total = total + tensor.sum_squares() * l2
    trace.loss = total
    return float(total.data)


def backward(trace: ForwardTrace, seed: float = 1.0) -> dict:
    """Reverse pass through the trace; gradients keyed like params.arrays()."""
    if trace.loss is None:
        raise ValueError("attach_loss must run before backward")
    for tensor in trace.params.values():
        tensor.grad = None
    trace.loss.backward(seed)
    return {name: (np.zeros_like(t.data) if t.grad is None else t.grad)
            for name, t in trace.params.items()}


@dataclass
class AdamState:
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    step: int = 0


def adam_step(params: ModelParams, grads: dict, state: AdamState,
              lr_l: float, lr_p: float) -> None:
    """One Adam update; MLP parameters use lr_l, filter parameters lr_p."""
    state.step += 1
    t = state.step
    for name, arr in params.arrays().items():
        g = grads[name]
        if g.shape != arr.shape:
            raise ValueError(f"gradient shape mismatch for {name}")
        if name not in state.m:
            state.m[name] = np.zeros_like(arr, dtype=np.float64)
            state.v[name] = np.zeros_like(arr, dtype=np.float64)
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * (g * g)
        m_hat = m / (1.0 - ADAM_BETA1 ** t)
        v_hat = v / (1.0 - ADAM_BETA2 ** t)
        lr = lr_l if name.startswith("mlp.") else lr_p
        arr -= (lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)).astype(arr.dtype)


def parameter_count(cfg: TrainConfig, feature_dim: int,
                    class_count: int) -> dict:
    """Exact trainable-parameter counts; the filter term never depends on n."""
    cfg.validate()
    mlp = (feature_dim * cfg.hidden + cfg.hidden
           + cfg.hidden * class_count + class_count)
    if cfg.mode == "global_only":
        filt = cfg.order + 1
    else:
        c_in = class_count if cfg.mode == "appnp_like" else feature_dim
        filt = c_in * cfg.rank + (cfg.order + 1) * cfg.rank
    return {"filter": filt, "mlp": mlp, "total": filt + mlp}


def _operator_and_stack(dataset: Dataset, cfg: TrainConfig
                        ) -> tuple[SparseOperator, Optional[PropagationStack]]:
    """The propagation operator and, for sgc_like, the precomputed stack."""
    op = build_operator(dataset.graph, cfg)
    if cfg.mode != "sgc_like":
        return op, None
    return op, propagate(cfg.basis, op, dataset.features.astype(cfg.dtype),
                         cfg.order)


def _forward(params: ModelParams, dataset: Dataset, cfg: TrainConfig,
             op: SparseOperator, stack: Optional[PropagationStack],
             training: bool = False,
             rng: Optional[np.random.Generator] = None) -> ForwardTrace:
    """Full-batch forward pass of the configured pipeline."""
    if cfg.mode == "sgc_like":
        return forward_sgc_like(params, stack, cfg, training=training, rng=rng)
    return forward_appnp_like(params, dataset.features, op, cfg,
                              training=training, rng=rng)


def train(dataset: Dataset, split: Split, cfg: TrainConfig) -> TrainResult:
    """Full training run with early stopping on validation accuracy.

    In inductive mode the model trains on the subgraph induced by the
    observed nodes (train, validation, observed test); prediction later
    rebuilds the operator on whatever graph it is given.
    """
    cfg.validate()
    validate_split(split, n=dataset.n)
    for name, index in (("train", split.train),
                        ("validation", split.validation)):
        if index.size == 0:
            raise ValueError(f"the {name} set is empty; training needs both "
                             "train and validation nodes")
    if split.mode == "inductive":
        observed = split.observed_nodes()
        sub_ds, ids = subset(dataset, observed)
        remap = -np.ones(dataset.n, dtype=np.int64)
        remap[ids] = np.arange(ids.size)
        train_idx = remap[split.train]
        val_idx = remap[split.validation]
        work = sub_ds
    else:
        train_idx = split.train
        val_idx = split.validation
        work = dataset

    rng = np.random.default_rng(cfg.seed)
    params = init_params(cfg, work.feature_dim, work.class_count, rng)
    op, stack = _operator_and_stack(work, cfg)

    adam = AdamState()
    best = params.copy()
    best_val = -1.0
    best_epoch = 0
    stale = 0
    history = []
    labels = work.labels

    for epoch in range(1, cfg.epochs + 1):
        try:
            if cfg.mode == "sgc_like" and cfg.batch_size:
                order = train_idx[rng.permutation(train_idx.size)]
                for lo in range(0, order.size, cfg.batch_size):
                    batch = order[lo:lo + cfg.batch_size]
                    trace = forward_sgc_like(params, stack, cfg, training=True,
                                             rng=rng, rows=batch)
                    attach_loss(trace, labels[batch],
                                np.arange(batch.size), cfg.l2)
                    adam_step(params, backward(trace), adam, cfg.lr_l, cfg.lr_p)
            else:
                trace = _forward(params, work, cfg, op, stack, training=True,
                                 rng=rng)
                attach_loss(trace, labels, train_idx, cfg.l2)
                adam_step(params, backward(trace), adam, cfg.lr_l, cfg.lr_p)
        except DivergenceError as exc:
            raise DivergenceError("training diverged", epoch) from exc

        logits = _forward(params, work, cfg, op, stack).logits.data
        train_loss = loss(logits, labels, train_idx, params, cfg.l2)
        if not np.isfinite(train_loss):
            raise DivergenceError("training loss is not finite", epoch)
        pred = np.argmax(logits, axis=1)
        train_acc = accuracy(pred, labels, train_idx)
        val_acc = accuracy(pred, labels, val_idx)
        history.append((epoch, train_loss, train_acc, val_acc))

        if val_acc > best_val:
            best_val = val_acc
            best = params.copy()
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale > cfg.patience:
                break

    return TrainResult(params=best, history=history, best_epoch=best_epoch,
                       best_validation_accuracy=best_val,
                       epochs_run=len(history))


def eval_outputs(params: ModelParams, dataset: Dataset,
                 cfg: TrainConfig) -> tuple[np.ndarray, np.ndarray]:
    """Logits and realized per-node coefficient rows of one deterministic
    forward pass.

    The operator (and, for sgc_like, the propagation stack) is rebuilt from
    the dataset's graph, so the graph may contain nodes and edges that were
    never seen in training.
    """
    trace = _forward(params, dataset, cfg, *_operator_and_stack(dataset, cfg))
    return trace.logits.data, trace.coefficients


def predict(params: ModelParams, dataset: Dataset, cfg: TrainConfig,
            index_set=None) -> tuple[np.ndarray, np.ndarray]:
    """Predicted labels (argmax, lowest class index wins ties) and logits."""
    logits, _ = eval_outputs(params, dataset, cfg)
    if index_set is not None:
        index = np.asarray(index_set, dtype=np.int64)
        logits = logits[index]
    return np.argmax(logits, axis=1), logits


def node_coefficients(params: ModelParams, dataset: Dataset,
                      cfg: TrainConfig) -> np.ndarray:
    """Realized per-node coefficient rows from a deterministic forward pass."""
    return eval_outputs(params, dataset, cfg)[1]


def save_checkpoint(path, params: ModelParams, cfg: TrainConfig) -> None:
    """Versioned checkpoint: magic, JSON header, little-endian float64 blobs."""
    arrays = params.arrays()
    header = {
        "version": 1,
        "mode": params.mode,
        "config": asdict(cfg),
        "arrays": [[name, list(arrays[name].shape)] for name in arrays],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for name in arrays:
            fh.write(np.ascontiguousarray(arrays[name],
                                          dtype="<f8").tobytes())


def _read_exact(fh, size: int, path, what: str) -> bytes:
    raw = fh.read(size)
    if len(raw) != size:
        raise ValueError(f"{path}: truncated checkpoint: {what} needs {size} "
                         f"bytes, {len(raw)} remain")
    return raw


def load_checkpoint(path) -> tuple[ModelParams, TrainConfig]:
    with open(path, "rb") as fh:
        magic = fh.read(len(CHECKPOINT_MAGIC))
        if magic != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint (bad magic)")
        raw_length = _read_exact(fh, 4, path, "header length")
        (length,) = struct.unpack("<I", raw_length)
        header = json.loads(_read_exact(fh, length, path, "header").decode())
        if header.get("version") != 1:
            raise ValueError(f"{path}: unsupported checkpoint version")
        cfg = TrainConfig(**header["config"])
        data = {}
        for name, shape in header["arrays"]:
            count = int(np.prod(shape)) if shape else 1
            raw = _read_exact(fh, count * 8, path, f"array {name!r}")
            data[name] = np.frombuffer(raw, dtype="<f8").reshape(shape).astype(
                cfg.dtype).copy()
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the last array")
    mode = header["mode"]
    if mode == "global_only":
        params = ModelParams(data["mlp.w1"], data["mlp.b1"], data["mlp.w2"],
                             data["mlp.b2"], mode, gamma=data["filter.gamma"])
    else:
        fact = FilterFactorization(w=data["filter.w"],
                                   gamma=data["filter.gamma"])
        params = ModelParams(data["mlp.w1"], data["mlp.b1"], data["mlp.w2"],
                             data["mlp.b2"], mode, factorization=fact)
    return params, cfg
