"""Per-node spectral filtering models, gradients, and the training loop.

Two pipelines share the same trainable pieces (a 2-layer MLP, a projection W,
and base-filter matrix Gamma), declared once, by name and shape, in
``param_shapes``; ``ModelParams`` maps those names to arrays, and every
consumer (forwards, backwards, loss, Adam, checkpoints) reads them by name:

* ``appnp_like``  - transform features with the MLP, then propagate its
  outputs: layer Z_k is the MLP output propagated k times.
* ``sgc_like``    - propagate the raw features once (precomputable, reusable
  across epochs and mini-batches), so Z_k is the raw features propagated k
  times, and apply the MLP after the combine.

Both combine sum_k eta_k * Z_k with one coefficient map, ``_coefficients``:
eta[k, i] = sigmoid(Z_k[i] W) . Gamma_k, so by default order k reads layer
Z_k; with static coefficients (``--static-h``) every order reads layer 0.

``global_only`` is the ablation: a single learned coefficient vector gamma
replaces the factorized per-node coefficients in the appnp pipeline. Its
parameters have no "filter.w", and that absence is how the code below tells
it apart.

Gradients are explicit. Each forward is plain numpy and keeps, in its
``ForwardTrace``, the named arrays its backward reads; ``backward`` runs the
stages in reverse as straight-line code, each with a closed-form gradient:
the MLP (``_mlp``), which runs in place on one hidden array and never forms
the gradient of constant features; the filtering-layer dropout; the
(K+1, n, c) propagation stack, whose backward is
the adjoint recursion ``autodiff.polynomial_adjoint``; and the combine
(``_combine_layers``), which mixes the whole stack with its coefficients.
The combine's backward hands the adjoint one layer gradient at a time, as
Clenshaw's sum reaches it, so no (K+1, n, c) gradient stack exists but for
the Bernstein basis, and the MLP's backward writes its hidden gradient over
the trace's hidden array: ``backward`` consumes its trace.
Every dropout (dp_l in the MLP, dp_p on the filtering layer) is drawn and
applied a row block at a time by ``_dropout``, from uint16 draws: an element
is kept when its draw is at least t = round(rate * 65536), so rates are
quantised to 1/65536. A mask a backward reads is kept as a bool keep-mask
plus its 0-d keep-scale 65536 / (65536 - t).
The appnp forward writes its stack (the MLP output into layer 0), hidden
array and dp_l-dropped x_d into a ``Workspace``, one per ``train`` run,
where each epoch's evaluation also runs its MLP in the hidden array. New
arrays each epoch made training 8-12% slower; without x_d, or the
evaluation in the hidden array, a run peaked at 5.7 or 5.3 feature sizes,
not 4.8. H, eta, the logits and dp_p mask saved nothing.
Evaluation is one function, ``_evaluate``, read by training's per-epoch
check and by ``eval_outputs`` alike: sgc_like runs its forward without
dropout over the precomputed stack; the appnp pipeline runs without
intermediates at every graph size: the MLP on blocks of rows, so the
(n, hidden) array is never whole, and each layer mixed in as the recursion
yields it, so no (K+1, n, c) stack is either, except for the Bernstein
basis, whose layers each mix the whole Chebyshev stack.
``build_operator`` alone picks each basis's operator and its lambda_max,
each assembled from the graph without a sparse matrix product; at
lambda_max = 2 the Chebyshev and Bernstein operator shares the index arrays
of a graph without isolated nodes (see ``graph.chebyshev_operator``).
Optimization is Adam with the MLP and filter parameters on separate learning
rates, and weight decay enters the loss as an explicit squared-norm penalty.
"""

import json
import math
import struct
from dataclasses import asdict, dataclass, field, fields
from typing import Callable, NamedTuple, Optional

import numpy as np

from .autodiff import (log_softmax_nll, log_softmax_nll_grad,
                       polynomial_adjoint, sigmoid)
from .data import Dataset, Split, subset, validate_split
from .evaluate import accuracy
from .graph import (Graph, SparseOperator, chebyshev_operator,
                    estimate_lambda_max, node_ids, normalized_laplacian)
from .polyfilter import (BASES, PropagationStack, iter_layers,
                         polynomial_layers, propagate)

MODES = ("appnp_like", "sgc_like", "global_only")

CHECKPOINT_MAGIC = b"NODESPEC-CKPT-1\n"

# Bytes per read of a checkpoint: a header may claim any size, and a claim
# beyond the data costs at most what the file or pipe holds, not what the
# header says.
CHECKPOINT_READ_CHUNK = 1 << 20

# Rows per block of the evaluation MLP: a (4096, hidden) array, 2 MiB at
# 64 float64 units, in place of the whole (n, hidden) one.
EVAL_BLOCK_ROWS = 4096

# Elements per row block of a training dropout mask, in place of a whole
# (n, width) mask: 64 KiB of uint16 draws at a time, each kept if it is at
# least t = round(rate * 65536) and scaled by 65536 / (65536 - t). Blocks
# hold a multiple of 4 rows, so each but the last reads whole uint64 draws.
MASK_BLOCK = 1 << 15

# Distinct values of one 16-bit dropout draw; dropout rates are quantised
# to 1/DROPOUT_LEVELS.
DROPOUT_LEVELS = 1 << 16

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


class DivergenceError(RuntimeError):
    """Training produced non-finite values; carries the offending epoch."""

    def __init__(self, message: str, epoch: int):
        super().__init__(f"{message} (epoch {epoch})")
        self.epoch = epoch


@dataclass(frozen=True)
class TrainConfig:
    """One run's settings. ``__post_init__`` is the only validity rule: a
    TrainConfig that exists trains as configured. Errors name the field."""

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
    lambda_max: float = 2.0            # chebyshev without an estimate only
    estimate_spectrum: bool = False    # lambda_max from a Lanczos bound on L
    precision: str = "float64"

    def __post_init__(self) -> None:
        for name in ("dp_l", "dp_p"):
            rate = getattr(self, name)
            if not 0.0 <= rate < 1.0:
                raise ValueError(f"{name} must lie in [0, 1)")
            t = dropout_threshold(rate)
            if rate > 0.0 and t in (0, DROPOUT_LEVELS):
                raise ValueError(
                    f"{name}={rate!r} rounds to a drop rate of {t}/65536; "
                    f"dropout rates are drawn in steps of 1/65536, so a "
                    f"non-zero one must lie in (2^-17, 1 - 2^-17)")
        for name in ("lr_l", "lr_p"):
            rate = getattr(self, name)
            if not (math.isfinite(rate) and rate > 0):
                raise ValueError(f"{name} must be finite and positive, got "
                                 f"{rate!r}")
        if not (math.isfinite(self.l2) and self.l2 >= 0):
            raise ValueError(f"l2 must be finite and non-negative, got "
                             f"{self.l2!r}")
        for name, least in (("order", 1), ("rank", 1), ("hidden", 1),
                            ("epochs", 1), ("patience", 0)):
            if getattr(self, name) < least:
                raise ValueError(f"{name} must be >= {least}")
        if self.mode not in MODES:
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.basis not in BASES:
            raise ValueError(f"unknown basis {self.basis!r}; expected one "
                             f"of {BASES}")
        if self.precision not in ("float64", "float32"):
            raise ValueError("precision must be float64 or float32")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch_size must be >= 1 when set")
        if self.batch_size is not None and self.mode != "sgc_like":
            raise ValueError("batch_size needs mode sgc_like")
        if self.static_coefficients and self.mode == "global_only":
            raise ValueError("static_coefficients does not apply to mode "
                             "global_only")
        if self.estimate_spectrum and self.basis != "chebyshev":
            raise ValueError("estimate_spectrum needs basis chebyshev")
        if not (math.isfinite(self.lambda_max) and self.lambda_max > 0):
            raise ValueError(f"lambda_max must be finite and positive, got "
                             f"{self.lambda_max!r}")
        if self.lambda_max != 2.0 and (self.basis != "chebyshev"
                                       or self.estimate_spectrum):
            raise ValueError(f"lambda_max={self.lambda_max!r} applies only to "
                             "basis chebyshev without estimate_spectrum")

    @property
    def dtype(self):
        return np.float64 if self.precision == "float64" else np.float32


class ModelParams(dict):
    """The trainable arrays by name, in ``param_shapes`` order."""

    def copy(self) -> "ModelParams":
        return ModelParams((name, arr.copy()) for name, arr in self.items())


@dataclass
class MLPTrace:
    """What the MLP forward keeps for its backward."""

    x_d: np.ndarray                 # the input after dropout
    x_mask: Optional[np.ndarray]    # bool keep-mask, for an input gradient
    h: np.ndarray                   # the hidden array after ReLU and dropout
    scale: Optional[np.ndarray]     # 0-d dp_l keep-scale; None undropped


@dataclass
class CombineTrace:
    """What the combine forward keeps for its backward."""

    z: np.ndarray                   # the (K+1, n, c) stack
    h: Optional[np.ndarray]         # (m, n, d) sigmoid(A); None global_only
    eta: np.ndarray                 # (K+1, n) coefficients


@dataclass
class ForwardTrace:
    """One forward pass as plain arrays: the logits, the realized n x (K+1)
    coefficient matrix, the parameters it read, and the named intermediates
    ``backward`` reads.

    ``dropout`` is the filtering-layer (dp_p) bool keep-mask and
    ``dropout_scale`` its 0-d keep-scale, both None when nothing was
    dropped; ``propagation`` is the (basis, operator) pair of the appnp
    pipeline, None for sgc_like, whose stack is a constant input.
    ``attach_loss`` fills in the loss gradient of the logits and l2.
    ``backward`` consumes the trace: it clears the loss gradient, so a
    second ``backward`` raises until ``attach_loss`` runs again, and it
    writes the hidden gradient over mlp.h, which no longer holds the
    activations. An appnp trace's combine.z, mlp.h and dropped mlp.x_d
    belong to its ``Workspace``, so the next forward or ``_evaluate`` into
    that workspace writes over them.
    """

    logits: np.ndarray
    coefficients: np.ndarray
    params: ModelParams
    mlp: MLPTrace
    combine: CombineTrace
    dropout: Optional[np.ndarray]
    dropout_scale: Optional[np.ndarray]
    propagation: Optional[tuple]
    logits_grad: Optional[np.ndarray] = None
    l2: float = 0.0


class Workspace(NamedTuple):
    """The arrays an appnp forward writes into, made by ``appnp_workspace``."""

    stack: np.ndarray               # the (K+1, n, c) propagation stack
    h: np.ndarray                   # the (n, hidden) hidden array
    x_d: Optional[np.ndarray]       # the dp_l-dropped input; None undropped


@dataclass
class TrainResult:
    params: ModelParams
    history: list
    best_epoch: int
    best_validation_accuracy: float
    epochs_run: int


def param_shapes(cfg: TrainConfig, feature_dim: int,
                 class_count: int) -> dict:
    """The trainable arrays of cfg's mode, name -> shape, in checkpoint
    order: the MLP's, then the projection W (c_in x d, where c_in is the
    width the coefficients are read from) unless global_only, then Gamma,
    one column per rank (one for global_only)."""
    shapes = {"mlp.w1": (feature_dim, cfg.hidden), "mlp.b1": (cfg.hidden,),
              "mlp.w2": (cfg.hidden, class_count), "mlp.b2": (class_count,)}
    if cfg.mode == "global_only":
        shapes["filter.gamma"] = (cfg.order + 1, 1)
    else:
        c_in = class_count if cfg.mode == "appnp_like" else feature_dim
        shapes["filter.w"] = (c_in, cfg.rank)
        shapes["filter.gamma"] = (cfg.order + 1, cfg.rank)
    return shapes


def init_params(cfg: TrainConfig, feature_dim: int, class_count: int,
                rng: np.random.Generator) -> ModelParams:
    """Fan-scaled symmetric-uniform weight matrices, drawn in
    ``param_shapes`` order; zero biases; Gamma columns decaying as
    0.1 * 0.9^k."""
    decay = 0.1 * np.power(0.9, np.arange(cfg.order + 1))
    params = ModelParams()
    for name, shape in param_shapes(cfg, feature_dim, class_count).items():
        if name == "filter.gamma":
            arr = np.tile(decay[:, None], (1, shape[1]))
        elif len(shape) == 1:
            arr = np.zeros(shape)
        else:
            bound = 1.0 / np.sqrt(shape[0])
            arr = rng.uniform(-bound, bound, size=shape)
        params[name] = arr.astype(cfg.dtype)
    return params


def build_operator(graph: Graph, cfg: TrainConfig) -> SparseOperator:
    """The propagation operator of the configured basis; the only code that
    picks an operator and its lambda_max. Monomial gets the normalized
    Laplacian; the others the scaled Laplacian at cfg.lambda_max (always 2.0
    for bernstein) or, with ``estimate_spectrum``, at the Lanczos upper
    estimate ``estimate_lambda_max`` of L's spectrum."""
    if cfg.basis == "monomial":
        return normalized_laplacian(graph)
    if not cfg.estimate_spectrum:
        return chebyshev_operator(graph, cfg.lambda_max)
    return chebyshev_operator(
        graph, max(estimate_lambda_max(normalized_laplacian(graph)), 1e-12))


def dropout_threshold(rate: float) -> int:
    """t = round(rate * 65536): a 16-bit draw below t drops its element, so
    the drop probability is t / 65536, rate quantised to 1/65536."""
    return round(rate * DROPOUT_LEVELS)


def _dropout(x: np.ndarray, rate: float, rng: Optional[np.random.Generator],
             out: np.ndarray, keep_mask: bool = False
             ) -> tuple[Optional[np.ndarray], Optional[np.ndarray]]:
    """Inverted dropout of x into ``out`` (may be x): x * (bits >= t) *
    65536 / (65536 - t), where t = ``dropout_threshold(rate)`` and bits are
    uniform 16-bit draws, four to each little-endian uint64 of
    ``rng.bit_generator.random_raw``. The keep probability is thus 1 - rate
    quantised to 1/65536. The draws are taken MASK_BLOCK elements of rows
    at a time, a whole number of uint64s per block but the last, so they
    are the same as one whole draw of ceil(x.size / 4) uint64s. Returns the
    bool keep-mask if ``keep_mask``, a new array, and the 0-d keep-scale in
    x's dtype; times the mask, then the scale, is times the float mask
    keep * scale bit for bit. At rate 0 nothing is drawn: (None, None)."""
    if rate <= 0.0:
        return None, None
    t = dropout_threshold(rate)
    scale = (np.array(DROPOUT_LEVELS, x.dtype)
             / np.array(DROPOUT_LEVELS - t, x.dtype))
    mask = np.empty(x.shape, dtype=bool) if keep_mask else None
    rows = max(4, MASK_BLOCK // max(1, x.shape[1]) // 4 * 4)
    for lo in range(0, len(x), rows):
        block = x[lo:lo + rows]
        bits = rng.bit_generator.random_raw(-(-block.size // 4))
        bits = bits.astype("<u8", copy=False).view("<u2")[:block.size]
        keep = None if mask is None else mask[lo:lo + rows]
        keep = np.greater_equal(bits.reshape(block.shape), t, out=keep)
        dst = out[lo:lo + rows]
        np.multiply(block, keep, out=dst)
        dst *= scale
        # free this block's draws before the next one is drawn
        del bits, keep
    return mask, scale


def _mlp(x: np.ndarray, params: ModelParams, cfg: TrainConfig,
         training: bool, rng, x_grad: bool = False,
         out: Optional[np.ndarray] = None, h: Optional[np.ndarray] = None,
         x_d: Optional[np.ndarray] = None) -> tuple[np.ndarray, MLPTrace]:
    """relu(x_d W1 + b1)_d W2 + b2, where _d is dropout at rate dp_l in
    training, run in place on the one (n, hidden) array h. Its masks are
    drawn and applied a row block at a time. Only an ``x_grad`` input keeps
    its mask; the backward reads the hidden mask from h > 0, which after
    the dropout holds where both the ReLU and the mask pass. The output is
    written into ``out``, the hidden array into ``h`` and the dropped input
    into ``x_d`` when given; without dp_l dropout x_d is x itself."""
    rate = cfg.dp_l if training else 0.0
    if rate <= 0.0:
        x_d = x
    elif x_d is None:
        x_d = np.empty_like(x)
    x_mask, scale = _dropout(x, rate, rng, x_d, keep_mask=x_grad)
    h = np.matmul(x_d, params["mlp.w1"], out=h)
    h += params["mlp.b1"]
    np.maximum(h, 0.0, out=h)
    _dropout(h, rate, rng, h)
    out = np.matmul(h, params["mlp.w2"], out=out)
    out += params["mlp.b2"]
    return out, MLPTrace(x_d, x_mask, h, scale)


def _mlp_backward(g: np.ndarray, saved: MLPTrace, params: ModelParams,
                  grads: dict, x_grad: bool) -> Optional[np.ndarray]:
    """Put the MLP weight gradients for output gradient g in ``grads``;
    return the input gradient if ``x_grad``, else None: the appnp features
    are constant, so their g @ W1^T is never formed. Once h's keep-mask and
    h^T g are read, the hidden gradient g W2^T is written over saved.h."""
    grads["mlp.b2"] = g.sum(axis=0)
    grads["mlp.w2"] = saved.h.T @ g
    # h > 0 is the ReLU's and the hidden mask's keep-mask at once
    keep = saved.h > 0.0
    g = np.matmul(g, params["mlp.w2"].T, out=saved.h)
    g *= keep
    del keep
    if saved.scale is not None:
        g *= saved.scale
    grads["mlp.w1"] = saved.x_d.T @ g
    grads["mlp.b1"] = g.sum(axis=0)
    if not x_grad:
        return None
    g = g @ params["mlp.w1"].T
    if saved.x_mask is not None:
        g *= saved.x_mask
        g *= saved.scale
    return g


def _coefficients(z_a: np.ndarray, gamma: np.ndarray, w: Optional[np.ndarray]
                  ) -> tuple[Optional[np.ndarray], np.ndarray]:
    """H = sigmoid(Z_a W) and eta[k, i] = H[k, i] . Gamma_k, the (K+1, n)
    coefficients, from the (m, n, c) layers Z_a they read: m = K+1 feeds
    layer k to order k, m = 1 feeds one layer to every order. Without W
    (global_only) H is None and eta is Gamma broadcast over the nodes."""
    if w is None:
        return None, np.broadcast_to(gamma, (len(gamma), z_a.shape[1]))
    a = np.matmul(z_a, w)
    h = sigmoid(a, out=a)
    return h, np.einsum("kir,kr->ki", h, gamma)


def _combine_layers(z: np.ndarray, params: ModelParams, cfg: TrainConfig
                    ) -> tuple[np.ndarray, CombineTrace]:
    """Mix a (K+1, n, c) stack Z with its ``_coefficients``: order k reads
    layer Z_k, or, with static coefficients, every order reads Z_0; the
    output is sum_k eta_k * Z_k. H, eta and the output are new in every
    forward: holding them in a workspace saved no time, faults or peak."""
    z_a = z[:1] if cfg.static_coefficients else z
    h, eta = _coefficients(z_a, params["filter.gamma"], params.get("filter.w"))
    return np.einsum("kic,ki->ic", z, eta), CombineTrace(z, h, eta)


def _combine_backward(g: np.ndarray, saved: CombineTrace,
                      params: ModelParams, grads: dict,
                      z_grad: bool) -> Optional[Callable]:
    """Put the filter gradients for output gradient g in ``grads``; return
    the stack gradient if ``z_grad`` as a function of k, the gradient
    eta_k * g + dA_k W^T of layer k in an array of its own, else None (the
    sgc stack is constant). Layers are asked for one at a time, so the
    (K+1, n, c) gradient is never whole. H of fewer layers than eta has
    orders read the leading layers of Z, so their A gradients sum over the
    orders, and only those layers get the W^T term."""
    z, h, eta = saved.z, saved.h, saved.eta
    gamma, w = params["filter.gamma"], params.get("filter.w")
    d_eta = np.einsum("kic,ic->ki", z, g)
    if w is None:
        grads["filter.gamma"] = d_eta.sum(axis=1, keepdims=True)
    else:
        grads["filter.gamma"] = np.matmul(d_eta[:, None, :], h)[:, 0, :]
        d_a = d_eta[:, :, None] * gamma[:, None, :]
        if len(h) < len(eta):
            d_a = d_a.sum(axis=0, keepdims=True)
        d_a *= h
        d_a *= 1.0 - h
        z_a = z[:len(h)]
        grads["filter.w"] = (z_a.reshape(-1, z_a.shape[-1]).T
                             @ d_a.reshape(-1, d_a.shape[-1]))
    if not z_grad:
        return None

    def layer_grad(k: int) -> np.ndarray:
        d_z = eta[k][:, None] * g
        if w is not None and k < len(h):
            d_z += d_a[k] @ w.T
        return d_z

    return layer_grad


def _check_finite(logits: np.ndarray, epoch: int = -1) -> None:
    if not np.all(np.isfinite(logits)):
        bad = int(np.sum(~np.isfinite(logits)))
        raise DivergenceError(f"logits contain {bad} non-finite entries", epoch)


def appnp_workspace(cfg: TrainConfig, n: int, feature_dim: int,
                    class_count: int, training: bool) -> Workspace:
    """Uninitialised arrays for appnp forwards of cfg over n nodes; x_d
    only for a training forward that dp_l drops."""
    return Workspace(np.empty((cfg.order + 1, n, class_count), cfg.dtype),
                     np.empty((n, cfg.hidden), cfg.dtype),
                     np.empty((n, feature_dim), cfg.dtype)
                     if training and cfg.dp_l > 0.0 else None)


def forward_appnp_like(params: ModelParams, features: np.ndarray,
                       op: SparseOperator, cfg: TrainConfig,
                       training: bool = False,
                       rng: Optional[np.random.Generator] = None,
                       workspace: Optional[Workspace] = None) -> ForwardTrace:
    """Transform-then-propagate pipeline; logits are the combined output.
    The MLP writes its output into layer 0 of the (K+1, n, c) stack, where
    the dp_p dropout and the propagation continue in place. The stack,
    hidden array and dropped input are ``workspace``'s, or a new one's."""
    x = np.asarray(features, dtype=cfg.dtype)
    stack, h, x_d = workspace or appnp_workspace(
        cfg, len(x), x.shape[1], params["mlp.b2"].size, training)
    x0, mlp = _mlp(x, params, cfg, training, rng, out=stack[0], h=h, x_d=x_d)
    mask, scale = _dropout(x0, cfg.dp_p if training else 0.0, rng, x0, True)
    polynomial_layers(cfg.basis, op, x0, cfg.order, stack)
    logits, combine = _combine_layers(stack, params, cfg)
    _check_finite(logits)
    return ForwardTrace(logits, combine.eta.T, params, mlp, combine, mask,
                        scale, (cfg.basis, op))


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
    if stack.basis != cfg.basis:
        raise ValueError(f"a {stack.basis} stack given to a {cfg.basis} "
                         "model")
    layers = stack.layers
    if rows is not None:
        layers = layers[:, node_ids(rows, layers.shape[1])]
    combined, combine = _combine_layers(layers.astype(cfg.dtype, copy=False),
                                        params, cfg)
    mask, scale = _dropout(combined, cfg.dp_p if training else 0.0, rng,
                           combined, keep_mask=True)
    logits, mlp = _mlp(combined, params, cfg, training, rng, x_grad=True)
    _check_finite(logits)
    return ForwardTrace(logits, combine.eta.T, params, mlp, combine, mask,
                        scale, None)


def _evaluate(params: ModelParams, features: np.ndarray,
              op: SparseOperator, stack: Optional[PropagationStack],
              cfg: TrainConfig, workspace: Optional[Workspace] = None
              ) -> tuple[np.ndarray, np.ndarray]:
    """Logits and n x (K+1) coefficients of the configured pipeline without
    dropout. sgc_like runs ``forward_sgc_like`` over its precomputed stack.
    The appnp pipeline gives those of ``forward_appnp_like`` up to rounding,
    keeping nothing for a backward: the MLP runs on blocks of
    EVAL_BLOCK_ROWS rows, each block's hidden array in its rows of
    ``workspace.h`` when given; and each layer is mixed into the output as
    ``iter_layers`` yields it, in O(n (c + K)) memory but for the
    Bernstein stack."""
    if cfg.mode == "sgc_like":
        trace = forward_sgc_like(params, stack, cfg)
        return trace.logits, trace.coefficients
    x = np.asarray(features, dtype=cfg.dtype)
    x0 = np.concatenate([
        _mlp(x[lo:lo + EVAL_BLOCK_ROWS], params, cfg, False, None,
             h=None if workspace is None
             else workspace.h[lo:lo + EVAL_BLOCK_ROWS])[0]
        for lo in range(0, len(x), EVAL_BLOCK_ROWS)])
    gamma, w = params["filter.gamma"], params.get("filter.w")
    eta = np.empty((cfg.order + 1, len(x0)), dtype=x0.dtype)
    out = np.zeros_like(x0)
    for k, z in enumerate(iter_layers(cfg.basis, op, x0, cfg.order)):
        if k == 0 or not cfg.static_coefficients:
            # order k's coefficients, or every order's from layer 0
            orders = slice(k, None if cfg.static_coefficients else k + 1)
            eta[orders] = _coefficients(z[None], gamma[orders], w)[1]
        out += z * eta[k][:, None]
    _check_finite(out)
    return out, eta.T


def loss(logits: np.ndarray, labels: np.ndarray, index_set,
         params: ModelParams, l2: float) -> float:
    """Mean cross-entropy over index_set, read by ``graph.node_ids``, plus
    l2 * sum of squared parameters."""
    nll, _ = log_softmax_nll(np.asarray(logits, dtype=np.float64), labels,
                             node_ids(index_set, len(logits)))
    penalty = sum(float(np.sum(a.astype(np.float64) ** 2))
                  for a in params.values())
    return float(nll + l2 * penalty)


def attach_loss(trace: ForwardTrace, labels: np.ndarray, index_set,
                l2: float) -> float:
    """The training loss of the trace, in the logits' dtype: the mean
    cross-entropy over index_set, read once by ``graph.node_ids``, plus l2
    times each weight's squared norm. Keeps the loss gradient of the logits
    and l2 on the trace for ``backward``."""
    l2 = float(l2)
    index = node_ids(index_set, len(trace.logits))
    total, log_probs = log_softmax_nll(trace.logits, labels, index)
    trace.logits_grad = log_softmax_nll_grad(trace.logits, labels, index,
                                             log_probs)
    trace.l2 = l2
    if l2 > 0.0:
        for arr in trace.params.values():
            total = total + np.sum(arr * arr) * l2
    return float(total)


def backward(trace: ForwardTrace) -> dict:
    """Gradients of the attached loss, keyed and ordered like the trace's
    params: the forward's stages in reverse order, then the penalty's
    2 l2 p. Consumes the trace: the loss gradient is cleared and mlp.h
    overwritten (see ``ForwardTrace``)."""
    if trace.logits_grad is None:
        raise ValueError("attach_loss must run before backward")
    grads, params = {}, trace.params
    g, trace.logits_grad = trace.logits_grad, None
    if trace.propagation is None:
        # sgc_like: logits = MLP(dropout(combine(stack)))
        g = _mlp_backward(g, trace.mlp, params, grads, x_grad=True)
        if trace.dropout is not None:
            g *= trace.dropout
            g *= trace.dropout_scale
        _combine_backward(g, trace.combine, params, grads, z_grad=False)
    else:
        # logits = combine(propagate(dropout(MLP(features))))
        g = polynomial_adjoint(*trace.propagation,
                               _combine_backward(g, trace.combine, params,
                                                 grads, z_grad=True),
                               len(trace.combine.eta) - 1)
        if trace.dropout is not None:
            g *= trace.dropout
            g *= trace.dropout_scale
        _mlp_backward(g, trace.mlp, params, grads, x_grad=False)
    # no +0.0 addend without a penalty: it would turn a -0.0 gradient to +0.0
    if trace.l2 > 0.0:
        for name, arr in params.items():
            grads[name] += (2.0 * trace.l2) * arr
    return {name: grads[name] for name in params}


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
    for name, arr in params.items():
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
    """Exact trainable-parameter counts, the sizes of ``param_shapes``; the
    filter term never depends on n."""
    sizes = {name: math.prod(shape) for name, shape
             in param_shapes(cfg, feature_dim, class_count).items()}
    mlp = sum(size for name, size in sizes.items() if name.startswith("mlp."))
    total = sum(sizes.values())
    return {"filter": total - mlp, "mlp": mlp, "total": total}


def _operator_and_stack(dataset: Dataset, cfg: TrainConfig
                        ) -> tuple[SparseOperator, Optional[PropagationStack]]:
    """The propagation operator and, for sgc_like, the precomputed stack."""
    op = build_operator(dataset.graph, cfg)
    if cfg.mode != "sgc_like":
        return op, None
    # propagate copies x into layer 0: no copy here when the dtype matches
    return op, propagate(cfg.basis, op,
                         dataset.features.astype(cfg.dtype, copy=False),
                         cfg.order)


def train(dataset: Dataset, split: Split, cfg: TrainConfig) -> TrainResult:
    """Full training run with early stopping on validation accuracy.

    In inductive mode the model trains on the subgraph induced by the
    observed nodes (train, validation, observed test); prediction later
    rebuilds the operator on whatever graph it is given.
    """
    validate_split(split, n=dataset.n)
    for name, index in (("train", split.train),
                        ("validation", split.validation)):
        if index.size == 0:
            raise ValueError(f"the {name} set is empty; training needs both "
                             "train and validation nodes")
    if split.mode == "inductive":
        observed = split.observed_nodes()
        sub_ds, ids = subset(dataset, observed)
        train_idx = np.searchsorted(ids, split.train)  # ids is sorted
        val_idx = np.searchsorted(ids, split.validation)
        work = sub_ds
    else:
        train_idx = split.train
        val_idx = split.validation
        work = dataset

    rng = np.random.default_rng(cfg.seed)
    params = init_params(cfg, work.feature_dim, work.class_count, rng)
    op, stack = _operator_and_stack(work, cfg)
    # appnp casts once, not in every forward; sgc_like reads only its stack
    features = (work.features if stack is not None
                else np.asarray(work.features, dtype=cfg.dtype))
    workspace = (None if stack is not None
                 else appnp_workspace(cfg, work.n, work.feature_dim,
                                      work.class_count, training=True))

    adam = AdamState()
    best = params.copy()
    best_val = -1.0
    best_epoch = 0
    stale = 0
    history = []
    labels = work.labels

    for epoch in range(1, cfg.epochs + 1):
        try:
            if cfg.batch_size:
                order = train_idx[rng.permutation(train_idx.size)]
                for lo in range(0, order.size, cfg.batch_size):
                    batch = order[lo:lo + cfg.batch_size]
                    trace = forward_sgc_like(params, stack, cfg, training=True,
                                             rng=rng, rows=batch)
                    attach_loss(trace, labels[batch],
                                np.arange(batch.size), cfg.l2)
                    adam_step(params, backward(trace), adam, cfg.lr_l, cfg.lr_p)
            else:
                if cfg.mode == "sgc_like":
                    trace = forward_sgc_like(params, stack, cfg, training=True,
                                             rng=rng)
                else:
                    trace = forward_appnp_like(params, features, op, cfg,
                                               training=True, rng=rng,
                                               workspace=workspace)
                attach_loss(trace, labels, train_idx, cfg.l2)
                adam_step(params, backward(trace), adam, cfg.lr_l, cfg.lr_p)
            logits = _evaluate(params, features, op, stack, cfg, workspace)[0]
        except DivergenceError as exc:
            raise DivergenceError("training diverged", epoch) from exc

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
    never seen in training. The forward is ``_evaluate``, training's
    per-epoch check: at every graph size the appnp pipeline holds neither
    the hidden array nor (but for Bernstein) the propagation stack.
    Parameters for another feature width raise ValueError first.
    """
    width = params["mlp.w1"].shape[0]
    if width != dataset.feature_dim:
        raise ValueError(f"the model takes {width} features per node, the "
                         f"dataset has {dataset.feature_dim}")
    op, stack = _operator_and_stack(dataset, cfg)
    return _evaluate(params, dataset.features, op, stack, cfg)


def predict(params: ModelParams, dataset: Dataset, cfg: TrainConfig,
            index_set=None) -> tuple[np.ndarray, np.ndarray]:
    """Predicted labels (argmax, lowest class index wins ties) and logits
    of every node, or of ``index_set``, read first by ``graph.node_ids``."""
    index = (slice(None) if index_set is None
             else node_ids(index_set, dataset.n))
    logits = eval_outputs(params, dataset, cfg)[0][index]
    return np.argmax(logits, axis=1), logits


def node_coefficients(params: ModelParams, dataset: Dataset,
                      cfg: TrainConfig) -> np.ndarray:
    """Realized per-node coefficient rows from a deterministic forward pass."""
    return eval_outputs(params, dataset, cfg)[1]


def save_checkpoint(path, params: ModelParams, cfg: TrainConfig) -> None:
    """Versioned checkpoint: magic, JSON header, little-endian float64 blobs."""
    header = {
        "version": 1,
        "mode": cfg.mode,
        "config": asdict(cfg),
        "arrays": [[name, list(arr.shape)] for name, arr in params.items()],
    }
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    with open(path, "wb") as fh:
        fh.write(CHECKPOINT_MAGIC)
        fh.write(struct.pack("<I", len(blob)))
        fh.write(blob)
        for arr in params.values():
            fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def _read_exact(fh, size: int, path, what: str) -> bytes:
    chunks, got = [], 0
    while got < size and (chunk := fh.read(
            min(size - got, CHECKPOINT_READ_CHUNK))):
        chunks.append(chunk)
        got += len(chunk)
    # one chunk is joined without a copy
    raw = b"".join(chunks)
    if len(raw) != size:
        raise ValueError(f"{path}: truncated checkpoint: {what} needs {size} "
                         f"bytes, {len(raw)} remain")
    return raw


def _checkpoint_config(header: dict, path) -> TrainConfig:
    """The config of a checkpoint header, once the header is consistent:
    its config keys are TrainConfig's fields and make a TrainConfig, its mode
    is the config's, and its arrays are that mode's ``param_shapes``, in
    order, at the feature and class widths of mlp.w1 and mlp.w2."""
    config = header.get("config")
    if not isinstance(config, dict):
        raise ValueError(f"{path}: the checkpoint header has no config")
    names = {f.name for f in fields(TrainConfig)}
    unknown, missing = sorted(set(config) - names), sorted(names - set(config))
    if unknown or missing:
        raise ValueError(f"{path}: the config keys are not TrainConfig's "
                         f"(unknown {unknown}, missing {missing})")
    try:
        cfg = TrainConfig(**config)
    except (TypeError, ValueError) as exc:
        raise ValueError(f"{path}: invalid config: {exc}") from None
    if header.get("mode") != cfg.mode:
        raise ValueError(f"{path}: header mode {header.get('mode')!r} is not "
                         f"the config's {cfg.mode!r}")
    entries = header.get("arrays")
    if not (isinstance(entries, list)
            and all(isinstance(e, list) and len(e) == 2 for e in entries)):
        raise ValueError(f"{path}: the checkpoint arrays are not a list of "
                         "[name, shape] pairs")
    arrays = [name for name, _ in entries]
    # the names do not depend on the widths
    expected = list(param_shapes(cfg, 0, 0))
    if arrays != expected:
        raise ValueError(f"{path}: arrays {arrays} are not the {cfg.mode} "
                         f"arrays {expected}")
    for name, shape in entries:
        # 6.0 == 6, but a float dimension fails the array read
        if not (isinstance(shape, list) and all(type(d) is int for d in shape)):
            raise ValueError(f"{path}: array {name!r} has shape {shape!r}, "
                             "not a list of integers")
        if any(d < 0 for d in shape):
            raise ValueError(f"{path}: array {name!r} has a negative "
                             "dimension")
    shapes = {name: tuple(shape) for name, shape in entries}
    for name in ("mlp.w1", "mlp.w2"):
        if len(shapes[name]) != 2:
            raise ValueError(f"{path}: array {name!r} has shape "
                             f"{shapes[name]}, expected a matrix")
    want = param_shapes(cfg, shapes["mlp.w1"][0], shapes["mlp.w2"][1])
    for name, shape in want.items():
        if shapes[name] != shape:
            raise ValueError(f"{path}: array {name!r} has shape "
                             f"{shapes[name]}, expected {shape}")
    return cfg


def load_checkpoint(path) -> tuple[ModelParams, TrainConfig]:
    with open(path, "rb") as fh:
        if fh.read(len(CHECKPOINT_MAGIC)) != CHECKPOINT_MAGIC:
            raise ValueError(f"{path}: not a checkpoint (bad magic)")
        raw_length = _read_exact(fh, 4, path, "header length")
        (length,) = struct.unpack("<I", raw_length)
        raw_header = _read_exact(fh, length, path, "header")
        try:
            header = json.loads(raw_header)
        except ValueError:  # not UTF-8, or not JSON
            header = None
        if not isinstance(header, dict):
            raise ValueError(f"{path}: the checkpoint header is not a JSON "
                             "object")
        if header.get("version") != 1:
            raise ValueError(f"{path}: unsupported checkpoint version")
        cfg = _checkpoint_config(header, path)
        params = ModelParams()
        for name, shape in header["arrays"]:
            # math.prod is exact where np.prod wraps around at 2^63
            raw = _read_exact(fh, math.prod(shape) * 8, path,
                              f"array {name!r}")
            # astype copies out of the read-only buffer: a writable array
            params[name] = np.frombuffer(raw, dtype="<f8").reshape(
                shape).astype(cfg.dtype)
        if fh.read(1):
            raise ValueError(f"{path}: trailing bytes after the last array")
    return params, cfg
