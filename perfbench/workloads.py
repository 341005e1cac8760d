"""The benchmark's workloads: one cSBM configuration and one user session each.

Every workload runs the same session (load, train, predict, analyze, eval),
so every run reports every end-to-end metric. Sizes and modes are chosen so
that a different layer dominates each workload; ``why`` says which.
"""

from dataclasses import dataclass

from csbm import GraphSpec


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    graphs: dict              # "train" and optionally "infer" -> GraphSpec
    train: dict               # TrainConfig keyword arguments
    epochs: int
    predict_calls: int
    pair_sample: int          # `eval --pair-sample`


# Dropout 0.2 rather than the package's 0.5, so that 12 epochs reach the
# same accuracy on every seed and test_acc stays steady.
_APPNP_CHEB = dict(mode="appnp_like", basis="chebyshev", order=10, rank=1,
                   hidden=64, lr_l=0.05, lr_p=0.05, dp_l=0.2, dp_p=0.2)

WORKLOADS = {w.name: w for w in (
    Workload(
        name="appnp-cheb",
        why="appnp training on a 3e3-node graph: 30 narrow spmm per epoch, "
            "about 60% of train, plus the tape backward; "
            "polyfilter.propagate is never called",
        graphs={"train": GraphSpec(n=3_000, feature_dim=64)},
        train=_APPNP_CHEB,
        epochs=12, predict_calls=4, pair_sample=10_000),
    Workload(
        name="sgc-bern-batch",
        why="sgc, Bernstein K=10, batches of 512, 8 features: the 65-spmm "
            "propagate precompute is about 40% of train and 80% of predict, "
            "then cheap tape steps and Adam",
        graphs={"train": GraphSpec(n=2_500, feature_dim=8)},
        train=dict(mode="sgc_like", basis="bernstein", order=10, rank=1,
                   hidden=64, lr_l=0.05, lr_p=0.05, batch_size=512),
        epochs=8, predict_calls=1, pair_sample=10_000),
    Workload(
        name="report",
        why="analyze and eval on a 3e3-node graph with 3e4 sampled pairs: "
            "per-node homophily and entropy and per-pair coefficient-distance "
            "Python loops take over half the cycle",
        graphs={"train": GraphSpec(n=3_000, feature_dim=32)},
        train=dict(_APPNP_CHEB, hidden=32),
        epochs=12, predict_calls=2, pair_sample=30_000),
    Workload(
        name="infer-large",
        why="inductive predict on a 5e4-node graph beyond L2: the Laplacian "
            "build is about 40% of predict, data loading dominates set-up, "
            "and peak memory is the largest",
        graphs={"train": GraphSpec(n=2_500, feature_dim=32),
                "infer": GraphSpec(n=50_000, feature_dim=32)},
        train=_APPNP_CHEB,
        epochs=12, predict_calls=1, pair_sample=10_000),
)}
