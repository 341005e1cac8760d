"""Contextual stochastic block model (cSBM) inputs for the benchmark.

The graph follows Deshpande et al. (2018) as used by GPR-GNN (Chien et al.,
ICLR 2021), with one change the paper's claim needs: nodes live in regions,
and each region has its own homophily. An edge stub from a node in region r
lands on a node of the same class with probability h_r, otherwise on a node
of a uniformly chosen other class, always inside region r. Sampling is O(m):
targets are drawn from per-(region, class) buckets, never from all pairs.

Features are ``snr * mu[y] + N(0, I)`` with orthonormal class means ``mu``
drawn from a stream keyed only by the seed, never by n, so two graphs of
different sizes drawn with one seed share them; inductive inference relies
on that.

Run as a script to write the text files of one (workload, seed), with the
reference results of the output checks (``reference.py``) beside them:

    python3 perfbench/csbm.py --workload report --seed 1 --out DIR
"""

import argparse
import os
import shutil
import sys
from dataclasses import dataclass

import numpy as np

import reference

# Stream keys: prototypes must not depend on n, the graph draw must.
_PROTOTYPE_STREAM = 0
_GRAPH_STREAM = 1


@dataclass(frozen=True)
class Region:
    share: float       # fraction of nodes in the region
    homophily: float   # probability that an edge stub stays within the class


# Homophilic, random (about 1/C for five classes) and heterophilic regions.
MIXED_REGIONS = (Region(0.4, 0.8), Region(0.3, 0.2), Region(0.3, 0.05))


@dataclass(frozen=True)
class GraphSpec:
    n: int
    classes: int = 5
    feature_dim: int = 64
    avg_degree: float = 10.0
    snr: float = 3.5
    regions: tuple = MIXED_REGIONS


@dataclass
class CSBM:
    edges: np.ndarray      # (m, 2) unique pairs with i < j
    features: np.ndarray   # (n, F)
    labels: np.ndarray     # (n,)
    region: np.ndarray     # (n,) region index of each node


def prototypes(seed: int, classes: int, feature_dim: int) -> np.ndarray:
    """Orthonormal class means from a stream independent of n.

    Orthonormal rows put every pair of classes at the same distance, so the
    task is equally hard for every seed and accuracy varies little.
    """
    if feature_dim < classes:
        raise ValueError("need at least as many features as classes")
    rng = np.random.default_rng([seed, _PROTOTYPE_STREAM, classes, feature_dim])
    q, _ = np.linalg.qr(rng.standard_normal((feature_dim, classes)))
    return q.T


def generate(spec: GraphSpec, seed: int) -> CSBM:
    """Draw one cSBM; the same (spec, seed) always gives the same arrays."""
    n, c = spec.n, spec.classes
    shares = np.array([r.share for r in spec.regions], dtype=np.float64)
    if n < 1 or c < 2 or np.any(shares <= 0):
        raise ValueError("need n >= 1, at least 2 classes and positive shares")
    homophily = np.array([r.homophily for r in spec.regions])
    rng = np.random.default_rng([seed, _GRAPH_STREAM, n])

    labels = rng.integers(0, c, size=n)
    region = rng.choice(len(spec.regions), size=n, p=shares / shares.sum())

    # Nodes grouped by bucket = region * C + class; a bucket is a slice of
    # `members`, so a uniform member is one offset draw.
    bucket = region * c + labels
    members = np.argsort(bucket, kind="stable")
    counts = np.bincount(bucket, minlength=len(spec.regions) * c)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])

    stubs = int(round(n * spec.avg_degree / 2))
    src = rng.integers(0, n, size=stubs)
    same = rng.random(stubs) < homophily[region[src]]
    shift = rng.integers(1, c, size=stubs)
    target_class = np.where(same, labels[src], (labels[src] + shift) % c)
    target_bucket = region[src] * c + target_class
    if np.any(counts[target_bucket] == 0):
        raise ValueError("a (region, class) bucket is empty; raise n")
    pick = (rng.random(stubs) * counts[target_bucket]).astype(np.int64)
    dst = members[starts[target_bucket] + pick]

    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    keep = lo != hi
    keys = np.unique(lo[keep] * n + hi[keep])
    edges = np.stack([keys // n, keys % n], axis=1)

    mu = prototypes(seed, c, spec.feature_dim)
    features = spec.snr * mu[labels] + rng.standard_normal((n, spec.feature_dim))
    return CSBM(edges=edges, features=features, labels=labels, region=region)


def write_dataset(sbm: CSBM, directory: str) -> None:
    """Write edges.tsv, features.csv and labels.txt in the package's formats."""
    os.makedirs(directory, exist_ok=True)
    np.savetxt(os.path.join(directory, "edges.tsv"), sbm.edges, fmt="%d",
               delimiter="\t")
    np.savetxt(os.path.join(directory, "features.csv"), sbm.features,
               fmt="%.6f", delimiter=",")
    np.savetxt(os.path.join(directory, "labels.txt"), sbm.labels, fmt="%d")


def dataset_paths(directory: str) -> tuple:
    return tuple(os.path.join(directory, name)
                 for name in ("edges.tsv", "features.csv", "labels.txt"))


def ensure_inputs(graphs: dict, seed: int, out: str) -> None:
    """Write each named graph of one (workload, seed) and its reference
    results under ``out`` once.

    Files go to a temporary sibling first and are renamed into place, so an
    interrupted run never leaves a partial dataset behind.
    """
    if os.path.isdir(out):
        return
    tmp = out + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    for name, spec in graphs.items():
        sbm = generate(spec, seed)
        write_dataset(sbm, os.path.join(tmp, name))
        reference.write(sbm.edges, sbm.labels, seed, os.path.join(tmp, name))
    os.rename(tmp, out)


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    ensure_inputs(WORKLOADS[args.workload].graphs, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
