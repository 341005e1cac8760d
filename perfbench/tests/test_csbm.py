import time

import numpy as np

from csbm import MIXED_REGIONS, GraphSpec, dataset_paths, generate, write_dataset
from nodespec import data


def _edge_homophily_by_region(sbm):
    i, j = sbm.edges[:, 0], sbm.edges[:, 1]
    same = sbm.labels[i] == sbm.labels[j]
    return [float(np.mean(same[sbm.region[i] == r]))
            for r in range(len(MIXED_REGIONS))]


def test_realised_region_homophily_matches_request():
    sbm = generate(GraphSpec(n=20_000, feature_dim=8), seed=3)
    i, j = sbm.edges[:, 0], sbm.edges[:, 1]
    assert np.all(sbm.region[i] == sbm.region[j])
    for realised, region in zip(_edge_homophily_by_region(sbm), MIXED_REGIONS):
        assert abs(realised - region.homophily) < 0.02


def test_same_seed_same_graph_and_shared_prototypes():
    small = generate(GraphSpec(n=3_000, feature_dim=16, snr=4.0), seed=5)
    again = generate(GraphSpec(n=3_000, feature_dim=16, snr=4.0), seed=5)
    large = generate(GraphSpec(n=30_000, feature_dim=16, snr=4.0), seed=5)
    assert np.array_equal(small.edges, again.edges)
    assert np.array_equal(small.features, again.features)
    # Class means agree across sizes, so a model trained on one graph
    # transfers to the other.
    for c in range(5):
        a = small.features[small.labels == c].mean(axis=0)
        b = large.features[large.labels == c].mean(axis=0)
        assert np.max(np.abs(a - b)) < 0.2


def test_generation_time_is_roughly_linear():
    def best_of_three(n):
        times = []
        for _ in range(3):
            start = time.perf_counter()
            generate(GraphSpec(n=n, feature_dim=8), seed=1)
            times.append(time.perf_counter() - start)
        return min(times)

    best_of_three(20_000)  # warm-up
    ratio = best_of_three(200_000) / best_of_three(20_000)
    # Linear would be 10 and all-pairs sampling 100.
    assert ratio < 30


def test_written_files_load_with_the_package(tmp_path):
    sbm = generate(GraphSpec(n=500, feature_dim=6), seed=2)
    write_dataset(sbm, str(tmp_path))
    ds = data.load_dataset(*dataset_paths(str(tmp_path)))
    assert ds.n == 500
    assert ds.graph.edge_count == len(sbm.edges)
    assert np.array_equal(ds.labels, sbm.labels)
    assert np.allclose(ds.features, sbm.features, atol=1e-6)
