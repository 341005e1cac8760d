"""Acceptance gate: one test per release criterion, at pinned tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL/SKIP
line per criterion. Criteria 5-7 need the real dataset files (Cora, Citeseer,
Texas, Chameleon) under ``data/`` (or $NODESPEC_DATA); when the files are
absent they skip with an explicit notice instead of failing, since the
package ships no downloaders. See README for the conversion recipe.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from nodespec import evaluate, model
from nodespec.cli import main as cli_main
from nodespec.data import load_named_dataset, make_split, save_dataset
from nodespec.homophily import (graph_homophily, proposition_closed_forms,
                                proposition_monte_carlo)
from nodespec.oracle import localization_check, run_oracle_checks
from nodespec.polyfilter import propagate
from nodespec.synthetic import (path_graph, planted_partition_dataset,
                                random_tree)

DATA_ROOT = Path(os.environ.get("NODESPEC_DATA",
                                Path(__file__).resolve().parent.parent / "data"))

# Per-dataset hyperparameters, all drawn from the standard search grid
# (lr_l in {0.01, 0.05}, lr_p in {0.001, 0.005, 0.01}, f_h in {16, 32, 64},
# weight decay in {1e-4, 5e-4, 1e-3}); K=10, d=1 throughout.
REPRO_CONFIGS = {
    "cora_dense": dict(lr_l=0.05, lr_p=0.01, dp_l=0.5, dp_p=0.5, l2=5e-4,
                       hidden=64),
    "cora_sparse": dict(lr_l=0.05, lr_p=0.01, dp_l=0.5, dp_p=0.5, l2=5e-4,
                        hidden=64),
    "texas_dense": dict(lr_l=0.05, lr_p=0.01, dp_l=0.5, dp_p=0.5, l2=1e-3,
                        hidden=64),
    "chameleon_dense": dict(lr_l=0.05, lr_p=0.01, dp_l=0.5, dp_p=0.5, l2=5e-4,
                            hidden=64),
}


def _report(criterion, status, detail):
    print(f"[criterion {criterion}] {status} - {detail}")


def _require_dataset(name, criterion):
    paths = [DATA_ROOT / name / f for f in ("edges.tsv", "features.csv",
                                            "labels.txt")]
    if not all(p.exists() for p in paths):
        notice = (f"dataset files for {name!r} not present under {DATA_ROOT}; "
                  "criterion skipped with notice (see README for conversion)")
        _report(criterion, "SKIP", notice)
        pytest.skip(notice)
    return load_named_dataset(DATA_ROOT, name)


def _mean_test_accuracy(dataset, mode_key, runs, split_mode, model_mode,
                        basis="chebyshev"):
    accs = []
    for seed in range(runs):
        cfg = model.TrainConfig(order=10, rank=1, mode=model_mode, basis=basis,
                                seed=seed, **REPRO_CONFIGS[mode_key])
        split = make_split(dataset.n, split_mode, seed=seed)
        result = model.train(dataset, split, cfg)
        preds, _ = model.predict(result.params, dataset, cfg)
        accs.append(evaluate.accuracy(preds, dataset.labels, split.test))
    return evaluate.summarize_runs(accs, seeds=range(runs))


def test_criterion_1_oracle_equivalence():
    start = time.perf_counter()
    errors = run_oracle_checks(max_nodes=64, trials=50, max_order=10, seed=101)
    elapsed = time.perf_counter() - start
    worst = errors["spectral_equivalence"]
    _report(1, "PASS" if worst <= 1e-10 else "FAIL",
            f"propagate+combine vs dense oracle, 50 random graphs, three "
            f"bases: max abs error {worst:.3e} (bound 1e-10), {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 30.0


def test_criterion_2_localization():
    start = time.perf_counter()
    rng = np.random.default_rng(202)
    worst = 0.0
    for t in range(100):
        n = int(rng.integers(8, 41))
        g = path_graph(n) if t % 2 else random_tree(n, seed=t)
        order = int(rng.integers(1, 6))
        coeffs = rng.uniform(-1.0, 1.0, size=order + 1)
        basis = ("monomial", "chebyshev", "bernstein")[t % 3]
        leak = localization_check(g, basis, coeffs, int(rng.integers(0, n)))
        worst = max(worst, leak)
    elapsed = time.perf_counter() - start
    _report(2, "PASS" if worst <= 1e-12 else "FAIL",
            f"delta-input degree-K filtering beyond K hops on 100 trees/"
            f"paths: max leak {worst:.3e} (bound 1e-12), {elapsed:.1f}s")
    assert worst <= 1e-12
    assert elapsed < 10.0


def _gradcheck_worst(dataset, cfg, index, h=1e-5):
    rng = np.random.default_rng(cfg.seed)
    params = model.init_params(cfg, dataset.feature_dim, dataset.class_count,
                               rng)
    op = model.build_operator(dataset.graph, cfg)
    stack = (propagate(cfg.basis, op, dataset.features, cfg.order)
             if cfg.mode == "sgc_like" else None)

    def loss_value():
        if cfg.mode == "sgc_like":
            trace = model.forward_sgc_like(params, stack, cfg)
        else:
            trace = model.forward_appnp_like(params, dataset.features, op, cfg)
        return trace, model.attach_loss(trace, dataset.labels, index, cfg.l2)

    trace, _ = loss_value()
    grads = model.backward(trace)
    worst = 0.0
    for name, arr in params.items():
        numeric = np.zeros_like(arr)
        it = np.nditer(arr, flags=["multi_index"])
        while not it.finished:
            ix = it.multi_index
            keep = arr[ix]
            arr[ix] = keep + h
            _, up = loss_value()
            arr[ix] = keep - h
            _, down = loss_value()
            arr[ix] = keep
            numeric[ix] = (up - down) / (2 * h)
            it.iternext()
        scale = max(np.max(np.abs(grads[name])), np.max(np.abs(numeric)),
                    1e-12)
        worst = max(worst, float(np.max(np.abs(grads[name] - numeric)) / scale))
    return worst


def test_criterion_3_gradient_correctness():
    start = time.perf_counter()
    dataset = planted_partition_dataset(n=20, classes=3, feature_dim=8,
                                        p_in=0.25, p_out=0.05, seed=303)
    index = np.arange(12)
    worst = 0.0
    for mode in ("appnp_like", "sgc_like"):
        cfg = model.TrainConfig(order=4, rank=2, hidden=8, mode=mode,
                                dp_l=0.0, dp_p=0.0, l2=1e-3, seed=17)
        worst = max(worst, _gradcheck_worst(dataset, cfg, index))
    elapsed = time.perf_counter() - start
    _report(3, "PASS" if worst <= 1e-5 else "FAIL",
            f"central differences on all trainables, both pipelines "
            f"(n=20, f=8, C=3, K=4, d=2): max rel error {worst:.3e} "
            f"(bound 1e-5), {elapsed:.1f}s")
    assert worst <= 1e-5
    assert elapsed < 20.0


def test_criterion_4_proposition_validation():
    start = time.perf_counter()
    # closed form 1: non-positive on the grid alpha in {0, 0.01, ..., 2/C}
    for classes in range(3, 11):
        for alpha in np.arange(0.0, 2.0 / classes + 1e-12, 0.01):
            check = proposition_closed_forms(float(alpha), classes)
            assert check.epsilon_same_vs_diff <= 1e-12, (alpha, classes)
    # closed form 2: sign flips exactly at alpha = 1/C
    for classes in range(3, 11):
        boundary = 1.0 / classes
        assert abs(proposition_closed_forms(boundary, classes)
                   .epsilon_two_vs_one) <= 1e-15
        for alpha in np.arange(0.01, 1.0, 0.01):
            eps2 = proposition_closed_forms(float(alpha),
                                            classes).epsilon_two_vs_one
            if alpha < boundary - 1e-9:
                assert eps2 > 0.0
            elif alpha > boundary + 1e-9:
                assert eps2 < 0.0
    # Monte-Carlo agreement at 1e5 samples for 20 random (alpha, C) pairs
    rng = np.random.default_rng(404)
    worst_sigma = 0.0
    for _ in range(20):
        alpha = float(rng.uniform(0.0, 1.0))
        classes = int(rng.integers(3, 11))
        check = proposition_monte_carlo(alpha, classes, samples=100_000,
                                        seed=int(rng.integers(1 << 32)))
        for gap, se in ((check.mc_epsilon_same_vs_diff
                         - check.epsilon_same_vs_diff,
                         check.se_epsilon_same_vs_diff),
                        (check.mc_epsilon_two_vs_one
                         - check.epsilon_two_vs_one,
                         check.se_epsilon_two_vs_one)):
            sigmas = abs(gap) / se if se > 0 else 0.0
            worst_sigma = max(worst_sigma, sigmas)
            assert sigmas <= 3.0, (alpha, classes, sigmas)
    elapsed = time.perf_counter() - start
    _report(4, "PASS",
            f"closed forms hold on the full grid; MC within 3 SE for 20 "
            f"pairs (worst {worst_sigma:.2f} SE), {elapsed:.1f}s")
    assert elapsed < 30.0


def test_criterion_5_homophily_reference_values():
    expected = {"cora": 0.82, "citeseer": 0.71, "texas": 0.05}
    details = []
    for name, target in expected.items():
        dataset = _require_dataset(name, criterion=5)
        ratio = graph_homophily(dataset.graph, dataset.labels)
        details.append(f"{name}: {ratio:.3f} (reference {target:.2f})")
        assert abs(ratio - target) <= 0.01, details[-1]
    _report(5, "PASS", "; ".join(details))


def test_criterion_6_desk_scale_reproduction():
    start = time.perf_counter()
    results = []

    cora = _require_dataset("cora", criterion=6)
    dense = _mean_test_accuracy(cora, "cora_dense", runs=10,
                                split_mode="dense", model_mode="appnp_like")
    results.append(("cora dense", dense.mean, 0.86))

    texas = _require_dataset("texas", criterion=6)
    texas_dense = _mean_test_accuracy(texas, "texas_dense", runs=10,
                                      split_mode="dense",
                                      model_mode="appnp_like")
    results.append(("texas dense", texas_dense.mean, 0.85))

    sparse = _mean_test_accuracy(cora, "cora_sparse", runs=10,
                                 split_mode="sparse",
                                 model_mode="appnp_like")
    results.append(("cora sparse", sparse.mean, 0.74))

    elapsed = time.perf_counter() - start
    detail = "; ".join(f"{name} {mean:.4f} (floor {floor})"
                       for name, mean, floor in results)
    ok = all(mean >= floor for _, mean, floor in results)
    _report(6, "PASS" if ok else "FAIL", f"{detail}; {elapsed:.0f}s")
    for name, mean, floor in results:
        assert mean >= floor, f"{name}: {mean:.4f} < {floor}"
    assert elapsed < 900.0


def test_criterion_7_node_filter_ablation_direction():
    start = time.perf_counter()
    chameleon = _require_dataset("chameleon", criterion=7)
    with_nf = _mean_test_accuracy(chameleon, "chameleon_dense", runs=10,
                                  split_mode="dense",
                                  model_mode="appnp_like")
    without = _mean_test_accuracy(chameleon, "chameleon_dense", runs=10,
                                  split_mode="dense",
                                  model_mode="global_only")
    gain = 100.0 * (with_nf.mean - without.mean)
    elapsed = time.perf_counter() - start
    ok = gain >= 1.0
    _report(7, "PASS" if ok else "SOFT-FAIL",
            f"per-node filtering gain on chameleon: {gain:+.2f} points "
            f"(reference +4.04), {elapsed:.0f}s")
    if not ok:
        # statistical criterion: a miss triggers investigation, not a hard
        # rejection of the build
        pytest.xfail(f"soft criterion below +1.0 points ({gain:+.2f}); "
                     "flagged for investigation")


def test_criterion_8_parameter_complexity():
    checks = []
    for n in (10, 1_000, 100_000):
        for c_in, rank, order in ((7, 1, 10), (5, 3, 4), (11, 2, 8)):
            cfg = model.TrainConfig(order=order, rank=rank, mode="appnp_like")
            counts = model.parameter_count(cfg, feature_dim=300,
                                           class_count=c_in)
            expected = c_in * rank + (order + 1) * rank
            assert counts["filter"] == expected, (n, c_in, rank, order)
            checks.append(counts["filter"])
    # identical for every n: the filter size never saw n at all
    assert checks[:3] == checks[3:6] == checks[6:]
    _report(8, "PASS",
            "filter parameter count equals c_in*d + (K+1)*d and is "
            "independent of n over {10, 1e3, 1e5}")


def test_criterion_9_byte_determinism(tmp_path):
    dataset = planted_partition_dataset(n=80, classes=3, feature_dim=10,
                                        seed=909, name="determinism")
    save_dataset(dataset, tmp_path)
    outputs = []
    for tag in ("first", "second"):
        ckpt = tmp_path / f"{tag}.ckpt"
        hist = tmp_path / f"{tag}.csv"
        code = cli_main([
            "train", "--dataset", "determinism", "--data-root", str(tmp_path),
            "--K", "4", "--d", "1", "--f-h", "16", "--epochs", "40",
            "--patience", "40", "--seed", "11", "--split", "dense",
            "--checkpoint", str(ckpt), "--history", str(hist)])
        assert code == 0
        outputs.append((ckpt.read_bytes(), hist.read_bytes()))
    same = outputs[0] == outputs[1]
    _report(9, "PASS" if same else "FAIL",
            "two identical seeded CLI runs produced byte-identical history "
            "CSV and checkpoint")
    assert same
