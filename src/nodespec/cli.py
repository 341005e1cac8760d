"""Command-line surface: analysis reports, training, evaluation, sweeps.

Tabular artifacts are CSV, summaries are JSON on stdout. Exit codes: 0 on
success, 1 on runtime failure, 2 on bad usage.
"""

import argparse
import json
import sys
import time
from contextlib import contextmanager, nullcontext
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import evaluate, homophily, model
from .data import (Dataset, load_dataset, load_named_dataset, load_split,
                   make_split, save_split)
from .oracle import run_oracle_checks
from .polyfilter import BASES, basis_matrix, frequency_response

MODE_ALIASES = {
    "appnp": "appnp_like", "appnp_like": "appnp_like",
    "sgc": "sgc_like", "sgc_like": "sgc_like",
    "global": "global_only", "global_only": "global_only",
}


def _fmt(x) -> str:
    if x is None or (isinstance(x, float) and np.isnan(x)):
        return "nan"
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def _output(path):
    """The --out file opened for writing, or stdout (left open) without one."""
    return open(path, "w", encoding="utf-8") if path else nullcontext(sys.stdout)


def _add_dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", help="dataset name under --data-root")
    p.add_argument("--data-root", default="data")
    p.add_argument("--edges", help="edge-list path (overrides --dataset)")
    p.add_argument("--features", help="feature CSV path")
    p.add_argument("--labels", help="label file path")


def _load_dataset(args) -> Dataset:
    if args.edges or args.features or args.labels:
        if not (args.edges and args.features and args.labels):
            raise SystemExit("--edges/--features/--labels must be given together")
        return load_dataset(args.edges, args.features, args.labels,
                            name=args.dataset or "dataset")
    if not args.dataset:
        raise SystemExit("either --dataset or explicit file paths are required")
    return load_named_dataset(args.data_root, args.dataset)


def _add_train_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--mode", default="appnp", choices=sorted(MODE_ALIASES))
    p.add_argument("--basis", default="chebyshev", choices=BASES)
    p.add_argument("--K", "--order", dest="order", type=int, default=10)
    p.add_argument("--d", "--rank", dest="rank", type=int, default=1)
    p.add_argument("--f-h", "--hidden", dest="hidden", type=int, default=64)
    p.add_argument("--lr-l", type=float, default=0.01)
    p.add_argument("--lr-p", type=float, default=0.01)
    p.add_argument("--dp-l", type=float, default=0.5)
    p.add_argument("--dp-p", type=float, default=0.5)
    p.add_argument("--l2", type=float, default=5e-4)
    p.add_argument("--epochs", type=int, default=1000)
    p.add_argument("--patience", type=int, default=200)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--batch-size", type=int, default=None)
    p.add_argument("--static-h", action="store_true",
                   help="derive mixing weights once from the order-0 features")
    p.add_argument("--estimate-lambda-max", action="store_true")
    p.add_argument("--precision", default="float64",
                   choices=["float64", "float32"])
    p.add_argument("--split", default="dense",
                   help="sparse|dense|inductive or a split JSON path")
    p.add_argument("--split-seed", type=int, default=None)
    p.add_argument("--stratified", action="store_true")


def _train_config(args) -> model.TrainConfig:
    return model.TrainConfig(
        lr_l=args.lr_l, lr_p=args.lr_p, dp_l=args.dp_l, dp_p=args.dp_p,
        l2=args.l2, order=args.order, rank=args.rank, hidden=args.hidden,
        epochs=args.epochs, patience=args.patience, seed=args.seed,
        mode=MODE_ALIASES[args.mode], basis=args.basis,
        batch_size=args.batch_size, static_coefficients=args.static_h,
        estimate_spectrum=args.estimate_lambda_max, precision=args.precision)


@contextmanager
def _checkpoint_errors(path):
    """Name the checkpoint in a ValueError raised inside: the checkpoint
    does not fit the dataset it is run on."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _saved_split(spec: str):
    """The split saved at ``spec``, or None when spec names a split mode."""
    if spec.endswith(".json") or Path(spec).exists():
        return load_split(spec)
    return None


def _resolve_split(args, dataset: Dataset):
    seed = args.split_seed if args.split_seed is not None else args.seed
    return _saved_split(args.split) or make_split(
        dataset.n, args.split, seed, stratified=args.stratified,
        labels=dataset.labels)


def _write_history(history, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("epoch,train_loss,train_accuracy,validation_accuracy\n")
        for epoch, tr_loss, tr_acc, val_acc in history:
            fh.write(f"{epoch},{_fmt(tr_loss)},{_fmt(tr_acc)},{_fmt(val_acc)}\n")


def cmd_analyze(args) -> int:
    dataset = _load_dataset(args)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rep = homophily.homophily_report(dataset.graph, dataset.labels,
                                     dataset.class_count, args.bins)
    rows = np.column_stack([rep.per_node_h1, rep.per_node_h_within2,
                            rep.per_node_s1, rep.per_node_s_within2]).tolist()
    with open(out / "node_metrics.csv", "w", encoding="utf-8") as fh:
        fh.write("node,h_hop1,h_within2,entropy_hop1,entropy_within2\n")
        # "{:.17g}" prints NaN as "nan", as _fmt does
        fh.writelines("{},{:.17g},{:.17g},{:.17g},{:.17g}\n".format(v, *row)
                      for v, row in enumerate(rows))
    with open(out / "histograms.csv", "w", encoding="utf-8") as fh:
        fh.write("metric,bin_lo,bin_hi,count\n")
        for label, (edges, counts) in (
                ("h_hop1", rep.histogram_h1),
                ("h_within2", rep.histogram_h_within2),
                ("entropy_hop1", rep.histogram_s1),
                ("entropy_within2", rep.histogram_s_within2)):
            for b in range(counts.size):
                fh.write(f"{label},{_fmt(float(edges[b]))},"
                         f"{_fmt(float(edges[b + 1]))},{counts[b]}\n")
    summary = {
        "dataset": dataset.name,
        "nodes": dataset.n,
        "edges": dataset.graph.edge_count,
        "features": dataset.feature_dim,
        "classes": dataset.class_count,
        "graph_homophily": rep.graph_ratio,
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_prop_sim(args) -> int:
    check = homophily.proposition_monte_carlo(args.alpha, args.classes,
                                              args.samples, args.seed)
    print(json.dumps(asdict(check), indent=2, sort_keys=True))
    return 0


def cmd_train(args) -> int:
    dataset = _load_dataset(args)
    cfg = _train_config(args)
    split = _resolve_split(args, dataset)
    result = model.train(dataset, split, cfg)
    if args.history:
        _write_history(result.history, args.history)
    if args.checkpoint:
        model.save_checkpoint(args.checkpoint, result.params, cfg)
    if args.save_split:
        save_split(split, args.save_split)
    preds, _ = model.predict(result.params, dataset, cfg)
    summary = {
        "dataset": dataset.name,
        "mode": cfg.mode,
        "basis": cfg.basis,
        "epochs_run": result.epochs_run,
        "best_epoch": result.best_epoch,
        "best_validation_accuracy": result.best_validation_accuracy,
        "test_accuracy": evaluate.accuracy(preds, dataset.labels, split.test),
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_eval(args) -> int:
    dataset = _load_dataset(args)
    params, cfg = model.load_checkpoint(args.checkpoint)
    split = _resolve_split(args, dataset)
    with _checkpoint_errors(args.checkpoint):
        logits, psi = model.eval_outputs(params, dataset, cfg)
    preds = np.argmax(logits, axis=1)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    bin_report = evaluate.homophily_binned_accuracy(
        preds, dataset.labels, dataset.graph, split.test, bins=args.bins)
    with open(out / "homophily_bins.csv", "w", encoding="utf-8") as fh:
        fh.write("bin_lo,bin_hi,count,accuracy\n")
        for b in range(bin_report.counts.size):
            fh.write(f"{_fmt(float(bin_report.edges[b]))},"
                     f"{_fmt(float(bin_report.edges[b + 1]))},"
                     f"{bin_report.counts[b]},"
                     f"{_fmt(float(bin_report.accuracy[b]))}\n")

    coeff = evaluate.coefficient_distance_report(
        psi, dataset.graph, dataset.labels, pair_sample=args.pair_sample)
    with open(out / "coefficient_distance.csv", "w", encoding="utf-8") as fh:
        fh.write("bin_lo,bin_hi,same_count,same_mean,diff_count,diff_mean\n")
        for b in range(coeff.same_label_count.size):
            fh.write(f"{_fmt(float(coeff.edges[b]))},"
                     f"{_fmt(float(coeff.edges[b + 1]))},"
                     f"{coeff.same_label_count[b]},"
                     f"{_fmt(float(coeff.same_label_mean[b]))},"
                     f"{coeff.diff_label_count[b]},"
                     f"{_fmt(float(coeff.diff_label_mean[b]))}\n")

    summary = {
        "dataset": dataset.name,
        "test_accuracy": evaluate.accuracy(preds, dataset.labels, split.test),
    }
    if split.observed_test is not None:
        summary["observed_test_accuracy"] = evaluate.accuracy(
            preds, dataset.labels, split.observed_test)
        summary["unobserved_test_accuracy"] = evaluate.accuracy(
            preds, dataset.labels, split.unobserved_test)
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_filter_response(args) -> int:
    grid = np.linspace(0.0, 2.0, args.grid_points)
    rows = []
    if args.coeffs:
        coeffs = np.array([float(c) for c in args.coeffs.split(",")])
        response = frequency_response(args.basis, coeffs, grid)
        rows.append(("coeffs", response))
    elif args.checkpoint:
        params, cfg = model.load_checkpoint(args.checkpoint)
        # such an operator is scaled by an estimate on the graph it runs on
        estimated = cfg.basis == "chebyshev" and cfg.estimate_spectrum
        if estimated and not (args.dataset or args.edges):
            raise ValueError(
                f"{args.checkpoint}: this Chebyshev checkpoint estimated "
                "lambda_max from its graph; give the graph with --dataset or "
                "--edges/--features/--labels")
        dataset = _load_dataset(args) if estimated or args.nodes else None
        lambda_max = (model.build_operator(dataset.graph, cfg).lambda_max
                      if estimated else cfg.lambda_max)
        table = basis_matrix(cfg.basis, cfg.order, grid, lambda_max)
        gamma = params["filter.gamma"]
        for j in range(gamma.shape[1]):
            # a global_only model has one gamma column and no projection
            label = f"base_{j}" if "filter.w" in params else "global"
            rows.append((label, table @ gamma[:, j]))
        if args.nodes:
            nodes = [int(tok) for tok in args.nodes.split(",")]
            for v in nodes:
                if not 0 <= v < dataset.n:
                    raise ValueError(f"node {v} out of range for a graph with "
                                     f"n = {dataset.n} nodes")
            with _checkpoint_errors(args.checkpoint):
                psi = model.node_coefficients(params, dataset, cfg)
            for v in nodes:
                rows.append((f"node_{v}", table @ psi[v]))
    else:
        raise SystemExit("provide --coeffs or --checkpoint")

    with _output(args.out) as dest:
        dest.write("filter,lambda,response\n")
        for label, values in rows:
            for lam, val in zip(grid, values):
                dest.write(f"{label},{_fmt(float(lam))},{_fmt(float(val))}\n")
    return 0


def cmd_oracle_check(args) -> int:
    errors = run_oracle_checks(max_nodes=args.n, trials=args.trials,
                               seed=args.seed)
    bounds = {"spectral_equivalence": 1e-10, "translate_delta": 1e-9,
              "localization_leak": 1e-12, "reconstruction": 1e-8}
    ok = True
    for name, worst in errors.items():
        passed = worst <= bounds[name]
        ok &= passed
        print(f"{name}: {'PASS' if passed else 'FAIL'} "
              f"(max error {worst:.3e}, bound {bounds[name]:.0e})")
    return 0 if ok else 1


def cmd_sweep(args) -> int:
    dataset = _load_dataset(args)
    orders = [int(t) for t in args.orders.split(",")]
    ranks = [int(t) for t in args.ranks.split(",")]
    # a saved split is shared by every run, so only the model seed varies
    saved = _saved_split(args.split)
    with _output(args.out) as dest:
        dest.write("K,d,runs,mean_accuracy,ci_half_width\n")
        for order in orders:
            for rank in ranks:
                accs = []
                for run in range(args.runs):
                    cfg = _train_config(args)
                    cfg.order, cfg.rank = order, rank
                    cfg.seed = args.seed + run
                    split = saved or make_split(
                        dataset.n, args.split, cfg.seed,
                        stratified=args.stratified, labels=dataset.labels)
                    result = model.train(dataset, split, cfg)
                    preds, _ = model.predict(result.params, dataset, cfg)
                    accs.append(evaluate.accuracy(preds, dataset.labels,
                                                  split.test))
                summary = evaluate.summarize_runs(accs)
                dest.write(f"{order},{rank},{len(accs)},"
                           f"{_fmt(summary.mean)},"
                           f"{_fmt(summary.ci_half_width)}\n")
    return 0


def cmd_timing(args) -> int:
    dataset = _load_dataset(args)
    cfg = _train_config(args)
    cfg.epochs = args.epochs
    cfg.patience = args.epochs  # run every epoch; this is an instrument
    split = _resolve_split(args, dataset)
    start = time.perf_counter()
    result = model.train(dataset, split, cfg)
    total = time.perf_counter() - start
    summary = {
        "dataset": dataset.name,
        "mode": cfg.mode,
        "epochs_run": result.epochs_run,
        "total_seconds": total,
        "seconds_per_epoch": total / max(1, result.epochs_run),
        "note": "wall-clock instrument; values are hardware-dependent and "
                "not asserted anywhere",
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nodespec",
        description="Node-oriented spectral filtering toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="homophily and entropy reports")
    _add_dataset_args(p)
    p.add_argument("--bins", type=int, default=10)
    p.add_argument("--out-dir", default="reports")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("prop-sim",
                       help="closed-form vs Monte-Carlo label-chain checks")
    p.add_argument("--alpha", type=float, required=True)
    p.add_argument("--classes", type=int, required=True)
    p.add_argument("--samples", type=int, default=1_000_000)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_prop_sim)

    p = sub.add_parser("train", help="train a model and save artifacts")
    _add_dataset_args(p)
    _add_train_args(p)
    p.add_argument("--checkpoint", help="checkpoint output path")
    p.add_argument("--history", help="per-epoch history CSV path")
    p.add_argument("--save-split", help="write the resolved split as JSON")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    _add_dataset_args(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--split", default="dense")
    p.add_argument("--split-seed", type=int, default=None)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--stratified", action="store_true")
    p.add_argument("--bins", type=int, default=5)
    p.add_argument("--pair-sample", type=int, default=200_000)
    p.add_argument("--out-dir", default="reports")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("filter-response",
                       help="tabulate filter responses on a lambda grid")
    _add_dataset_args(p)
    p.add_argument("--checkpoint")
    p.add_argument("--coeffs", help="comma-separated coefficient vector")
    p.add_argument("--basis", default="chebyshev", choices=BASES)
    p.add_argument("--nodes", help="comma-separated node ids for local filters")
    p.add_argument("--grid-points", type=int, default=201)
    p.add_argument("--out")
    p.set_defaults(func=cmd_filter_response)

    p = sub.add_parser("oracle-check",
                       help="sparse pipeline vs dense spectral oracle")
    p.add_argument("--n", type=int, default=32)
    p.add_argument("--trials", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_oracle_check)

    p = sub.add_parser("sweep", help="order x rank accuracy grid")
    _add_dataset_args(p)
    _add_train_args(p)
    p.add_argument("--orders", default="1,3,5,10")
    p.add_argument("--ranks", default="1,3,5")
    p.add_argument("--runs", type=int, default=5)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("timing", help="wall-clock instrument (not asserted)")
    _add_dataset_args(p)
    _add_train_args(p)
    p.set_defaults(func=cmd_timing)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
