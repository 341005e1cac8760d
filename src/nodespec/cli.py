"""Command-line surface: analysis reports, training, evaluation, sweeps.

Tabular artifacts are CSV, summaries are JSON on stdout. Exit codes: 0 on
success, 1 on runtime failure, 2 on bad usage: a flag that does not parse,
flags that do not go together, or a config that ``TrainConfig`` rejects,
which ``train`` and ``sweep`` build before they read any file.
"""

import argparse
import json
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import evaluate, homophily, model
from .data import (DRAWN_MODES, Dataset, _feature_cell_problem, _is_int64,
                   load_dataset, load_named_dataset, load_split, make_split,
                   save_split)
from .graph import node_ids
from .oracle import DEFAULT_EIGEN_CAP, run_oracle_checks
from .polyfilter import BASES, basis_matrix, frequency_response

MODE_ALIASES = {
    "appnp": "appnp_like", "appnp_like": "appnp_like",
    "sgc": "sgc_like", "sgc_like": "sgc_like",
    "global": "global_only", "global_only": "global_only",
}


class UsageError(Exception):
    """Flags that parse but do not go together; ``main`` exits 2 on it."""


def _fmt(x) -> str:
    if x is None or (isinstance(x, float) and np.isnan(x)):
        return "nan"
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def _write_csv(path, header: str, rows) -> None:
    """``header`` and one line of ``_fmt`` values per row, to ``path`` or,
    without one, to stdout (left open). Each row is written as it comes."""
    with (open(path, "w", encoding="utf-8") if path
          else nullcontext(sys.stdout)) as dest:
        dest.write(header + "\n")
        for row in rows:
            dest.write(",".join(map(_fmt, row)) + "\n")


def _bin_rows(edges: np.ndarray, *columns: np.ndarray):
    """(bin_lo, bin_hi, *values) per bin, as Python scalars."""
    return zip(edges[:-1].tolist(), edges[1:].tolist(),
               *(c.tolist() for c in columns))


def _int(text: str) -> int:
    """An integer flag by ``_is_int64`` on the stripped token, the rule of an
    edge-list id: no underscores, non-ASCII digits or values beyond int64."""
    if not _is_int64(text.strip()):
        raise argparse.ArgumentTypeError(
            f"expected a decimal int64, got {text!r}")
    return int(text)


def _positive_int(text: str) -> int:
    if not (_is_int64(text.strip()) and int(text) >= 1):
        raise argparse.ArgumentTypeError(
            f"expected an integer >= 1, got {text!r}")
    return int(text)


def _float(text: str) -> float:
    """A float flag read as a feature cell, by ``_feature_cell_problem``."""
    if _feature_cell_problem(text):
        raise argparse.ArgumentTypeError(f"not a finite float: {text!r}")
    return float(text)


def _listed(text: str, flag: str, problem, cast) -> list:
    """Cast comma-separated tokens that pass ``problem``; else UsageError."""
    tokens = [tok.strip() for tok in text.split(",")] if text else []
    for bad in filter(None, map(problem, tokens)):
        raise UsageError(f"{flag}: {bad}")
    return [cast(tok) for tok in tokens]


def _int64_listed(text: str, flag: str, what: str) -> list:
    """``_listed`` decimal int64 tokens, the rule of an edge-list id."""
    return _listed(text, flag, lambda t: None if _is_int64(t)
                   else f"not a decimal int64 {what}: {t!r}", int)


def _add_dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", help="dataset name under --data-root")
    p.add_argument("--data-root", default="data")
    p.add_argument("--edges", help="edge-list path (overrides --dataset)")
    p.add_argument("--features", help="feature CSV path")
    p.add_argument("--labels", help="label file path")


def _load_dataset(args) -> Dataset:
    if args.edges or args.features or args.labels:
        if not (args.edges and args.features and args.labels):
            raise UsageError(
                "--edges/--features/--labels must be given together")
        return load_dataset(args.edges, args.features, args.labels,
                            name=args.dataset or "dataset")
    if not args.dataset:
        raise UsageError("either --dataset or explicit file paths are required")
    return load_named_dataset(args.data_root, args.dataset)


def _add_split_args(p: argparse.ArgumentParser) -> None:
    g = p.add_argument_group("split")
    g.add_argument("--split", default="dense",
                   help="sparse|dense|inductive or a split JSON path")
    g.add_argument("--split-seed", type=_int,
                   help="seed of a split mode (default: the run's --seed)")
    g.add_argument("--seed", type=_int, default=model.TrainConfig.seed,
                   help="run seed: the model's, and the split's without "
                        "--split-seed")
    g.add_argument("--stratified", action="store_true")


def _add_train_args(p: argparse.ArgumentParser, grid: bool = False) -> None:
    """A flag for each TrainConfig field but lambda_max, which keeps its
    default; every default is TrainConfig's. A ``grid`` parser takes K and d
    from its own lists, so it has no --K/--order or --d/--rank."""
    p.add_argument("--mode", choices=sorted(MODE_ALIASES))
    p.add_argument("--basis", choices=BASES)
    if not grid:
        p.add_argument("--K", "--order", dest="order", type=_int)
        p.add_argument("--d", "--rank", dest="rank", type=_int)
    p.add_argument("--f-h", "--hidden", dest="hidden", type=_int)
    p.add_argument("--lr-l", type=_float)
    p.add_argument("--lr-p", type=_float)
    p.add_argument("--dp-l", type=_float)
    p.add_argument("--dp-p", type=_float)
    p.add_argument("--l2", type=_float)
    p.add_argument("--epochs", type=_int)
    p.add_argument("--patience", type=_int)
    p.add_argument("--batch-size", type=_int)
    p.add_argument("--static-h", dest="static_coefficients",
                   action="store_true",
                   help="derive mixing weights once from the order-0 features")
    p.add_argument("--estimate-lambda-max", dest="estimate_spectrum",
                   action="store_true")
    p.add_argument("--precision", choices=["float64", "float32"])
    _add_split_args(p)
    p.set_defaults(**asdict(model.TrainConfig()))


def _train_config(args, **changes) -> model.TrainConfig:
    """The run's TrainConfig with ``changes``, or a UsageError naming why."""
    values = {f.name: getattr(args, f.name) for f in fields(model.TrainConfig)}
    values.update(changes, mode=MODE_ALIASES[args.mode])
    try:
        return model.TrainConfig(**values)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


@contextmanager
def _checkpoint_errors(path):
    """Name the checkpoint in a ValueError raised inside: the checkpoint
    does not fit the dataset it is run on."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None


def _resolve_split(args, dataset: Dataset, seed: int):
    """The --split mode drawn with --split-seed or, without one, with
    ``seed``, the run's model seed; else the split saved at --split. A mode
    name is never read as a path, even when a file of that name exists."""
    if args.split not in DRAWN_MODES and (args.split.endswith(".json")
                                          or Path(args.split).exists()):
        return load_split(args.split)
    if args.split_seed is not None:
        seed = args.split_seed
    return make_split(dataset.n, args.split, seed, stratified=args.stratified,
                      labels=dataset.labels)


def _run(args, dataset: Dataset, cfg: model.TrainConfig):
    """Train ``cfg`` on its run's split: the result, the split, and the
    trained model's test accuracy."""
    split = _resolve_split(args, dataset, cfg.seed)
    result = model.train(dataset, split, cfg)
    preds, _ = model.predict(result.params, dataset, cfg)
    return result, split, evaluate.accuracy(preds, dataset.labels, split.test)


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
    histograms = (("h_hop1", rep.histogram_h1),
                  ("h_within2", rep.histogram_h_within2),
                  ("entropy_hop1", rep.histogram_s1),
                  ("entropy_within2", rep.histogram_s_within2))
    _write_csv(out / "histograms.csv", "metric,bin_lo,bin_hi,count",
               ((label, *row) for label, (edges, counts) in histograms
                for row in _bin_rows(edges, counts)))
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
    cfg = _train_config(args)
    dataset = _load_dataset(args)
    result, split, test_accuracy = _run(args, dataset, cfg)
    if args.history:
        _write_csv(args.history,
                   "epoch,train_loss,train_accuracy,validation_accuracy",
                   result.history)
    if args.checkpoint:
        model.save_checkpoint(args.checkpoint, result.params, cfg)
    if args.save_split:
        save_split(split, args.save_split)
    summary = {
        "dataset": dataset.name,
        "mode": cfg.mode,
        "basis": cfg.basis,
        "epochs_run": result.epochs_run,
        "best_epoch": result.best_epoch,
        "best_validation_accuracy": result.best_validation_accuracy,
        "test_accuracy": test_accuracy,
    }
    print(json.dumps(summary, indent=2, sort_keys=True))
    return 0


def cmd_eval(args) -> int:
    dataset = _load_dataset(args)
    params, cfg = model.load_checkpoint(args.checkpoint)
    split = _resolve_split(args, dataset, args.seed)
    with _checkpoint_errors(args.checkpoint):
        logits, psi = model.eval_outputs(params, dataset, cfg)
    preds = np.argmax(logits, axis=1)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)

    bins = evaluate.homophily_binned_accuracy(
        preds, dataset.labels, dataset.graph, split.test, bins=args.bins)
    _write_csv(out / "homophily_bins.csv", "bin_lo,bin_hi,count,accuracy",
               _bin_rows(bins.edges, bins.counts, bins.accuracy))
    coeff = evaluate.coefficient_distance_report(
        psi, dataset.graph, dataset.labels, pair_sample=args.pair_sample)
    _write_csv(out / "coefficient_distance.csv",
               "bin_lo,bin_hi,same_count,same_mean,diff_count,diff_mean",
               _bin_rows(coeff.edges, coeff.same_label_count,
                         coeff.same_label_mean, coeff.diff_label_count,
                         coeff.diff_label_mean))

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
    nodes = _int64_listed(args.nodes, "--nodes", "node id")
    if args.coeffs:
        coeffs = np.array(_listed(args.coeffs, "--coeffs",
                                  _feature_cell_problem, float))
        response = frequency_response(args.basis, coeffs, grid)
        rows.append(("coeffs", response))
    elif args.checkpoint:
        params, cfg = model.load_checkpoint(args.checkpoint)
        # such an operator is scaled by an estimate on the graph it runs on
        estimated = cfg.estimate_spectrum
        if estimated and not (args.dataset or args.edges):
            raise ValueError(
                f"{args.checkpoint}: this Chebyshev checkpoint estimated "
                "lambda_max from its graph; give the graph with --dataset or "
                "--edges/--features/--labels")
        dataset = _load_dataset(args) if estimated or nodes else None
        if estimated:
            # estimate once: the node rows reuse it, on the same operator
            op = model.build_operator(dataset.graph, cfg)
            cfg = replace(cfg, estimate_spectrum=False,
                          lambda_max=op.lambda_max)
        table = basis_matrix(cfg.basis, cfg.order, grid, cfg.lambda_max)
        gamma = params["filter.gamma"]
        for j in range(gamma.shape[1]):
            # a global_only model has one gamma column and no projection
            label = f"base_{j}" if "filter.w" in params else "global"
            rows.append((label, table @ gamma[:, j]))
        if nodes:
            nodes = node_ids(nodes, dataset.n)
            with _checkpoint_errors(args.checkpoint):
                psi = model.node_coefficients(params, dataset, cfg)
            rows.extend((f"node_{v}", table @ psi[v]) for v in nodes)
    else:
        raise UsageError("provide --coeffs or --checkpoint")

    _write_csv(args.out, "filter,lambda,response",
               ((label, lam, val) for label, values in rows
                for lam, val in zip(grid.tolist(), values.tolist())))
    return 0


def cmd_oracle_check(args) -> int:
    # random graphs of 8 to --n nodes, each decomposed densely
    if not 8 <= args.n <= DEFAULT_EIGEN_CAP:
        raise UsageError(f"--n must lie in [8, {DEFAULT_EIGEN_CAP}], got "
                         f"{args.n}")
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
    orders = _int64_listed(args.orders, "--orders", "order")
    ranks = _int64_listed(args.ranks, "--ranks", "rank")
    if not (orders and ranks):
        raise UsageError("--orders and --ranks each need at least one value")
    grid = [_train_config(args, order=k, rank=d) for k in orders for d in ranks]
    dataset = _load_dataset(args)
    _resolve_split(args, dataset, args.seed)  # a bad --split fails here too

    def rows():
        for cfg in grid:
            accs = [_run(args, dataset, replace(cfg, seed=args.seed + run))[2]
                    for run in range(args.runs)]
            summary = evaluate.summarize_runs(accs)
            yield (cfg.order, cfg.rank, len(accs), summary.mean,
                   summary.ci_half_width)

    _write_csv(args.out, "K,d,runs,mean_accuracy,ci_half_width", rows())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="nodespec",
        description="Node-oriented spectral filtering toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="homophily and entropy reports")
    _add_dataset_args(p)
    p.add_argument("--bins", type=_positive_int, default=10)
    p.add_argument("--out-dir", default="reports")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("prop-sim",
                       help="closed-form vs Monte-Carlo label-chain checks")
    p.add_argument("--alpha", type=_float, required=True)
    p.add_argument("--classes", type=_int, required=True)
    p.add_argument("--samples", type=_positive_int, default=1_000_000)
    p.add_argument("--seed", type=_int, default=0)
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
    _add_split_args(p)
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--bins", type=_positive_int, default=5)
    p.add_argument("--pair-sample", type=_positive_int, default=200_000)
    p.add_argument("--out-dir", default="reports")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("filter-response",
                       help="tabulate filter responses on a lambda grid")
    _add_dataset_args(p)
    p.add_argument("--checkpoint")
    p.add_argument("--coeffs", help="comma-separated coefficient vector")
    p.add_argument("--basis", default="chebyshev", choices=BASES)
    p.add_argument("--nodes", help="comma-separated node ids for local filters")
    p.add_argument("--grid-points", type=_positive_int, default=201)
    p.add_argument("--out")
    p.set_defaults(func=cmd_filter_response)

    p = sub.add_parser("oracle-check",
                       help="sparse pipeline vs dense spectral oracle")
    p.add_argument("--n", type=_int, default=32)
    p.add_argument("--trials", type=_positive_int, default=50)
    p.add_argument("--seed", type=_int, default=0)
    p.set_defaults(func=cmd_oracle_check)

    # no abbreviations, so --order and --rank are not read as --orders/--ranks
    p = sub.add_parser("sweep", help="order x rank accuracy grid",
                       allow_abbrev=False)
    _add_dataset_args(p)
    _add_train_args(p, grid=True)
    p.add_argument("--orders", default="1,3,5,10")
    p.add_argument("--ranks", default="1,3,5")
    p.add_argument("--runs", type=_positive_int, default=5)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except UsageError as exc:
        parser.error(str(exc))  # exits 2, as argparse's own usage errors do
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
