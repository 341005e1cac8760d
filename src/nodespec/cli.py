"""Command-line surface: analysis reports, training, evaluation, sweeps.

Tabular artifacts are CSV, summaries are JSON on stdout. Exit codes: 0 on
success, 1 on runtime failure, 2 on bad usage, printed under the
subcommand's usage line. Each flag is read once, by one rule: a value that
does not parse, or lies outside the flag's range, fails its argparse
``type`` (the comma lists ``--nodes``, ``--coeffs``, ``--orders`` and
``--ranks`` check every token, so an empty list fails), and a flag that the
run would not read is a usage error, not ignored: ``--data-root`` without a
``--dataset`` directory, ``filter-response --basis`` with a checkpoint,
which holds its basis, ``--split-seed`` or ``--stratified`` with a saved
split, which they would not change.
Flags that do not go together, and a config that ``TrainConfig`` rejects,
are found before any file is read wherever the flags alone decide. ``eval``
draws a split mode with ``--split-seed``, else with the checkpoint's seed,
the one its model was trained with. ``analyze`` computes nothing from
features, so it reads the feature file only to its first data row, for the
summary's width; every command that computes from features reads and checks
all of it.
"""

import argparse
import json
import sys
from contextlib import contextmanager, nullcontext
from dataclasses import asdict, fields, replace
from pathlib import Path

import numpy as np

from . import evaluate, homophily, model
from .data import (DRAWN_MODES, DataFormatError, Dataset,
                   _feature_cell_problem, _is_int64, dataset_dir_paths,
                   feature_width, load_class_labels, load_dataset, load_graph,
                   load_split, make_split, save_split, validate_split)
from .graph import node_ids
from .oracle import DEFAULT_EIGEN_CAP, run_oracle_checks
from .polyfilter import BASES, basis_matrix, frequency_response

MODE_ALIASES = {
    "appnp": "appnp_like", "appnp_like": "appnp_like",
    "sgc": "sgc_like", "sgc_like": "sgc_like",
    "global": "global_only", "global_only": "global_only",
}


# Rows of node_metrics.csv formatted at a time, so its text and Python
# objects are bounded by the block, not by the node count.
NODE_METRICS_BLOCK_ROWS = 16384


class UsageError(Exception):
    """Flags that parse but do not go together; ``main`` exits 2 on it."""


def _fmt(x) -> str:
    if x is None or (isinstance(x, float) and np.isnan(x)):
        return "nan"
    return f"{x:.17g}" if isinstance(x, float) else str(x)


def _g17(values: np.ndarray) -> list:
    """``"{:.17g}"`` of each float64 value, "nan" for NaN as in ``_fmt``.
    Each distinct bit pattern is formatted once: a report column holds few
    distinct ratios, and a float format costs more than a list lookup."""
    bits, inverse = np.unique(values.view(np.int64), return_inverse=True)
    text = np.array([f"{v:.17g}" for v in bits.view(np.float64).tolist()],
                    dtype=object)
    return text[inverse].tolist()


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


def _int_at_least(least: int):
    """An argparse type for an integer flag of at least ``least``, by
    ``_int``'s rule."""
    def parse(text: str) -> int:
        if not (_is_int64(text.strip()) and int(text) >= least):
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {least}, got {text!r}")
        return int(text)
    return parse


_positive_int = _int_at_least(1)


def _float(text: str) -> float:
    """A float flag read as a feature cell, by ``_feature_cell_problem``."""
    if _feature_cell_problem(text):
        raise argparse.ArgumentTypeError(f"not a finite float: {text!r}")
    return float(text)


def _unit_float(text: str) -> float:
    """A ``_float`` flag in [0, 1]."""
    value = _float(text)
    if not 0.0 <= value <= 1.0:
        raise argparse.ArgumentTypeError(
            f"expected a float in [0, 1], got {text!r}")
    return value


def _tokens(problem, cast):
    """An argparse type for a comma-separated list: each stripped token must
    pass ``problem`` and is read by ``cast``. An empty value is one empty
    token, so it fails too."""
    def parse(text: str) -> list:
        tokens = [tok.strip() for tok in text.split(",")]
        for bad in filter(None, map(problem, tokens)):
            raise argparse.ArgumentTypeError(bad)
        return [cast(tok) for tok in tokens]
    return parse


def _int64_tokens(what: str):
    """``_tokens`` read as decimal int64s, the rule of an edge-list id."""
    return _tokens(lambda t: None if _is_int64(t)
                   else f"not a decimal int64 {what}: {t!r}", int)


def _oracle_size(text: str) -> int:
    """oracle-check --n: its random graphs have 8 to --n nodes, each
    decomposed densely."""
    n = _int(text)
    if not 8 <= n <= DEFAULT_EIGEN_CAP:
        raise argparse.ArgumentTypeError(
            f"expected an integer in [8, {DEFAULT_EIGEN_CAP}], got {text!r}")
    return n


def _add_dataset_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--dataset", help="dataset directory under --data-root, "
                                     "or the name of --edges/--features/"
                                     "--labels")
    p.add_argument("--data-root", help="directory holding --dataset "
                                       "(default: data); not with --edges")
    p.add_argument("--edges", help="edge-list path (overrides --dataset)")
    p.add_argument("--features", help="feature CSV path")
    p.add_argument("--labels", help="label file path")


def _graph_flags(args) -> list:
    """The dataset flags given, as ``--flag`` names."""
    return [f"--{dest.replace('_', '-')}" for dest in
            ("dataset", "data_root", "edges", "features", "labels")
            if getattr(args, dest) is not None]


def _check_dataset_flags(args) -> None:
    """A UsageError unless the dataset flags name one dataset: all of
    --edges/--features/--labels (--dataset then only names it), or a
    --dataset directory under --data-root."""
    files = (args.edges, args.features, args.labels)
    if any(files) and not all(files):
        raise UsageError("--edges/--features/--labels must be given together")
    if not (any(files) or args.dataset):
        raise UsageError("either --dataset or explicit file paths are required")
    if any(files) and args.data_root is not None:
        raise UsageError("--data-root holds --dataset directories; it does "
                         "not go with --edges/--features/--labels")


def _dataset_paths(args):
    """The edge, feature and label paths of the dataset the flags name, and
    its name: the explicit files, else the --dataset directory."""
    _check_dataset_flags(args)
    if args.edges:
        return ((args.edges, args.features, args.labels),
                args.dataset or "dataset")
    root = "data" if args.data_root is None else args.data_root
    return dataset_dir_paths(root, args.dataset), args.dataset


def _load_dataset(args) -> Dataset:
    paths, name = _dataset_paths(args)
    return load_dataset(*paths, name=name)


def _add_split_args(p: argparse.ArgumentParser, model_seed: str) -> None:
    g = p.add_argument_group("split")
    g.add_argument("--split", default="dense",
                   help="sparse|dense|inductive or a split JSON path")
    g.add_argument("--split-seed", type=_int,
                   help="seed of a split mode (default: the model's seed, "
                        f"{model_seed})")
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
    p.add_argument("--seed", type=_int,
                   help="run seed: the model's, and the split's without "
                        "--split-seed")
    _add_split_args(p, "--seed")
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


def _split_is_file(args) -> bool:
    """Whether --split names a saved split: a path ending in .json or one
    that exists. A mode name is never read as a path, even when a file of
    that name exists."""
    return args.split not in DRAWN_MODES and (args.split.endswith(".json")
                                              or Path(args.split).exists())


def _check_split_flags(args) -> None:
    """A UsageError for --split-seed or --stratified beside a saved split,
    which they would not change."""
    if not _split_is_file(args):
        return
    for flag, given in (("--split-seed", args.split_seed is not None),
                        ("--stratified", args.stratified)):
        if given:
            raise UsageError(f"{flag} draws a split mode; it does not go "
                             f"with the saved split {args.split}")


def _resolve_split(args, dataset: Dataset, seed: int):
    """The --split mode drawn with --split-seed or, without one, with
    ``seed``, the model's seed; else the split saved at --split, whose ids
    must lie in ``dataset``."""
    if _split_is_file(args):
        split = load_split(args.split)
        try:
            validate_split(split, dataset.n)
        except DataFormatError as exc:
            raise DataFormatError(f"{args.split}: {exc}") from None
        return split
    if args.split_seed is not None:
        seed = args.split_seed
    return make_split(dataset.n, args.split, seed, stratified=args.stratified,
                      labels=dataset.labels)


def _check_output_dirs(*paths) -> None:
    """FileNotFoundError for an output path whose directory is missing."""
    for path in filter(None, paths):
        if not (parent := Path(path).parent).is_dir():
            raise FileNotFoundError(f"{path}: {parent} is not a directory")


def _run(args, dataset: Dataset, cfg: model.TrainConfig):
    """Train ``cfg`` on its run's split: the result, the split, and the
    trained model's test accuracy."""
    split = _resolve_split(args, dataset, cfg.seed)
    result = model.train(dataset, split, cfg)
    preds, _ = model.predict(result.params, dataset, cfg)
    return result, split, evaluate.accuracy(preds, dataset.labels, split.test)


def cmd_analyze(args) -> int:
    # the reports need no feature values, so of the feature file only the
    # first row is read, for its width; the files go in load_dataset's order
    (edge_path, feature_path, label_path), name = _dataset_paths(args)
    labels, class_count = load_class_labels(label_path)
    width = feature_width(feature_path)
    graph = load_graph(edge_path, labels.size)
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    rep = homophily.homophily_report(graph, labels, class_count, args.bins)
    columns = (rep.per_node_h1, rep.per_node_h_within2, rep.per_node_s1,
               rep.per_node_s_within2)
    with open(out / "node_metrics.csv", "w", encoding="utf-8") as fh:
        fh.write("node,h_hop1,h_within2,entropy_hop1,entropy_within2\n")
        for lo in range(0, graph.n, NODE_METRICS_BLOCK_ROWS):
            block = [_g17(c[lo:lo + NODE_METRICS_BLOCK_ROWS]) for c in columns]
            fh.writelines(f"{v},{a},{b},{c},{d}\n" for v, a, b, c, d
                          in zip(range(lo, graph.n), *block))
    histograms = (("h_hop1", rep.histogram_h1),
                  ("h_within2", rep.histogram_h_within2),
                  ("entropy_hop1", rep.histogram_s1),
                  ("entropy_within2", rep.histogram_s_within2))
    _write_csv(out / "histograms.csv", "metric,bin_lo,bin_hi,count",
               ((label, *row) for label, (edges, counts) in histograms
                for row in _bin_rows(edges, counts)))
    summary = {
        "dataset": name,
        "nodes": graph.n,
        "edges": graph.edge_count,
        "features": width,
        "classes": class_count,
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
    _check_split_flags(args)
    _check_output_dirs(args.checkpoint, args.history, args.save_split)
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
    _check_split_flags(args)
    dataset = _load_dataset(args)
    params, cfg = model.load_checkpoint(args.checkpoint)
    # a split mode is drawn as training drew it, unless --split-seed says
    split = _resolve_split(args, dataset, cfg.seed)
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
    _check_output_dirs(args.out)
    grid = np.linspace(0.0, 2.0, args.grid_points)
    rows = []
    graph = _graph_flags(args)
    if args.coeffs is not None:
        # raw coefficients are one filter on no graph
        for flag in (["--nodes"] if args.nodes is not None else []) + graph:
            raise UsageError(f"{flag} needs --checkpoint, not --coeffs")
        response = frequency_response(args.basis or model.TrainConfig.basis,
                                      np.array(args.coeffs), grid)
        rows.append(("coeffs", response))
    else:
        if args.basis is not None:
            raise UsageError("--basis needs --coeffs: a checkpoint holds its "
                             "basis")
        if graph or args.nodes:
            _check_dataset_flags(args)
        params, cfg = model.load_checkpoint(args.checkpoint)
        # such an operator is scaled by an estimate on the graph it runs on
        estimated = cfg.estimate_spectrum
        if estimated and not graph:
            raise ValueError(
                f"{args.checkpoint}: this Chebyshev checkpoint estimated "
                "lambda_max from its graph; give the graph with --dataset or "
                "--edges/--features/--labels")
        if graph and not (estimated or args.nodes):
            raise UsageError(f"{graph[0]} needs --nodes or a checkpoint that "
                             "estimated lambda_max")
        dataset = _load_dataset(args) if graph else None
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
        if args.nodes:
            nodes = node_ids(args.nodes, dataset.n)
            with _checkpoint_errors(args.checkpoint):
                psi = model.node_coefficients(params, dataset, cfg)
            rows.extend((f"node_{v}", table @ psi[v]) for v in nodes)

    _write_csv(args.out, "filter,lambda,response",
               ((label, lam, val) for label, values in rows
                for lam, val in zip(grid.tolist(), values.tolist())))
    return 0


def cmd_oracle_check(args) -> int:
    errors = run_oracle_checks(max_nodes=args.n, trials=args.trials,
                               seed=args.seed)
    bounds = {"spectral_equivalence": 1e-10, "node_filter": 1e-10,
              "translate_delta": 1e-9, "localization_leak": 1e-12,
              "reconstruction": 1e-8}
    ok = True
    for name, worst in errors.items():
        passed = worst <= bounds[name]
        ok &= passed
        print(f"{name}: {'PASS' if passed else 'FAIL'} "
              f"(max error {worst:.3e}, bound {bounds[name]:.0e})")
    return 0 if ok else 1


def cmd_sweep(args) -> int:
    grid = [_train_config(args, order=k, rank=d)
            for k in args.orders for d in args.ranks]
    _check_split_flags(args)
    _check_output_dirs(args.out)
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


def _analyze_args(p: argparse.ArgumentParser) -> None:
    _add_dataset_args(p)
    p.add_argument("--bins", type=_positive_int, default=10)
    p.add_argument("--out-dir", default="reports")
    p.set_defaults(func=cmd_analyze)


def _prop_sim_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--alpha", type=_unit_float, required=True)
    p.add_argument("--classes", type=_int_at_least(2), required=True)
    p.add_argument("--samples", type=_positive_int, default=1_000_000)
    p.add_argument("--seed", type=_int, default=0)
    p.set_defaults(func=cmd_prop_sim)


def _train_args(p: argparse.ArgumentParser) -> None:
    _add_dataset_args(p)
    _add_train_args(p)
    p.add_argument("--checkpoint", help="checkpoint output path")
    p.add_argument("--history", help="per-epoch history CSV path")
    p.add_argument("--save-split", help="write the resolved split as JSON")
    p.set_defaults(func=cmd_train)


def _eval_args(p: argparse.ArgumentParser) -> None:
    _add_dataset_args(p)
    _add_split_args(p, "read from the checkpoint")
    p.add_argument("--checkpoint", required=True)
    p.add_argument("--bins", type=_positive_int, default=5)
    p.add_argument("--pair-sample", type=_positive_int, default=200_000,
                   help="coefficient-distance pairs: all n(n-1)/2 when there "
                        "are at most this many, else a seeded sample of this "
                        "many (self-pairs dropped)")
    p.add_argument("--out-dir", default="reports")
    p.set_defaults(func=cmd_eval)


def _filter_response_args(p: argparse.ArgumentParser) -> None:
    _add_dataset_args(p)
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--checkpoint")
    source.add_argument("--coeffs", type=_tokens(_feature_cell_problem, float),
                        help="comma-separated coefficient vector")
    p.add_argument("--basis", choices=BASES,
                   help="basis of --coeffs (default: chebyshev); a checkpoint "
                        "holds its own")
    p.add_argument("--nodes", type=_int64_tokens("node id"),
                   help="comma-separated node ids for local filters (needs "
                        "--checkpoint)")
    p.add_argument("--grid-points", type=_positive_int, default=201)
    p.add_argument("--out")
    p.set_defaults(func=cmd_filter_response)


def _oracle_check_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--n", type=_oracle_size, default=32)
    p.add_argument("--trials", type=_positive_int, default=50)
    p.add_argument("--seed", type=_int, default=0)
    p.set_defaults(func=cmd_oracle_check)


def _sweep_args(p: argparse.ArgumentParser) -> None:
    _add_dataset_args(p)
    _add_train_args(p, grid=True)
    p.add_argument("--orders", type=_int64_tokens("order"), default="1,3,5,10")
    p.add_argument("--ranks", type=_int64_tokens("rank"), default="1,3,5")
    p.add_argument("--runs", type=_positive_int, default=5)
    p.add_argument("--out")
    p.set_defaults(func=cmd_sweep)


# Each subcommand: its add_parser keywords and the builder of its arguments.
# The builders are apart because each add_argument costs a help formatter and
# a terminal-size query, and a run needs only its own command's arguments.
COMMANDS = {
    "analyze": ({"help": "homophily and entropy reports"}, _analyze_args),
    "prop-sim": ({"help": "closed-form vs Monte-Carlo label-chain checks"},
                 _prop_sim_args),
    "train": ({"help": "train a model and save artifacts"}, _train_args),
    "eval": ({"help": "evaluate a checkpoint"}, _eval_args),
    "filter-response": ({"help": "tabulate filter responses on a lambda "
                                 "grid"}, _filter_response_args),
    "oracle-check": ({"help": "sparse pipeline vs dense spectral oracle"},
                     _oracle_check_args),
    # no abbreviations, so --order and --rank are not read as --orders/--ranks
    "sweep": ({"help": "order x rank accuracy grid", "allow_abbrev": False},
              _sweep_args),
}


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The nodespec parser, every subcommand registered by name and help.
    Only ``command``'s subparser gets its arguments, or, with no
    ``command``, every subparser does."""
    parser = argparse.ArgumentParser(
        prog="nodespec",
        description="Node-oriented spectral filtering toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (keywords, add_arguments) in COMMANDS.items():
        p = sub.add_parser(name, **keywords)
        if command in (None, name):
            add_arguments(p)
        p.set_defaults(command_parser=p)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a first token that names no command (help, a typo, a flag before the
    # command) gets the whole parser, so every message stays argparse's own
    command = argv[0] if argv and argv[0] in COMMANDS else None
    args, unknown = build_parser(command).parse_known_args(argv)
    if unknown:
        # argparse would report them under the top-level usage
        args.command_parser.error(
            f"unrecognized arguments: {' '.join(unknown)}")
    try:
        return args.func(args)
    except UsageError as exc:
        # exits 2 under its subcommand's usage, as argparse's own errors do
        args.command_parser.error(str(exc))
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
