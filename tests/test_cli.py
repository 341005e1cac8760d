import argparse
import dataclasses
import json
import os
import re
import struct
import subprocess
import sys

import numpy as np
import pytest

import nodespec
from nodespec import cli, model
from nodespec.cli import _train_config, build_parser, main
from nodespec.data import (Dataset, load_named_dataset, load_split,
                           make_split, save_dataset, save_split)
from nodespec.graph import (build_graph, estimate_lambda_max,
                            normalized_laplacian)
from nodespec.homophily import homophily_report
from nodespec.polyfilter import basis_matrix
from nodespec.synthetic import planted_partition_dataset

# Each subcommand and its line in the top-level help.
COMMAND_HELP = {
    "analyze": "homophily and entropy reports",
    "prop-sim": "closed-form vs Monte-Carlo label-chain checks",
    "train": "train a model and save artifacts",
    "eval": "evaluate a checkpoint",
    "filter-response": "tabulate filter responses on a lambda grid",
    "oracle-check": "sparse pipeline vs dense spectral oracle",
    "sweep": "order x rank accuracy grid",
}


@pytest.fixture(scope="module")
def data_root(tmp_path_factory):
    root = tmp_path_factory.mktemp("data")
    ds = planted_partition_dataset(n=60, classes=3, feature_dim=6, seed=21,
                                   name="toy")
    save_dataset(ds, root)
    return root


@pytest.fixture(scope="module")
def dense_data_root(tmp_path_factory):
    # the toy graph's lambda_max estimate is the cap 2.0, the fixed bound;
    # this denser graph's is below it, so an estimated run differs
    root = tmp_path_factory.mktemp("dense")
    save_dataset(planted_partition_dataset(
        n=60, classes=3, p_in=0.3, p_out=0.05, feature_dim=6, seed=21,
        name="toy"), root)
    return root


def run_cli(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def test_analyze_writes_reports(data_root, tmp_path, capsys):
    code, out, _ = run_cli(capsys, "analyze", "--dataset", "toy",
                           "--data-root", data_root,
                           "--out-dir", tmp_path / "reports")
    assert code == 0
    summary = json.loads(out)
    assert summary["nodes"] == 60
    assert 0.0 <= summary["graph_homophily"] <= 1.0
    node_csv = (tmp_path / "reports" / "node_metrics.csv").read_text()
    assert node_csv.count("\n") == 61  # header + one row per node
    hist_csv = (tmp_path / "reports" / "histograms.csv").read_text()
    assert "h_hop1" in hist_csv and "entropy_within2" in hist_csv


def test_node_metrics_bytes_equal_the_per_row_rendering(tmp_path, capsys,
                                                       monkeypatch):
    # the last node is isolated, so its row reads nan; blocks of 16 rows
    # cut the 41 nodes in three
    ds = planted_partition_dataset(n=40, classes=2, p_in=0.2, p_out=0.02,
                                   feature_dim=3, seed=3)
    edges = [(i, int(j)) for i in range(ds.n) for j in ds.graph.neighbors(i)
             if i < j]
    save_dataset(Dataset(build_graph(edges, ds.n + 1),
                         np.vstack([ds.features, np.zeros((1, 3))]),
                         np.append(ds.labels, 1), 2, name="iso"), tmp_path)
    monkeypatch.setattr(cli, "NODE_METRICS_BLOCK_ROWS", 16)
    code, _, _ = run_cli(capsys, "analyze", "--dataset", "iso",
                         "--data-root", tmp_path,
                         "--out-dir", tmp_path / "reports")
    assert code == 0
    iso = load_named_dataset(tmp_path, "iso")
    rep = homophily_report(iso.graph, iso.labels, 2)
    rows = np.column_stack([rep.per_node_h1, rep.per_node_h_within2,
                            rep.per_node_s1, rep.per_node_s_within2]).tolist()
    want = "node,h_hop1,h_within2,entropy_hop1,entropy_within2\n" + "".join(
        "{},{:.17g},{:.17g},{:.17g},{:.17g}\n".format(v, *row)
        for v, row in enumerate(rows))
    assert (tmp_path / "reports" / "node_metrics.csv").read_bytes() == \
        want.encode()
    cells = [line.split(",") for line in want.splitlines()[1:]]
    assert cells[-1] == ["40", "nan", "nan", "nan", "nan"]
    assert {"0", "1"} <= {cell for row in cells for cell in row[1:]}


def _subparsers(parser: argparse.ArgumentParser) -> dict:
    return next(a for a in parser._actions
                if isinstance(a, argparse._SubParsersAction)).choices


def _type_key(t):
    """A flag's type by name and captured values: the type factories make a
    new closure for each parser built."""
    cells = getattr(t, "__closure__", None) or ()
    return (getattr(t, "__qualname__", t),
            tuple(_type_key(c.cell_contents) for c in cells))


def _parser_key(p: argparse.ArgumentParser):
    actions = [(type(a), a.option_strings, a.dest, a.default,
                _type_key(a.type), a.required, a.choices, a.nargs, a.const,
                a.help, a.metavar) for a in p._actions]
    exclusive = [(g.required, [a.dest for a in g._group_actions])
                 for g in p._mutually_exclusive_groups]
    defaults = {k: v for k, v in p._defaults.items() if k != "command_parser"}
    return actions, exclusive, defaults, p.allow_abbrev, p.format_help()


@pytest.mark.parametrize("command", list(COMMAND_HELP))
def test_one_command_parser_equals_its_part_of_the_whole(command):
    whole = _subparsers(build_parser())
    alone = _subparsers(build_parser(command))
    assert list(alone) == list(whole) == list(COMMAND_HELP)
    assert _parser_key(alone[command]) == _parser_key(whole[command])
    assert alone[command].get_default("command_parser") is alone[command]
    # the other commands are registered by name and help alone
    for other, p in alone.items():
        if other != command:
            assert [a.dest for a in p._actions] == ["help"]


@pytest.mark.parametrize("argv, built", [
    (["prop-sim", "--alpha", "0.5", "--classes", "3", "--samples", "10"],
     "prop-sim"),
    # a first token that names no command gets the whole parser
    (["--no-such-flag", "prop-sim"], None),
    ([], None)], ids=["command", "flag-first", "empty"])
def test_main_builds_the_named_command_alone(monkeypatch, capsys, argv,
                                             built):
    asked = []

    def watched(command=None):
        asked.append(command)
        return build_parser(command)

    monkeypatch.setattr(cli, "build_parser", watched)
    try:
        main(argv)
    except SystemExit:
        pass
    capsys.readouterr()
    assert asked == [built]


def test_prop_sim_matches_closed_form(capsys):
    code, out, _ = run_cli(capsys, "prop-sim", "--alpha", "0.4",
                           "--classes", "5", "--samples", "200000")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["epsilon_same_vs_diff"] - (-0.5)) < 1e-12
    gap = abs(payload["mc_epsilon_same_vs_diff"]
              - payload["epsilon_same_vs_diff"])
    assert gap <= 3 * payload["se_epsilon_same_vs_diff"]


def test_eval_draws_a_split_mode_with_the_checkpoints_seed(data_root,
                                                          tmp_path, capsys):
    # eval's split mode is the one training drew, so its test nodes are the
    # run's test nodes, not another seed's, which would include train nodes
    ckpt, split = tmp_path / "toy.ckpt", tmp_path / "split.json"
    code, out, _ = run_cli(capsys, "train", "--dataset", "toy",
                           "--data-root", data_root, "--K", "2", "--f-h", "8",
                           "--epochs", "30", "--patience", "30",
                           "--seed", "7", "--split", "dense",
                           "--checkpoint", ckpt, "--save-split", split)
    assert code == 0
    trained = json.loads(out)["test_accuracy"]
    reports = []
    for tag, flags in (("mode", ["--split", "dense"]),
                       ("saved", ["--split", split])):
        code, out, err = run_cli(capsys, "eval", "--dataset", "toy",
                                 "--data-root", data_root, "--checkpoint",
                                 ckpt, *flags, "--out-dir", tmp_path / tag)
        assert code == 0, err
        assert json.loads(out)["test_accuracy"] == trained
        reports.append((tmp_path / tag / "homophily_bins.csv").read_bytes())
    assert reports[0] == reports[1]


def test_train_eval_filter_response_pipeline(data_root, tmp_path, capsys):
    ckpt = tmp_path / "toy.ckpt"
    hist = tmp_path / "history.csv"
    split = tmp_path / "split.json"
    code, out, _ = run_cli(capsys, "train", "--dataset", "toy",
                           "--data-root", data_root, "--mode", "appnp",
                           "--K", "3", "--d", "1", "--f-h", "8",
                           "--epochs", "30", "--patience", "30",
                           "--seed", "7", "--split", "dense",
                           "--checkpoint", ckpt, "--history", hist,
                           "--save-split", split)
    assert code == 0
    summary = json.loads(out)
    assert summary["mode"] == "appnp_like"
    assert ckpt.exists() and hist.exists() and split.exists()
    header = hist.read_text().splitlines()[0]
    assert header == "epoch,train_loss,train_accuracy,validation_accuracy"

    code, out, _ = run_cli(capsys, "eval", "--dataset", "toy",
                           "--data-root", data_root, "--checkpoint", ckpt,
                           "--split", split, "--out-dir", tmp_path / "ev")
    assert code == 0
    payload = json.loads(out)
    assert 0.0 <= payload["test_accuracy"] <= 1.0
    bins = (tmp_path / "ev" / "homophily_bins.csv").read_text()
    assert bins.startswith("bin_lo,bin_hi,count,accuracy")
    coeff = (tmp_path / "ev" / "coefficient_distance.csv").read_text()
    assert coeff.startswith("bin_lo,bin_hi,same_count")

    resp = tmp_path / "resp.csv"
    code, _, _ = run_cli(capsys, "filter-response", "--checkpoint", ckpt,
                         "--dataset", "toy", "--data-root", data_root,
                         "--nodes", "0,3", "--grid-points", "11",
                         "--out", resp)
    assert code == 0
    lines = resp.read_text().splitlines()
    assert lines[0] == "filter,lambda,response"
    names = {line.split(",")[0] for line in lines[1:]}
    assert names == {"base_0", "node_0", "node_3"}


def test_eval_runs_one_forward_pass(data_root, tmp_path, capsys,
                                    monkeypatch):
    ckpt = tmp_path / "toy.ckpt"
    code, _, _ = run_cli(capsys, "train", "--dataset", "toy",
                         "--data-root", data_root, "--mode", "sgc", "--K", "2",
                         "--f-h", "8", "--epochs", "2", "--checkpoint", ckpt)
    assert code == 0
    builds = []
    build = model._operator_and_stack
    monkeypatch.setattr(model, "_operator_and_stack",
                        lambda *a: builds.append(1) or build(*a))
    code, _, _ = run_cli(capsys, "eval", "--dataset", "toy",
                         "--data-root", data_root, "--checkpoint", ckpt,
                         "--out-dir", tmp_path / "ev")
    assert code == 0
    assert len(builds) == 1


def test_filter_response_explicit_coeffs(capsys):
    code, out, _ = run_cli(capsys, "filter-response", "--basis", "chebyshev",
                           "--coeffs", "0,1", "--grid-points", "5")
    assert code == 0
    rows = [line.split(",") for line in out.splitlines()[1:]]
    lams = np.array([float(r[1]) for r in rows])
    vals = np.array([float(r[2]) for r in rows])
    np.testing.assert_allclose(vals, lams - 1.0, atol=1e-12)


def test_train_determinism_byte_identical(data_root, tmp_path, capsys):
    paths = []
    for tag in ("a", "b"):
        ckpt = tmp_path / f"{tag}.ckpt"
        hist = tmp_path / f"{tag}.csv"
        code, _, _ = run_cli(capsys, "train", "--dataset", "toy",
                             "--data-root", data_root, "--K", "2",
                             "--f-h", "8", "--epochs", "15",
                             "--patience", "15", "--seed", "3",
                             "--checkpoint", ckpt, "--history", hist)
        assert code == 0
        paths.append((ckpt, hist))
    assert paths[0][0].read_bytes() == paths[1][0].read_bytes()
    assert paths[0][1].read_bytes() == paths[1][1].read_bytes()


def test_estimated_train_determinism_byte_identical(dense_data_root,
                                                    tmp_path, capsys):
    outputs = []
    for tag in ("a", "b"):
        ckpt = tmp_path / f"{tag}.ckpt"
        hist = tmp_path / f"{tag}.csv"
        code, _, _ = run_cli(capsys, "train", "--dataset", "toy",
                             "--data-root", dense_data_root, "--K", "3",
                             "--f-h", "8", "--epochs", "5", "--seed", "3",
                             "--estimate-lambda-max",
                             "--checkpoint", ckpt, "--history", hist)
        assert code == 0
        outputs.append((ckpt.read_bytes(), hist.read_bytes()))
    assert outputs[0] == outputs[1]


def test_oracle_check_passes(capsys):
    code, out, _ = run_cli(capsys, "oracle-check", "--n", "20",
                           "--trials", "6")
    assert code == 0
    assert out.count("PASS") == 5 and "FAIL" not in out
    assert "node_filter: PASS" in out


@pytest.mark.parametrize("argv, message", [
    (["--trials", "0"], "argument --trials: expected an integer >= 1"),
    (["--trials", "-3"], "argument --trials: expected an integer >= 1"),
    (["--n", "7"], "argument --n: expected an integer in [8, 512], got '7'"),
    (["--n", "513"],
     "argument --n: expected an integer in [8, 512], got '513'")],
    ids=["trials-0", "trials-negative", "n-7", "n-above-eigen-cap"])
def test_oracle_check_rejects_what_it_cannot_check(capsys, argv, message):
    # zero trials check nothing, and the random graphs have 8 to --n nodes,
    # each decomposed densely
    with pytest.raises(SystemExit) as exc:
        main(["oracle-check", *argv])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("usage: nodespec oracle-check ")
    assert message in out.err


@pytest.mark.parametrize("argv, message", [
    (["--alpha", "1.5", "--classes", "3"],
     "argument --alpha: expected a float in [0, 1], got '1.5'"),
    (["--alpha", "-0.5", "--classes", "3"],
     "argument --alpha: expected a float in [0, 1], got '-0.5'"),
    (["--alpha", "0.5", "--classes", "1"],
     "argument --classes: expected an integer >= 2, got '1'")],
    ids=["alpha-above-1", "alpha-below-0", "classes-1"])
def test_prop_sim_rejects_out_of_range_flags(capsys, monkeypatch, argv,
                                             message):
    # the label chain needs a retention probability and two classes
    monkeypatch.setattr(nodespec.cli.homophily, "proposition_monte_carlo",
                        lambda *a: pytest.fail("ran the simulation"))
    with pytest.raises(SystemExit) as exc:
        main(["prop-sim", *argv])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("usage: nodespec prop-sim ")
    assert out.err.endswith(f"error: {message}\n")


def test_sweep_emits_grid(data_root, tmp_path, capsys):
    out_csv = tmp_path / "sweep.csv"
    code, _, _ = run_cli(capsys, "sweep", "--dataset", "toy",
                         "--data-root", data_root, "--orders", "1,2",
                         "--ranks", "1", "--runs", "2", "--epochs", "10",
                         "--patience", "10", "--f-h", "8",
                         "--out", out_csv)
    assert code == 0
    lines = out_csv.read_text().splitlines()
    assert lines[0] == "K,d,runs,mean_accuracy,ci_half_width"
    assert len(lines) == 3


def test_unknown_flag_exits_two(data_root):
    with pytest.raises(SystemExit) as exc:
        main(["train", "--no-such-flag"])
    assert exc.value.code == 2


def test_entry_point_lists_the_commands():
    src = os.path.dirname(os.path.dirname(nodespec.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-m", "nodespec.cli", "--help"],
                          capture_output=True, text=True, timeout=60,
                          env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    commands = re.search(r"\{([^}]*)\}", proc.stdout).group(1).split(",")
    assert commands == list(COMMAND_HELP)
    for command, line in COMMAND_HELP.items():
        assert re.search(rf"^    {command} +{re.escape(line)}$", proc.stdout,
                         re.M)


@pytest.mark.parametrize("argv, message", [
    (["analyze", "--edges", "edges.tsv"],
     "--edges/--features/--labels must be given together"),
    (["analyze"], "either --dataset or explicit file paths are required"),
    (["filter-response"],
     "one of the arguments --checkpoint --coeffs is required")],
    ids=["edges-alone", "no-dataset", "no-filter"])
def test_flags_that_do_not_go_together_exit_two(tmp_path, capsys, argv,
                                                message):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--out-dir" if argv[0] == "analyze" else "--out",
              str(tmp_path / "out")])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    # a UsageError prints its subcommand's usage, as argparse's errors do
    assert out.err.startswith(f"usage: nodespec {argv[0]} ")
    assert out.err.endswith(f"error: {message}\n")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("flags, message", [
    (["--checkpoint", "absent.ckpt"],
     "argument --checkpoint: not allowed with argument --coeffs"),
    (["--nodes", "0"], "--nodes needs --checkpoint, not --coeffs"),
    (["--dataset", "toy"], "--dataset needs --checkpoint, not --coeffs"),
    (["--data-root", "d"], "--data-root needs --checkpoint, not --coeffs"),
    (["--edges", "e.tsv"], "--edges needs --checkpoint, not --coeffs"),
    (["--features", "f.csv"], "--features needs --checkpoint, not --coeffs"),
    (["--labels", "l.txt"], "--labels needs --checkpoint, not --coeffs"),
    ([], "argument --coeffs: not a decimal float: ''")],
    ids=["checkpoint", "nodes", "dataset", "data-root", "edges", "features",
         "labels", "empty-coeffs"])
def test_filter_response_raw_coeffs_take_no_graph(tmp_path, capsys, flags,
                                                  message):
    # raw coefficients are one filter: no checkpoint, node rows or graph
    coeffs = "" if not flags else "1,0.5"
    out_csv = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(["filter-response", "--coeffs", coeffs, *flags,
              "--out", str(out_csv)])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("usage: nodespec filter-response ")
    assert out.err.endswith(f"error: {message}\n")
    assert not out_csv.exists()


@pytest.mark.parametrize("argv, message", [
    (["filter-response", "--checkpoint", "absent.ckpt", "--basis", "monomial"],
     "--basis needs --coeffs: a checkpoint holds its basis"),
    (["analyze", "--edges", "e.tsv", "--features", "f.csv", "--labels",
      "l.txt", "--data-root", "d"],
     "--data-root holds --dataset directories; it does not go with "
     "--edges/--features/--labels"),
    (["filter-response", "--checkpoint", "absent.ckpt", "--nodes", "0",
      "--dataset", "toy", "--edges", "e.tsv", "--features", "f.csv",
      "--labels", "l.txt", "--data-root", "d"],
     "--data-root holds --dataset directories; it does not go with "
     "--edges/--features/--labels"),
    (["eval", "--checkpoint", "absent.ckpt", "--dataset", "toy", "--seed",
      "7"], "unrecognized arguments: --seed 7"),
    (["train", "--dataset", "toy", "--split", "s.json", "--split-seed", "3"],
     "--split-seed draws a split mode; it does not go with the saved split "
     "s.json"),
    (["eval", "--checkpoint", "absent.ckpt", "--dataset", "toy", "--split",
      "s.json", "--stratified"],
     "--stratified draws a split mode; it does not go with the saved split "
     "s.json"),
    (["sweep", "--dataset", "toy", "--split", "s.json", "--split-seed", "3",
      "--stratified"],
     "--split-seed draws a split mode; it does not go with the saved split "
     "s.json")],
    ids=["basis-with-checkpoint", "data-root-with-files",
         "data-root-with-node-rows", "eval-seed", "train-split-seed",
         "eval-stratified", "sweep-split-seed"])
def test_flags_the_run_would_not_read_exit_two(capsys, monkeypatch, argv,
                                               message):
    # the flags alone decide, so no file is read: the checkpoint holds the
    # basis, --data-root holds only --dataset directories, eval draws its
    # split with --split-seed or the checkpoint's seed, and a saved split is
    # not drawn
    def read(*args, **kwargs):
        pytest.fail("read a file")

    for name in ("load_dataset", "load_class_labels", "feature_width",
                 "load_graph", "load_split"):
        monkeypatch.setattr(nodespec.cli, name, read)
    monkeypatch.setattr(model, "load_checkpoint", read)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith(f"usage: nodespec {argv[0]} ")
    assert out.err.endswith(f"error: {message}\n")


@pytest.mark.parametrize("flags", [
    ["--dataset", "toy"], ["--dataset", "toy", "--data-root", "d"],
    ["--edges", "e.tsv", "--features", "f.csv", "--labels", "l.txt"]],
    ids=["dataset", "data-root", "files"])
def test_filter_response_graph_flags_need_a_graph_to_read(tmp_path, capsys,
                                                          flags):
    # a checkpoint that did not estimate lambda_max, without --nodes, reads
    # no graph, so the graph flags would be ignored; the dataset named here
    # does not exist, and is never read
    cfg = model.TrainConfig(order=2, hidden=8)
    ckpt = tmp_path / "toy.ckpt"
    model.save_checkpoint(
        ckpt, model.init_params(cfg, 6, 3, np.random.default_rng(0)), cfg)
    with pytest.raises(SystemExit) as exc:
        main(["filter-response", "--checkpoint", str(ckpt), *flags])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("usage: nodespec filter-response ")
    assert out.err.endswith(f"error: {flags[0]} needs --nodes or a checkpoint "
                            "that estimated lambda_max\n")


@pytest.mark.parametrize("argv, code", [
    (["sweep", "--runs", "0"], 2),
    (["sweep", "--orders", "2,0"], 2),
    (["sweep", "--ranks", "1,0"], 2),
    (["filter-response", "--coeffs", "0,1", "--grid-points", "0"], 2),
    (["filter-response", "--coeffs", "0,1", "--grid-points", "-1"], 2)],
    ids=["runs-0", "order-0", "rank-0", "grid-points-0", "grid-points-negative"])
def test_bad_counts_fail_before_any_output(data_root, tmp_path, capsys,
                                           monkeypatch, argv, code):
    monkeypatch.setattr(model, "train", lambda *a: pytest.fail("trained"))
    out_csv = tmp_path / "out.csv"
    try:
        got = main([*argv, "--dataset", "toy", "--data-root", str(data_root),
                    "--out", str(out_csv)])
    except SystemExit as exc:
        got = exc.code
    out = capsys.readouterr()
    assert got == code
    assert out.out == "" and "error: " in out.err
    assert not out_csv.exists()


@pytest.mark.parametrize("argv", [
    ["train", "--checkpoint"], ["train", "--history"],
    ["train", "--save-split"], ["sweep", "--out"]],
    ids=["checkpoint", "history", "save-split", "sweep-out"])
def test_a_missing_output_directory_fails_before_loading(
        data_root, tmp_path, capsys, monkeypatch, argv):
    monkeypatch.setattr(model, "train", lambda *a: pytest.fail("trained"))
    monkeypatch.setattr(cli, "load_dataset",
                        lambda *a, **k: pytest.fail("loaded the dataset"))
    path = tmp_path / "absent" / "out"
    code, out, err = run_cli(capsys, *argv, path, "--dataset", "toy",
                             "--data-root", data_root)
    assert code == 1 and out == ""
    assert err == f"error: {path}: {path.parent} is not a directory\n"


def test_split_mode_is_not_shadowed_by_a_path(data_root, tmp_path, capsys,
                                              monkeypatch):
    (tmp_path / "dense").mkdir()
    monkeypatch.chdir(tmp_path)
    code, _, err = run_cli(capsys, "train", "--dataset", "toy",
                           "--data-root", data_root, "--epochs", "2",
                           "--split-seed", "4", "--save-split", "got.json")
    assert code == 0, err
    got, want = load_split(tmp_path / "got.json"), make_split(60, "dense", 4)
    for part in ("train", "validation", "test"):
        np.testing.assert_array_equal(getattr(got, part), getattr(want, part))


@pytest.mark.parametrize("split", ["bogus", "missing.json", "broken.json"])
def test_sweep_bad_split_fails_before_any_output(data_root, tmp_path, capsys,
                                                 monkeypatch, split):
    monkeypatch.setattr(model, "train", lambda *a: pytest.fail("trained"))
    (tmp_path / "broken.json").write_text("{not json")
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, "sweep", "--dataset", "toy",
                             "--data-root", data_root, "--split", split,
                             "--out", "s.csv")
    assert code == 1
    assert out == "" and "error: " in err
    assert not (tmp_path / "s.csv").exists()


@pytest.mark.parametrize("command, flagless", [
    ("train", {"lambda_max"}),
    # sweep takes K and d from --orders and --ranks
    ("sweep", {"lambda_max", "order", "rank"})])
def test_train_config_defaults_come_from_train_config(command, flagless):
    parser = build_parser()
    args = parser.parse_args([command, "--dataset", "x"])
    assert _train_config(args) == model.TrainConfig()
    sub = next(a for a in parser._actions
               if isinstance(a, argparse._SubParsersAction))
    dests = {a.dest for a in sub.choices[command]._actions}
    fields = {f.name for f in dataclasses.fields(model.TrainConfig)}
    assert fields - dests == flagless


def test_runtime_failure_exits_one(tmp_path, capsys):
    code, _, err = run_cli(capsys, "analyze", "--dataset", "missing",
                           "--data-root", tmp_path)
    assert code == 1
    assert "error:" in err


def test_train_without_validation_nodes_exits_one(data_root, tmp_path,
                                                  capsys):
    split = tmp_path / "no_val.json"
    split.write_text(json.dumps({"seed": 0, "mode": "custom",
                                 "train": list(range(40)), "validation": [],
                                 "test": list(range(40, 60))}))
    code, out, err = run_cli(capsys, "train", "--dataset", "toy",
                             "--data-root", data_root, "--split", split,
                             "--epochs", "5")
    assert code == 1
    assert out == ""
    assert "error: the validation set is empty" in err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_split_beyond_the_dataset_names_the_split(data_root, tmp_path, capsys,
                                                  command):
    split = tmp_path / "wide.json"
    split.write_text(json.dumps({"seed": 0, "mode": "custom",
                                 "train": list(range(40)),
                                 "validation": list(range(40, 50)),
                                 "test": [*range(50, 60), 99]}))
    ckpt = tmp_path / "toy.ckpt"
    cfg = model.TrainConfig(order=2, hidden=8)
    model.save_checkpoint(
        ckpt, model.init_params(cfg, 6, 3, np.random.default_rng(0)), cfg)
    flags = ["--checkpoint", ckpt, "--out-dir", tmp_path / "ev"]
    code, out, err = run_cli(capsys, command, "--dataset", "toy",
                             "--data-root", data_root, "--split", split,
                             *(flags if command == "eval" else []))
    assert (code, out) == (1, "")
    assert err == f"error: {split}: split references node 99 >= n=60\n"
    assert not (tmp_path / "ev").exists()


def _rewrite_header(src, dst, edit):
    """Copy checkpoint src to dst with ``edit`` applied to its JSON header:
    in place, or, where it returns one, a header to write instead."""
    raw = src.read_bytes()
    start = len(model.CHECKPOINT_MAGIC)
    (length,) = struct.unpack("<I", raw[start:start + 4])
    header = json.loads(raw[start + 4:start + 4 + length])
    replaced = edit(header)
    header = header if replaced is None else replaced
    blob = json.dumps(header).encode()
    dst.write_bytes(raw[:start] + struct.pack("<I", len(blob)) + blob
                    + raw[start + 4 + length:])


MALFORMED_HEADERS = {
    "unknown-config-key": lambda h: h["config"].update(extra=1),
    "missing-config-key": lambda h: h["config"].__delitem__("dp_p"),
    # same byte count, so only the shapes tell: 12 x 2 after 8 hidden units
    "w2-shape": lambda h: h["arrays"][2].__setitem__(1, [12, 2]),
    "filter-w-shape": lambda h: h["arrays"][4].__setitem__(1, [1, 3]),
    "mode-differs": lambda h: h.update(mode="sgc_like"),
    "renamed-array": lambda h: h["arrays"][0].__setitem__(0, "mlp.weight1"),
    "arrays-out-of-order": lambda h: h["arrays"].insert(0, h["arrays"].pop(1)),
    # the widths are read off mlp.w1 and mlp.w2, which must be matrices
    "w1-0d": lambda h: h["arrays"][0].__setitem__(1, []),
    "w2-0d": lambda h: h["arrays"][2].__setitem__(1, []),
    "float-shape": lambda h: h["arrays"][0].__setitem__(1, [6.0, 8]),
    # JSON, but not the v1 shape: these raised AttributeError or TypeError,
    # or a ValueError that did not name the file
    "list-header": lambda h: [h],
    "arrays-not-a-list": lambda h: h.update(arrays=5),
    "entry-not-a-list": lambda h: h.update(arrays=[5]),
    "entry-of-three": lambda h: h["arrays"][0].append(1),
    "shape-not-a-list": lambda h: h["arrays"][0].__setitem__(1, 3),
    # 10^10 rows at the feature width 10^10: the read raised MemoryError
    "huge-w1": lambda h: h["arrays"][0][1].__setitem__(0, 10 ** 10),
}


@pytest.mark.parametrize("case", sorted(MALFORMED_HEADERS))
def test_malformed_checkpoint_fails_with_its_path(data_root, tmp_path, capsys,
                                                  case):
    cfg = model.TrainConfig(order=3, hidden=8)
    params = model.init_params(cfg, 6, 3, np.random.default_rng(0))
    good, bad = tmp_path / "good.ckpt", tmp_path / "bad.ckpt"
    model.save_checkpoint(good, params, cfg)
    model.load_checkpoint(good)
    _rewrite_header(good, bad, MALFORMED_HEADERS[case])
    with pytest.raises(ValueError, match=re.escape(f"{bad}: ")):
        model.load_checkpoint(bad)
    code, out, err = run_cli(capsys, "eval", "--dataset", "toy",
                             "--data-root", data_root, "--checkpoint", bad,
                             "--out-dir", tmp_path / "reports")
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: {bad}: ")


@pytest.mark.skipif(not os.path.exists("/dev/stdin"),
                    reason="no /dev/stdin")
def test_piped_checkpoint_claiming_too_much_fails_in_one_line(tmp_path):
    # the header claims 10^10 rows of mlp.w1, 640 GB, which a pipe cannot
    # be asked its size for: the read raised MemoryError with a traceback
    cfg = model.TrainConfig(order=3, hidden=8)
    good, bad = tmp_path / "good.ckpt", tmp_path / "bad.ckpt"
    model.save_checkpoint(good, model.init_params(
        cfg, 6, 3, np.random.default_rng(0)), cfg)
    _rewrite_header(good, bad, MALFORMED_HEADERS["huge-w1"])
    read_end, write_end = os.pipe()
    with os.fdopen(write_end, "wb") as fh:  # a few KiB: the pipe holds it
        fh.write(bad.read_bytes())
    src = os.path.dirname(os.path.dirname(nodespec.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    with os.fdopen(read_end, "rb") as stdin:
        proc = subprocess.run(
            [sys.executable, "-m", "nodespec.cli", "filter-response",
             "--checkpoint", "/dev/stdin"], stdin=stdin, capture_output=True,
            text=True, timeout=60, env=dict(os.environ, PYTHONPATH=path))
    assert (proc.returncode, proc.stdout) == (1, "")
    assert re.fullmatch(r"error: /dev/stdin: truncated checkpoint: array "
                        rf"'mlp\.w1' needs {10 ** 10 * 8 * 8} bytes, \d+ "
                        r"remain\n", proc.stderr), proc.stderr


def test_misshapen_checkpoint_fails_filter_response_in_one_line(tmp_path,
                                                                capsys):
    cfg = model.TrainConfig(order=3, hidden=8)
    good, bad = tmp_path / "good.ckpt", tmp_path / "bad.ckpt"
    model.save_checkpoint(
        good, model.init_params(cfg, 6, 3, np.random.default_rng(0)), cfg)
    for case in ("list-header", "arrays-not-a-list", "entry-not-a-list",
                 "entry-of-three", "shape-not-a-list", "huge-w1"):
        _rewrite_header(good, bad, MALFORMED_HEADERS[case])
        code, out, err = run_cli(capsys, "filter-response", "--checkpoint",
                                 bad, "--out", tmp_path / "fr.csv")
        assert (code, out) == (1, ""), case
        assert err.startswith(f"error: {bad}: ") and err.count("\n") == 1, err
        assert "Traceback" not in err
        assert not (tmp_path / "fr.csv").exists()


# Configs that the TrainConfig rule rejects: the fields, the field that the
# message names, and the train and sweep flags that ask for them. None where
# no flag can: no flag sets lambda_max or writes a non-finite float (see
# test_float_flags_read_as_feature_cells), and sweep takes K and d from
# --orders and --ranks (see test_bad_counts_fail_before_any_output).
NAN, INF = float("nan"), float("inf")
REJECTED_CONFIGS = {
    "unknown-basis": ({"basis": "foo"}, "basis", ["--basis", "foo"]),
    "batch-default-mode": ({"batch_size": 8}, "batch_size",
                           ["--batch-size", "8"]),
    "batch-appnp": ({"mode": "appnp_like", "batch_size": 8}, "batch_size",
                    ["--mode", "appnp", "--batch-size", "8"]),
    "static-global": ({"mode": "global_only", "static_coefficients": True},
                      "static_coefficients", ["--mode", "global", "--static-h"]),
    "estimate-monomial": ({"basis": "monomial", "estimate_spectrum": True},
                          "estimate_spectrum",
                          ["--basis", "monomial", "--estimate-lambda-max"]),
    "estimate-bernstein": ({"basis": "bernstein", "estimate_spectrum": True},
                           "estimate_spectrum",
                           ["--basis", "bernstein", "--estimate-lambda-max"]),
    "lambda-bernstein": ({"basis": "bernstein", "lambda_max": 1.5},
                         "lambda_max", None),
    "lambda-monomial": ({"basis": "monomial", "lambda_max": 1.5},
                        "lambda_max", None),
    "lambda-estimated": ({"estimate_spectrum": True, "lambda_max": 1.5},
                         "lambda_max", None),
    "epochs-0": ({"epochs": 0}, "epochs", ["--epochs", "0"]),
    "hidden-0": ({"hidden": 0}, "hidden", ["--f-h", "0"]),
    "order-0": ({"order": 0}, "order", None),
    "rank-0": ({"rank": 0}, "rank", None),
    "patience-negative": ({"patience": -1}, "patience", ["--patience", "-1"]),
    "batch-0": ({"mode": "sgc_like", "batch_size": 0}, "batch_size",
                ["--mode", "sgc", "--batch-size", "0"]),
    "batch-negative": ({"mode": "sgc_like", "batch_size": -4}, "batch_size",
                       ["--mode", "sgc", "--batch-size", "-4"]),
    "dp_l-above-one": ({"dp_l": 1.5}, "dp_l", ["--dp-l", "1.5"]),
    "lambda-nan": ({"lambda_max": NAN}, "lambda_max", None),
    "lambda-inf": ({"lambda_max": INF}, "lambda_max", None),
    "lambda-negative": ({"lambda_max": -1.0}, "lambda_max", None),
    "lr_l-0": ({"lr_l": 0.0}, "lr_l", ["--lr-l", "0"]),
    "lr_l-negative": ({"lr_l": -0.1}, "lr_l", ["--lr-l", "-0.1"]),
    "lr_l-nan": ({"lr_l": NAN}, "lr_l", None),
    "lr_p-negative": ({"lr_p": -0.1}, "lr_p", ["--lr-p", "-0.1"]),
    "lr_p-inf": ({"lr_p": INF}, "lr_p", None),
    "l2-negative": ({"l2": -1e-4}, "l2", ["--l2", "-1e-4"]),
    "l2-nan": ({"l2": NAN}, "l2", None),
    "l2-inf": ({"l2": INF}, "l2", None),
}


@pytest.mark.parametrize("case", sorted(REJECTED_CONFIGS))
def test_rejected_config_fails_at_every_entry_point(data_root, tmp_path,
                                                     capsys, monkeypatch,
                                                     case):
    changes, field, flags = REJECTED_CONFIGS[case]
    with pytest.raises(ValueError, match=field):
        model.TrainConfig(**changes)

    # a checkpoint header holding it fails to load, with the path
    cfg = model.TrainConfig(order=3, hidden=8)
    params = model.init_params(cfg, 6, 3, np.random.default_rng(0))
    good, bad = tmp_path / "good.ckpt", tmp_path / "bad.ckpt"
    model.save_checkpoint(good, params, cfg)
    _rewrite_header(good, bad, lambda h: h["config"].update(changes))
    with pytest.raises(ValueError, match=re.escape(f"{bad}: invalid config: ")
                       + f".*{field}"):
        model.load_checkpoint(bad)
    code, out, err = run_cli(capsys, "eval", "--dataset", "toy",
                             "--data-root", data_root, "--checkpoint", bad,
                             "--out-dir", tmp_path / "reports")
    assert code == 1
    assert out == "" and err.startswith(f"error: {bad}: invalid config: ")
    if flags is None:
        return

    # from flags: a usage error before any file is read
    def read(*args, **kwargs):
        pytest.fail("read a file")

    for name in ("load_dataset", "load_split"):
        monkeypatch.setattr(nodespec.cli, name, read)
    for command in ("train", "sweep"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--dataset", "toy", "--data-root", str(data_root),
                  *flags])
        out = capsys.readouterr()
        assert exc.value.code == 2, command
        assert out.out == "" and "error: " in out.err and field in out.err


def test_train_config_is_frozen():
    cfg = model.TrainConfig()
    with pytest.raises(dataclasses.FrozenInstanceError):
        cfg.epochs = 0


@pytest.mark.parametrize("flag", ["--lr-l", "--lr-p", "--dp-l", "--dp-p",
                                  "--l2", "--alpha"])
@pytest.mark.parametrize("token, value", [
    ("0.05", 0.05), (".5", 0.5), ("5e-4", 5e-4), ("1_0", None),
    ("\u0660.\u0665", None), ("nan", None), ("inf", None)],
    ids=["plain", "leading-point", "exponent", "underscore", "arabic-indic",
         "nan", "inf"])
def test_float_flags_read_as_feature_cells(capsys, flag, token, value):
    # the rule of a feature cell: Python's float() would read 1_0 as 10 and
    # Arabic-Indic 0.5 as 0.5
    command = ["prop-sim", "--classes", "3"] if flag == "--alpha" else [
        "train"]
    argv = [*command, flag, token]
    if value is None:
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert (f"argument {flag}: not a finite float: {token!r}"
                in capsys.readouterr().err)
    else:
        args = build_parser().parse_args(argv)
        assert getattr(args, flag[2:].replace("-", "_")) == value


def test_feature_width_mismatch_names_the_checkpoint(data_root, tmp_path,
                                                     capsys):
    # an 8-feature model against the 6-feature toy dataset
    cfg = model.TrainConfig(order=3, hidden=8)
    params = model.init_params(cfg, 8, 3, np.random.default_rng(0))
    ckpt = tmp_path / "wide.ckpt"
    model.save_checkpoint(ckpt, params, cfg)
    message = "the model takes 8 features per node, the dataset has 6"
    with pytest.raises(ValueError, match=message):
        model.predict(params, load_named_dataset(data_root, "toy"), cfg)
    for command in (["eval", "--out-dir", tmp_path / "ev"],
                    ["filter-response", "--nodes", "0,3"]):
        code, out, err = run_cli(capsys, *command, "--dataset", "toy",
                                 "--data-root", data_root,
                                 "--checkpoint", ckpt)
        assert code == 1
        assert out == ""
        assert err == f"error: {ckpt}: {message}\n"


def test_zero_bins_fail_alike_in_analyze_and_eval(data_root, tmp_path,
                                                  capsys, monkeypatch):
    # argparse rejects --bins 0 before the dataset or checkpoint is read
    for name in ("load_dataset", "load_class_labels"):
        monkeypatch.setattr(nodespec.cli, name,
                            lambda *a, **k: pytest.fail("loaded the dataset"))
    errors = []
    for command in (["analyze"], ["eval", "--checkpoint", "absent.ckpt"]):
        with pytest.raises(SystemExit) as exc:
            main([str(a) for a in [*command, "--dataset", "toy",
                                   "--data-root", data_root, "--bins", "0",
                                   "--out-dir", tmp_path / "reports"]])
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        errors.append(out.err.splitlines()[-1].split(": ", 1)[1])
    assert errors == ["error: argument --bins: expected an integer >= 1, "
                      "got '0'"] * 2
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize("how", ["saved", "split-seed"])
def test_sweep_shares_a_saved_split(data_root, tmp_path, capsys,
                                    monkeypatch, how):
    path = tmp_path / "split.json"
    save_split(make_split(60, "sparse", seed=11), path)
    split_flags = {"saved": ["--split", path],
                   "split-seed": ["--split", "sparse", "--split-seed", 11]}
    runs = []
    train = model.train
    monkeypatch.setattr(model, "train", lambda ds, split, cfg: (
        runs.append((split, cfg.seed)) or train(ds, split, cfg)))
    code, _, err = run_cli(capsys, "sweep", "--dataset", "toy",
                           "--data-root", data_root, *split_flags[how],
                           "--orders", "1,2", "--ranks", "1", "--runs", "2",
                           "--epochs", "3", "--f-h", "8",
                           "--out", tmp_path / "sweep.csv")
    assert code == 0, err
    assert [seed for _, seed in runs] == [0, 1, 0, 1]
    want = load_split(path)
    for split, _ in runs:
        for part in ("train", "validation", "test"):
            np.testing.assert_array_equal(getattr(split, part),
                                          getattr(want, part))


def test_sweep_split_seed_picks_the_split(data_root, capsys, monkeypatch):
    splits, swept = [], []
    train = model.train
    monkeypatch.setattr(model, "train", lambda ds, split, cfg: (
        splits.append(split) or train(ds, split, cfg)))
    for split_seed in (5, 6):
        flags = ["--dataset", "toy", "--data-root", data_root, "--epochs",
                 "5", "--f-h", "8", "--seed", "3", "--split-seed", split_seed]
        code, out, err = run_cli(capsys, "sweep", *flags, "--orders", "2",
                                 "--ranks", "1", "--runs", "1")
        assert code == 0, err
        # the sweep's one run trains on the split its --split-seed draws
        swept.append(splits[-1])
        want = make_split(60, "dense", split_seed)
        for part in ("train", "validation", "test"):
            np.testing.assert_array_equal(getattr(swept[-1], part),
                                          getattr(want, part))
        # a one-run sweep row is the train run of the same flags
        code, summary, err = run_cli(capsys, "train", *flags, "--K", "2",
                                     "--d", "1")
        assert code == 0, err
        mean = float(out.splitlines()[1].split(",")[3])
        assert mean == json.loads(summary)["test_accuracy"]
    assert not np.array_equal(swept[0].train, swept[1].train)


def test_filter_response_node_out_of_range_exits_one(data_root, tmp_path,
                                                     capsys):
    ckpt = tmp_path / "toy.ckpt"
    code, _, _ = run_cli(capsys, "train", "--dataset", "toy",
                         "--data-root", data_root, "--K", "2", "--f-h", "8",
                         "--epochs", "2", "--checkpoint", ckpt)
    assert code == 0
    code, out, err = run_cli(capsys, "filter-response", "--checkpoint", ckpt,
                             "--dataset", "toy", "--data-root", data_root,
                             "--nodes", "3,5000")
    assert code == 1
    assert out == ""
    assert "error: node 5000 out of range for a graph with n = 60 nodes" in err


@pytest.mark.parametrize("argv", [
    ["eval", "--checkpoint", "absent.ckpt", "--pair-sample", "0"],
    ["eval", "--checkpoint", "absent.ckpt", "--pair-sample", "-5"],
    ["prop-sim", "--alpha", "0.5", "--classes", "3", "--samples", "0"],
    ["prop-sim", "--alpha", "0.5", "--classes", "3", "--samples", "1e3"]],
    ids=["pair-sample-0", "pair-sample-negative", "samples-0",
         "samples-float"])
def test_count_flags_fail_at_parse_time(data_root, tmp_path, capsys,
                                        monkeypatch, argv):
    # argparse rejects the count before a dataset is read
    monkeypatch.setattr(nodespec.cli, "load_dataset",
                        lambda *a, **k: pytest.fail("loaded the dataset"))
    extra = ([] if argv[0] == "prop-sim" else
             ["--dataset", "toy", "--data-root", data_root,
              "--out-dir", tmp_path / "out"])
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in [*argv, *extra]])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == "" and "expected an integer >= 1" in out.err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["train", "--dataset", "toy", "--K", "1_0"],
    ["train", "--dataset", "toy", "--seed", "٣"],
    ["train", "--dataset", "toy", "--epochs", "99999999999999999999"],
    ["oracle-check", "--n", "3.0"],
    ["prop-sim", "--alpha", "0.5", "--classes", "3", "--samples", "٣"],
    ["prop-sim", "--alpha", "0.5", "--classes", "3", "--samples", "1_000"]],
    ids=["underscore-order", "arabic-indic-seed", "beyond-int64-epochs",
         "float-n", "arabic-indic-samples", "underscore-samples"])
def test_integer_flags_take_only_decimal_int64_tokens(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert f"got {argv[-1]!r}" in capsys.readouterr().err


def test_integer_flags_still_read_plain_and_signed_tokens():
    args = build_parser().parse_args(["train", "--dataset", "toy", "--K",
                                      "10", "--seed", "-3", "--d", " 2 "])
    assert (args.order, args.seed, args.rank) == (10, -3, 2)
    args = build_parser().parse_args(["prop-sim", "--alpha", "0.5",
                                      "--classes", "3", "--samples", "+7"])
    assert args.samples == 7


@pytest.mark.parametrize("flags, token", [
    (["--coeffs", "nan,1"], "non-finite feature value: 'nan'"),
    (["--coeffs", "1_0,1"], "not a decimal float: '1_0'"),
    (["--coeffs", "1,"], "not a decimal float: ''"),
    (["--coeffs", "0,1", "--nodes", "1.5"],
     "not a decimal int64 node id: '1.5'"),
    (["--coeffs", "0,1", "--nodes", "3,True"],
     "not a decimal int64 node id: 'True'"),
    (["--coeffs", "0,1", "--nodes", "1_0"],
     "not a decimal int64 node id: '1_0'"),
    (["--coeffs", "1", "--nodes", ""], "not a decimal int64 node id: ''")],
    ids=["nan", "underscore", "empty", "float-node", "bool-node",
         "underscore-node", "empty-nodes"])
def test_filter_response_bad_tokens_exit_two(tmp_path, capsys, flags,
                                             token):
    out_csv = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(["filter-response", *flags, "--out", str(out_csv)])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("usage: nodespec filter-response ")
    assert out.err.endswith(f"error: argument {flags[-2]}: {token}\n")
    assert not out_csv.exists()


@pytest.mark.parametrize("flags, token", [
    (["--orders", "1_0"], "not a decimal int64 order: '1_0'"),
    (["--orders", "2,3.0"], "not a decimal int64 order: '3.0'"),
    (["--ranks", "1,"], "not a decimal int64 rank: ''"),
    (["--ranks", "True"], "not a decimal int64 rank: 'True'")],
    ids=["underscore-order", "float-order", "empty-rank", "bool-rank"])
def test_sweep_bad_grid_tokens_exit_two(data_root, tmp_path, capsys,
                                        monkeypatch, flags, token):
    # the grid is read before the dataset: --orders 1_0 is not K = 10
    monkeypatch.setattr(nodespec.cli, "load_dataset",
                        lambda *a, **k: pytest.fail("loaded the dataset"))
    out_csv = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", *flags, "--dataset", "toy", "--data-root",
              str(data_root), "--out", str(out_csv)])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.endswith(f"error: argument {flags[0]}: {token}\n")
    assert not out_csv.exists()


@pytest.mark.parametrize("flags", [["--K", "0"], ["--order", "3"],
                                   ["--d", "0"], ["--rank", "2"]])
def test_sweep_per_run_order_and_rank_flags_exit_two(data_root, tmp_path,
                                                     capsys, monkeypatch,
                                                     flags):
    # K and d come only from --orders and --ranks; --order and --rank are
    # not read as abbreviations of them
    monkeypatch.setattr(nodespec.cli, "load_dataset",
                        lambda *a, **k: pytest.fail("loaded the dataset"))
    out_csv = tmp_path / "out.csv"
    with pytest.raises(SystemExit) as exc:
        main(["sweep", *flags, "--orders", "2", "--ranks", "1", "--dataset",
              "toy", "--data-root", str(data_root), "--out", str(out_csv)])
    assert exc.value.code == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert f"unrecognized arguments: {' '.join(flags)}" in out.err
    assert not out_csv.exists()


def test_sweep_empty_grid_exits_two(data_root, tmp_path, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--orders", "", "--dataset", "toy", "--data-root",
              str(data_root), "--out", str(tmp_path / "out.csv")])
    assert exc.value.code == 2
    assert capsys.readouterr().err.endswith(
        "error: argument --orders: not a decimal int64 order: ''\n")
    assert not (tmp_path / "out.csv").exists()


def test_filter_response_negative_node_exits_one(data_root, tmp_path,
                                                 capsys):
    cfg = model.TrainConfig(order=2, hidden=8)
    ckpt = tmp_path / "toy.ckpt"
    model.save_checkpoint(
        ckpt, model.init_params(cfg, 6, 3, np.random.default_rng(0)), cfg)
    code, out, err = run_cli(capsys, "filter-response", "--checkpoint", ckpt,
                             "--dataset", "toy", "--data-root", data_root,
                             "--nodes", "3,-1", "--out", tmp_path / "r.csv")
    assert (code, out) == (1, "")
    assert err == "error: node -1 out of range for a graph with n = 60 nodes\n"
    assert not (tmp_path / "r.csv").exists()


def test_filter_response_uses_the_estimated_spectrum(dense_data_root,
                                                     tmp_path, capsys,
                                                     monkeypatch):
    data_root = dense_data_root
    ckpt = tmp_path / "toy.ckpt"
    code, _, _ = run_cli(capsys, "train", "--dataset", "toy",
                         "--data-root", data_root, "--K", "3", "--f-h", "8",
                         "--epochs", "2", "--estimate-lambda-max",
                         "--checkpoint", ckpt)
    assert code == 0
    params, cfg = model.load_checkpoint(ckpt)
    dataset = load_named_dataset(data_root, "toy")
    lambda_max = estimate_lambda_max(normalized_laplacian(dataset.graph))
    assert lambda_max < 1.99
    table = basis_matrix("chebyshev", 3, np.linspace(0.0, 2.0, 9), lambda_max)
    psi = model.node_coefficients(params, dataset, cfg)
    want = {"base_0": table @ params["filter.gamma"][:, 0],
            "node_0": table @ psi[0], "node_3": table @ psi[3]}

    estimates = []
    estimate = model.estimate_lambda_max
    monkeypatch.setattr(model, "estimate_lambda_max",
                        lambda *a: estimates.append(1) or estimate(*a))
    code, out, _ = run_cli(capsys, "filter-response", "--checkpoint", ckpt,
                           "--dataset", "toy", "--data-root", data_root,
                           "--nodes", "0,3", "--grid-points", "9")
    assert code == 0
    assert len(estimates) == 1
    got = {}
    for line in out.splitlines()[1:]:
        label, _, value = line.split(",")
        got.setdefault(label, []).append(float(value))
    assert got.keys() == want.keys()
    for label, values in want.items():
        np.testing.assert_array_equal(got[label], values)

    code, out, err = run_cli(capsys, "filter-response", "--checkpoint", ckpt)
    assert code == 1
    assert out == ""
    assert "error: " in err and "--dataset" in err


def test_one_class_labels_name_the_label_file(data_root, tmp_path, capsys):
    labels = tmp_path / "labels.txt"
    labels.write_text("0\n" * 60)
    code, out, err = run_cli(capsys, "analyze", "--edges",
                             data_root / "toy" / "edges.tsv", "--features",
                             data_root / "toy" / "features.csv", "--labels",
                             labels, "--out-dir", tmp_path / "reports")
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {labels}: need at least 2 classes")


def _toy_paths(data_root, tmp_path, features=None):
    """The toy dataset's three file flags, with ``features`` lines, if
    given, written to a feature file of their own."""
    feature_path = data_root / "toy" / "features.csv"
    if features is not None:
        feature_path = tmp_path / "features.csv"
        feature_path.write_text("".join(line + "\n" for line in features))
    return ["--edges", data_root / "toy" / "edges.tsv",
            "--features", feature_path,
            "--labels", data_root / "toy" / "labels.txt"]


def _toy_feature_rows(data_root):
    return (data_root / "toy" / "features.csv").read_text().splitlines()


def test_non_finite_features_exit_one(data_root, tmp_path, capsys):
    # train computes from every feature row, so it rejects a bad later one
    rows = _toy_feature_rows(data_root)
    rows[4] = "inf," + rows[4].split(",", 1)[1]
    flags = _toy_paths(data_root, tmp_path, rows)
    code, _, err = run_cli(capsys, "train", *flags, "--epochs", "1")
    assert code == 1
    assert f"error: {flags[3]}:5:1: non-finite feature value" in err


def test_analyze_reads_features_to_the_first_row(data_root, tmp_path,
                                                 capsys):
    # analyze reports no feature value: a bad cell past the first row, or a
    # missing row, goes unread, and the summary still has the width
    rows = _toy_feature_rows(data_root)
    rows[4] = "inf," + rows[4].split(",", 1)[1]
    for features in (rows, rows[:2]):
        code, out, err = run_cli(capsys, "analyze",
                                 *_toy_paths(data_root, tmp_path, features),
                                 "--out-dir", tmp_path / "reports")
        assert (code, err) == (0, "")
        assert json.loads(out)["features"] == 6


@pytest.mark.parametrize("first, message", [
    ("1.0,oops,2", "2:2: not a decimal float: 'oops'"),
    ("1.0,2.0,nan", "2:3: non-finite feature value: 'nan'")])
def test_analyze_rejects_a_bad_first_feature_row(data_root, tmp_path, capsys,
                                                 first, message):
    # the message load_dataset gives, after the comment line
    rows = ["# toy features", first, *_toy_feature_rows(data_root)[1:]]
    flags = _toy_paths(data_root, tmp_path, rows)
    for command in (["analyze", "--out-dir", tmp_path / "reports"],
                    ["train", "--epochs", "1"]):
        code, out, err = run_cli(capsys, command[0], *flags, *command[1:])
        assert (code, out) == (1, "")
        assert err == f"error: {flags[3]}:{message}\n"
    assert not (tmp_path / "reports").exists()


@pytest.mark.parametrize("lines", [[], ["# a comment", "", "# another"]],
                         ids=["empty", "comments-only"])
def test_analyze_rejects_a_feature_file_without_rows(data_root, tmp_path,
                                                     capsys, lines):
    flags = _toy_paths(data_root, tmp_path, lines)
    code, out, err = run_cli(capsys, "analyze", *flags,
                             "--out-dir", tmp_path / "reports")
    assert (code, out) == (1, "")
    assert err == f"error: {flags[3]}: no feature rows\n"


def _analyze_outputs(capsys, out_dir, *flags):
    """analyze's stdout and the bytes of its two reports."""
    code, out, err = run_cli(capsys, "analyze", *flags, "--out-dir", out_dir)
    assert (code, err) == (0, "")
    return [out.encode()] + [(out_dir / name).read_bytes()
                             for name in ("node_metrics.csv", "histograms.csv")]


def test_analyze_dataset_flags_equal_the_explicit_files(data_root, tmp_path,
                                                        capsys):
    by_dir = _analyze_outputs(capsys, tmp_path / "dir", "--dataset", "toy",
                              "--data-root", data_root)
    by_files = _analyze_outputs(capsys, tmp_path / "files", "--dataset", "toy",
                                *_toy_paths(data_root, tmp_path))
    assert by_dir == by_files
    summary = json.loads(by_dir[0])
    assert (summary["dataset"], summary["nodes"], summary["features"],
            summary["classes"]) == ("toy", 60, 6, 3)


def test_analyze_reports_equal_those_of_the_loaded_dataset(
        data_root, tmp_path, capsys, monkeypatch):
    # analyze given the parts of a full load_dataset writes the same bytes
    # as analyze reading its own parts
    flags = ["--dataset", "toy", "--data-root", data_root, "--bins", "4"]
    own = _analyze_outputs(capsys, tmp_path / "own", *flags)
    ds = load_named_dataset(data_root, "toy")
    monkeypatch.setattr(cli, "load_class_labels",
                        lambda path: (ds.labels, ds.class_count))
    monkeypatch.setattr(cli, "feature_width", lambda path: ds.feature_dim)
    monkeypatch.setattr(cli, "load_graph", lambda path, n: ds.graph)
    assert _analyze_outputs(capsys, tmp_path / "loaded", *flags) == own
    rep = homophily_report(ds.graph, ds.labels, ds.class_count, 4)
    assert json.loads(own[0]) == {
        "dataset": "toy", "nodes": ds.n, "edges": ds.graph.edge_count,
        "features": ds.feature_dim, "classes": ds.class_count,
        "graph_homophily": rep.graph_ratio}


@pytest.mark.parametrize("name, line", [
    ("edges.tsv", "0\t99999999999999999999"),
    ("labels.txt", "99999999999999999999"),
    ("edges.tsv", "0\t1_000"),
    ("labels.txt", "\u0663"),
])
def test_bad_integer_exits_one_with_line(data_root, tmp_path, capsys,
                                         name, line):
    paths = {f: data_root / "toy" / f
             for f in ("edges.tsv", "features.csv", "labels.txt")}
    rows = paths[name].read_text().splitlines()
    rows[2] = line
    paths[name] = tmp_path / name
    paths[name].write_text("\n".join(rows) + "\n")
    code, _, err = run_cli(capsys, "analyze", "--edges", paths["edges.tsv"],
                           "--features", paths["features.csv"],
                           "--labels", paths["labels.txt"],
                           "--out-dir", tmp_path / "reports")
    assert code == 1
    assert err.startswith(f"error: {paths[name]}:3: ")


def test_inductive_cli_split_roundtrip(data_root, tmp_path, capsys):
    ckpt = tmp_path / "ind.ckpt"
    split = tmp_path / "ind.json"
    code, _, _ = run_cli(capsys, "train", "--dataset", "toy",
                         "--data-root", data_root, "--split", "inductive",
                         "--K", "2", "--f-h", "8", "--epochs", "10",
                         "--patience", "10", "--seed", "5",
                         "--checkpoint", ckpt, "--save-split", split)
    assert code == 0
    code, out, _ = run_cli(capsys, "eval", "--dataset", "toy",
                           "--data-root", data_root, "--checkpoint", ckpt,
                           "--split", split, "--out-dir", tmp_path / "ev2")
    assert code == 0
    payload = json.loads(out)
    assert "observed_test_accuracy" in payload
    assert "unobserved_test_accuracy" in payload
