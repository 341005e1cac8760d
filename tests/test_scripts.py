"""The conversion scripts are load-bearing for the dataset-gated acceptance
criteria, so exercise them on fabricated miniature inputs."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np

import nodespec
from nodespec.data import load_named_dataset
from nodespec.homophily import graph_homophily

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def run_script(name, *argv):
    # the scripts import the package this test imported, installed or not
    src = str(Path(nodespec.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    return subprocess.run([sys.executable, str(SCRIPTS / name), *argv],
                          env=env, capture_output=True, text=True, check=True)


def test_convert_planetoid_roundtrip(tmp_path):
    content = tmp_path / "mini.content"
    cites = tmp_path / "mini.cites"
    content.write_text(
        "paperA\t1\t0\t0\tml\n"
        "paperB\t0\t1\t0\tdb\n"
        "paperC\t0\t0\t1\tml\n"
        "paperD\t1\t1\t0\tdb\n")
    cites.write_text(
        "paperA\tpaperB\n"
        "paperB\tpaperA\n"          # duplicate orientation collapses
        "paperC\tpaperD\n"
        "paperC\tghost\n")          # dangling id dropped
    out = run_script("convert_planetoid.py", "--content", content,
                     "--cites", cites, "--out", tmp_path / "mini")
    assert "dropped 1 dangling" in out.stdout
    ds = load_named_dataset(tmp_path, "mini")
    assert ds.n == 4
    assert ds.graph.edge_count == 2
    assert ds.class_count == 2
    # labels map by sorted class string: db=0, ml=1
    assert ds.labels.tolist() == [1, 0, 1, 0]
    np.testing.assert_allclose(ds.features[3], [1.0, 1.0, 0.0])
    assert graph_homophily(ds.graph, ds.labels) == 0.0  # both edges cross-class


def test_convert_geomgcn_roundtrip(tmp_path):
    edges = tmp_path / "out1_graph_edges.txt"
    feats = tmp_path / "out1_node_feature_label.txt"
    edges.write_text("id1\tid2\n0\t1\n1\t2\n2\t0\n0\t1\n")
    feats.write_text(
        "node_id\tfeature\tlabel\n"
        "0\t1,0,1\t0\n"
        "1\t0,1,0\t1\n"
        "2\t1,1,1\t0\n")
    run_script("convert_geomgcn.py", "--edges", edges, "--features", feats,
               "--out", tmp_path / "web")
    ds = load_named_dataset(tmp_path, "web")
    assert ds.n == 3
    assert ds.graph.edge_count == 3
    assert ds.labels.tolist() == [0, 1, 0]
    np.testing.assert_allclose(ds.features[2], [1.0, 1.0, 1.0])
