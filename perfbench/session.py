"""One workload session in this process: set-up, a timed closed loop, checks.

The loop has one client that issues the next call only after the previous
one returned: train, then ``predict_calls`` predicts, then ``nodespec
analyze`` and ``nodespec eval`` run in-process through ``cli.main``. After
one untimed warm-up cycle it repeats while less than ``seconds`` have
passed, at least once. Only the
package's public API is called. Every timed call has a host-speed probe
before it (``speed.py``), and its time is reported in reference seconds.
The output checks compare the package's results with references that the
generator computed with numpy and ``scipy.sparse`` (``reference.py``).
"""

import contextlib
import io
import json
import os
import resource
import statistics
import sys
import time
import traceback

import numpy as np

from nodespec import cli, data, evaluate, model, polyfilter

import layers
import reference
import speed
from csbm import dataset_paths
from tracer import Tracer

SETUP_REPS = 5
UNTRACED_TRAINS = 4   # in a traced run, for the overhead ratio
ACC_FLOOR = 0.5       # lowest test accuracy accepted; five classes give 0.2
CHEB_PROBE_TOL = 1e-10
EXACT_TOL = 1e-12

# end-to-end metric -> (unit, timed operation or None)
END_TO_END = {
    "setup_s": ("s", "setup"), "train_s": ("s", "train"),
    "predict_s": ("s", "predict"), "analyze_s": ("s", "analyze"),
    "eval_s": ("s", "eval"), "test_acc": ("fraction", None),
    "peak_rss_mb": ("MiB", None),
}
END_TO_END_UNITS = {name: unit for name, (unit, _) in END_TO_END.items()}


class Ledger:
    """Timed operations: their durations, the probes around them, and
    whether each succeeded."""

    def __init__(self, untraced=contextlib.nullcontext):
        self.samples = {}  # name -> [(seconds, index of the probe before)]
        self.probes = []
        self.ops = []      # [name, ok] per attempted operation
        self.problems = []
        # Checks run inside this context, so a traced run does not count
        # the benchmark's own calls into the package as layer time.
        self.untraced = untraced

    def call(self, name, fn, *args, **kwargs):
        """Time fn(*args); on a raise, count a failure and return None."""
        self.ops.append([name, True])
        self.probes.append(speed.probe())
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        except Exception:  # the loop must go on and report the failure
            self.ops[-1][1] = False
            self.problems.append(f"{name}: {traceback.format_exc()}")
            return None
        self.samples.setdefault(name, []).append(
            (time.perf_counter() - start, len(self.probes) - 1))
        return result

    def discard(self, names):
        """Forget the times of warm-up calls; they still count as attempted."""
        for name in names:
            self.samples.pop(name, None)

    def close(self):
        """The probe after the last timed call."""
        self.probes.append(speed.probe())

    def skip(self, name, why):
        """An operation that could not run because an earlier one failed."""
        self.ops.append([name, False])
        self.problems.append(f"{name}: skipped, {why}")

    def check(self, ok, what):
        """A failed output check fails the most recent operation."""
        if not ok:
            self.ops[-1][1] = False
            self.problems.append(f"{self.ops[-1][0]}: check failed: {what}")

    def verify(self, what, fn, *args):
        """Run a check that returns a bool; a raise counts as a failure."""
        try:
            with self.untraced():
                ok = fn(*args)
        except Exception:  # a broken output must be reported, not crash
            ok = False
            what = f"{what}: {traceback.format_exc()}"
        self.check(ok, what)

    @property
    def failed(self):
        return sum(1 for _, ok in self.ops if not ok)

    def raw(self, name):
        return [seconds for seconds, _ in self.samples.get(name, [])]

    def dump(self, path):
        """Write every timed call's raw seconds and its two probes."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({name: [[seconds, self.probes[i], self.probes[i + 1]]
                              for seconds, i in calls]
                       for name, calls in self.samples.items()}, fh)

    def scaled(self, name):
        """Reference seconds of each call; needs ``close`` first."""
        return [speed.scaled(seconds, self.probes[i], self.probes[i + 1])
                for seconds, i in self.samples.get(name, [])]


def _median(values):
    return statistics.median(values) if values else 0.0


def _cli(argv):
    """``nodespec <argv>`` in-process; returns its JSON summary from stdout."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError(f"nodespec {argv[0]} exited {code}")
    return json.loads(out.getvalue())


def _load_inputs(paths, seed):
    ds = data.load_dataset(*paths["train"], name="train")
    split = data.make_split(ds.n, "dense", seed)
    infer = (data.load_dataset(*paths["infer"], name="infer")
             if "infer" in paths else None)
    return ds, split, infer


class Session:
    def __init__(self, workload, seed, seconds, work_dir,
                 untraced=contextlib.nullcontext):
        self.w = workload
        self.seed = seed
        self.seconds = seconds
        self.work_dir = work_dir
        self.paths = {name: dataset_paths(os.path.join(work_dir, name))
                      for name in workload.graphs}
        self.target = "infer" if "infer" in workload.graphs else "train"
        self.refs = {name: reference.load(os.path.join(work_dir, name))
                     for name in workload.graphs}
        self.cfg = model.TrainConfig(**workload.train, epochs=workload.epochs,
                                     patience=workload.epochs, seed=seed)
        self.ledger = Ledger(untraced)
        self.test_acc = None
        self.inputs = None
        self.peak_rss_mb = 0.0

    def setup(self):
        for _ in range(SETUP_REPS):
            loaded = self.ledger.call("setup", _load_inputs, self.paths,
                                      self.seed)
            if loaded is None:
                return False
            self.inputs = loaded
        return True

    def run(self):
        if self.setup():
            # One cycle before the timed loop: the first calls in a process
            # page in fresh memory and run slower than every later one.
            self.cycle()
            self.ledger.discard(("train", "predict", "analyze", "eval"))
            start = time.perf_counter()
            while True:
                self.cycle()
                if time.perf_counter() - start >= self.seconds:
                    break
        self.ledger.close()
        # ru_maxrss is in KiB on Linux. Read before the probe check, whose
        # operator and stack are the benchmark's, not the session's.
        self.peak_rss_mb = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if self.inputs is not None:
            self.ledger.ops.append(["chebyshev-probe", True])
            self.ledger.verify(
                "Chebyshev probe differs from the scipy recursion",
                self.chebyshev_matches)

    def cycle(self):
        w, cfg, led = self.w, self.cfg, self.ledger
        ds, split, infer = self.inputs
        target = infer if infer is not None else ds
        scored = np.arange(target.n) if infer is not None else split.test

        result = led.call("train", model.train, ds, split, cfg)
        if result is not None:
            history = np.array([row[1:] for row in result.history], dtype=float)
            led.check(result.epochs_run == w.epochs and history.size > 0
                      and bool(np.all(np.isfinite(history))),
                      "history not finite or shorter than the epoch count")
            checkpoint = os.path.join(self.work_dir, "model.ckpt")
            model.save_checkpoint(checkpoint, result.params, cfg)

        train_graph_acc = None  # accuracy on the training graph's test nodes
        for _ in range(w.predict_calls):
            if result is None:
                led.skip("predict", "training failed")
                continue
            out = led.call("predict", model.predict, result.params, target, cfg)
            if out is not None:
                preds, logits = out
                self.test_acc = evaluate.accuracy(preds, target.labels, scored)
                if infer is None:
                    train_graph_acc = self.test_acc
                led.check(bool(np.all(np.isfinite(logits))), "logits not finite")
                led.check(self.test_acc >= ACC_FLOOR,
                          f"test accuracy {self.test_acc} < {ACC_FLOOR}")

        edges, feats, labels = self.paths["train"]
        reports = os.path.join(self.work_dir, "reports")
        given = ["--edges", edges, "--features", feats, "--labels", labels,
                 "--out-dir", reports]
        summary = led.call("analyze", _cli, ["analyze", *given])
        if summary is not None:
            led.verify("analyze output differs from the scipy reference",
                       self.analyze_matches, summary, reports)

        if result is None:
            led.skip("eval", "training failed")
            return
        summary = led.call("eval", _cli, [
            "eval", *given, "--checkpoint", checkpoint, "--split", "dense",
            "--split-seed", str(self.seed),
            "--pair-sample", str(w.pair_sample)])
        if summary is not None:
            led.verify("eval test accuracy differs from predict",
                       self.eval_matches, summary, result.params,
                       train_graph_acc)

    def analyze_matches(self, summary, reports):
        """Per-node h1 and graph homophily equal the scipy reference."""
        ref = self.refs["train"]
        table = np.loadtxt(os.path.join(reports, "node_metrics.csv"),
                           delimiter=",", skiprows=1, usecols=(0, 1), ndmin=2)
        reported = table[:, 1]
        return (table.shape[0] == ref["h1"].size
                and np.array_equal(np.isnan(reported), np.isnan(ref["h1"]))
                and np.allclose(reported, ref["h1"], rtol=0.0, atol=EXACT_TOL,
                                equal_nan=True)
                and abs(summary["graph_homophily"] - float(
                    ref["graph_homophily"])) <= EXACT_TOL)

    def eval_matches(self, summary, params, want):
        """``eval``'s test accuracy equals that of ``predict``; ``want`` is
        None when no predict of this cycle ran on the training graph."""
        if want is None:
            ds, split, _ = self.inputs
            want = evaluate.accuracy(model.predict(params, ds, self.cfg)[0],
                                     ds.labels, split.test)
        return abs(summary["test_accuracy"] - want) <= EXACT_TOL

    def chebyshev_matches(self):
        """A probe's Chebyshev stack on the predicted graph from
        ``polyfilter.propagate`` equals the scipy CSR recursion."""
        ds, _, infer = self.inputs
        target = infer if infer is not None else ds
        ref = self.refs[self.target]
        order = reference.PROBE_ORDER
        op = model.build_operator(target.graph, model.TrainConfig(
            basis="chebyshev", order=order,
            lambda_max=reference.PROBE_LAMBDA_MAX))
        stack = polyfilter.propagate("chebyshev", op, ref["probe"], order)
        return len(stack.layers) == order + 1 and all(
            float(np.max(np.abs(got - want))) <= CHEB_PROBE_TOL
            for got, want in zip(stack.layers, ref["chebyshev"]))

    def end_to_end(self):
        """(metrics, lines): metric values and one report line per metric."""
        led = self.ledger
        metrics, lines = {}, []
        for name, (unit, op) in END_TO_END.items():
            if op is None:
                continue
            values = led.scaled(op)
            metrics[name] = _median(values)
            lines.append(f"{name}: {len(values)} calls, median "
                         f"{metrics[name]:.4f} reference s (max "
                         f"{max(values, default=0.0):.4f}), raw median "
                         f"{_median(led.raw(op)):.4f} s")
        metrics["test_acc"] = self.test_acc if self.test_acc is not None else 0.0
        metrics["peak_rss_mb"] = self.peak_rss_mb
        probes = led.probes
        lines.append(f"probe: {len(probes)} runs, median {_median(probes):.5f} "
                     f"s, range {min(probes):.5f}-{max(probes):.5f} s, "
                     f"reference {speed.REFERENCE_S} s")
        return metrics, lines


def run(workload, seed, seconds, trace, work_dir):
    """Run one session; returns (correct, attempted, failed, metrics, units)."""
    tracer = Tracer(f"{workload.name}-{seed}-{os.getpid()}")
    session = Session(workload, seed, seconds, work_dir, tracer.paused)
    if trace:
        # Untraced trains for the tracing overhead ratio, in reference
        # seconds like the traced ones. The first warms up and is dropped.
        inputs = _load_inputs(session.paths, seed)
        untraced = Ledger()
        for _ in range(UNTRACED_TRAINS):
            untraced.call("train", model.train, inputs[0], inputs[1],
                          session.cfg)
        untraced.close()
        del inputs
        layers.install(tracer)
        try:
            session.run()
        finally:
            tracer.restore()
        overhead = (_median(session.ledger.scaled("train"))
                    / _median(untraced.scaled("train")[1:]))
        metrics = layers.layer_metrics(tracer.spans, overhead)
        tracer.write(os.path.join(work_dir, "trace.json"),
                     {"workload": workload.name, "seed": seed,
                      "metrics": metrics})
        if tracer.absent:
            print("absent layers: " + ", ".join(tracer.absent))
        units = layers.UNITS
    else:
        session.run()
        metrics, lines = session.end_to_end()
        print("\n".join(lines))
        units = END_TO_END_UNITS
    led = session.ledger
    led.dump(os.path.join(work_dir, "samples.json"))
    for problem in led.problems:
        print(problem, file=sys.stderr)
    correct = led.failed == 0 and len(led.ops) > 0
    return correct, len(led.ops), led.failed, metrics, units
