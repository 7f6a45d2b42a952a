"""Span recording for the traced benchmark run.

``Tracer`` keeps spans in flat arrays (name, start, end, parent and two
numeric attributes) and writes them once, when the run ends. ``patched``
wraps the public entry points of each blurshift module at every name a
caller looks them up by, so ``blurshift.experiments.run`` and
``blurshift.cli.radius_trace`` are traced as well as their home modules.
Private helpers are never wrapped: their cost lands in the self time of
the public function that calls them.

``layer_metrics`` turns the spans of one traced pass into the per-layer
metrics listed in ``LAYER_METRICS``.
"""

from __future__ import annotations

import contextlib
import csv
import gzip
import json
import os
import time
from array import array

import numpy as np

# span names recorded by the benchmark itself, not by the package
PASS = "bench.pass"
OP = "bench.op"

# cli.main spans carry the command as their first attribute
CLI_COMMANDS = {1: "cluster_blurring", 2: "cluster_nonblurring", 3: "diagnose"}

# per-layer metric -> unit, in report order
LAYER_METRICS = {
    "kernels.evaluate_sq.calls": "count",
    "kernels.evaluate_sq.elems": "count",
    "kernels.evaluate_sq.s": "s",
    "kernels.evaluate_sq.ns_per_elem": "ns",
    "engine.blurring_step.calls": "count",
    "engine.blurring_step.pairs": "count",
    "engine.blurring_step.s": "s",
    "engine.blurring_step.ns_per_pair": "ns",
    "engine.blurring_step.cliff_3000_3001": "ratio",
    "engine.nonblurring_step.calls": "count",
    "engine.nonblurring_step.pairs": "count",
    "engine.nonblurring_step.s": "s",
    "engine.nonblurring_step.ns_per_pair": "ns",
    "engine.run.calls": "count",
    "engine.run.s": "s",
    "engine.run.self_s": "s",
    "engine.run.self_us_per_iter": "us",
    "engine.run.iterations": "count",
    "engine.run.capped": "count",
    "engine.extract_clusters.calls": "count",
    "engine.extract_clusters.s": "s",
    "engine.extract_clusters.clusters": "count",
    "experiments.replications": "count",
    "experiments.excluded": "count",
    "experiments.self_s": "s",
    "fileio.read_points_csv.s": "s",
    "fileio.write_result_json.s": "s",
    "fileio.write_trace_csv.s": "s",
    "fileio.bytes_written": "bytes",
    "diagnostics.radius_trace.s": "s",
    "diagnostics.hull_trace.s": "s",
    "diagnostics.directional_containment.s": "s",
    "diagnostics.influence_decay.s": "s",
    "cli.cluster_blurring.s": "s",
    "cli.cluster_nonblurring.s": "s",
    "cli.diagnose.s": "s",
    "cli.main.self_s": "s",
    "trace.overhead_s": "s",
    "trace.unattributed_s": "s",
    "known_defect.extra_clusters": "count",
}


class Tracer:
    """Append-only span store. Spans nest by call order on one thread."""

    def __init__(self):
        self.names = []
        self._ids = {}
        self.name = array("i")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.v1 = array("d")
        self.v2 = array("d")
        self._stack = []

    def __len__(self):
        return len(self.name)

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, name_id: int, v1: float = 0.0) -> int:
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.v1.append(v1)
        self.v2.append(0.0)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(time.perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = time.perf_counter()
        self._stack.pop()

    def write(self, path, env: dict) -> None:
        """All spans as gzipped CSV (index, name, start, end, parent, v1,
        v2) after a ``# {env JSON}`` line."""
        with gzip.open(path, "wt", newline="") as fh:
            fh.write("# " + json.dumps(env) + "\n")
            out = csv.writer(fh)
            out.writerow(["span", "name", "start", "end", "parent", "v1", "v2"])
            for i in range(len(self.name)):
                out.writerow([
                    i, self.names[self.name[i]], repr(self.start[i]),
                    repr(self.end[i]), self.parent[i], repr(self.v1[i]),
                    repr(self.v2[i]),
                ])


def _arg(args, kwargs, pos, name):
    return args[pos] if len(args) > pos else kwargs[name]


def _run_post(tracer, idx, result, args, kwargs):
    trace = result[1]
    config = _arg(args, kwargs, 1, "config")
    tracer.v1[idx] = trace.iterations
    tracer.v2[idx] = float(
        not trace.converged and trace.iterations >= config.max_iterations
    )


def _clusters_post(tracer, idx, result, args, kwargs):
    tracer.v1[idx] = result.n_clusters


def _experiment_pre(args, kwargs):
    return _arg(args, kwargs, 0, "config").replications


def _experiment_post(tracer, idx, result, args, kwargs):
    tracer.v2[idx] = result.excluded_replications


def _bytes_post(tracer, idx, result, args, kwargs):
    tracer.v1[idx] = os.path.getsize(_arg(args, kwargs, 0, "path"))


def _cli_pre(args, kwargs):
    argv = list(_arg(args, kwargs, 0, "argv") or [])
    if argv[:1] == ["cluster"]:
        nonblurring = "--mode" in argv and argv[argv.index("--mode") + 1] == "nonblurring"
        return 2 if nonblurring else 1
    return 3 if argv[:1] == ["diagnose"] else 0


# (module, attribute, span name, pre(args, kwargs) -> v1,
#  post(tracer, idx, result, args, kwargs))
_TARGETS = (
    ("kernels", "Kernel.evaluate_sq", "kernels.evaluate_sq",
     lambda a, k: np.size(_arg(a, k, 1, "sq_distances")), None),
    ("engine", "blurring_step", "engine.blurring_step",
     lambda a, k: _arg(a, k, 0, "points").n ** 2, None),
    ("engine", "nonblurring_step", "engine.nonblurring_step",
     lambda a, k: np.shape(_arg(a, k, 0, "centers"))[0] * _arg(a, k, 1, "data").n,
     None),
    ("engine", "run", "engine.run", None, _run_post),
    ("engine", "extract_clusters", "engine.extract_clusters", None, _clusters_post),
    ("experiments", "run_efficiency", "experiments.run_efficiency",
     _experiment_pre, _experiment_post),
    ("experiments", "run_robustness", "experiments.run_robustness",
     _experiment_pre, _experiment_post),
    ("fileio", "read_points_csv", "fileio.read_points_csv", None, None),
    ("fileio", "write_result_json", "fileio.write_result_json", None, _bytes_post),
    ("fileio", "write_trace_csv", "fileio.write_trace_csv", None, _bytes_post),
    ("diagnostics", "radius_trace", "diagnostics.radius_trace", None, None),
    ("diagnostics", "hull_trace", "diagnostics.hull_trace", None, None),
    ("diagnostics", "directional_containment",
     "diagnostics.directional_containment", None, None),
    ("diagnostics", "influence_decay", "diagnostics.influence_decay", None, None),
    ("cli", "main", "cli.main", _cli_pre, None),
)


def _wrap(tracer, span, fn, pre, post):
    nid = tracer.name_id(span)

    def traced(*args, **kwargs):
        idx = tracer.open(nid, pre(args, kwargs) if pre else 0.0)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if post:
            post(tracer, idx, result, args, kwargs)
        return result

    return traced


@contextlib.contextmanager
def patched(package, tracer):
    """Wrap every target at each name it is bound to in the package's
    modules, and restore the originals on exit."""
    modules = [package] + [
        m for m in vars(package).values()
        if type(m) is type(package) and m.__name__.startswith(package.__name__ + ".")
    ]
    undo = []
    try:
        for mod_name, attr, span, pre, post in _TARGETS:
            home = getattr(package, mod_name)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, _wrap(tracer, span, original, pre, post))
                undo.append((cls, meth, original))
                continue
            original = getattr(home, attr)
            wrapper = _wrap(tracer, span, original, pre, post)
            for mod in modules:
                for name, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, name, wrapper)
                        undo.append((mod, name, original))
        yield
    finally:
        for owner, name, original in reversed(undo):
            setattr(owner, name, original)


def cliff_ratio(tracer: Tracer, lo: int, hi: int, ops) -> float:
    """Blurring-step time per pair of op ``ops[0]`` over that of ``ops[1]``,
    each given as (op index, n), from the spans of one pass in [lo, hi)."""
    op, step = tracer.name_id(OP), tracer.name_id("engine.blurring_step")
    seconds = {}
    for i in range(lo, hi):
        parent = tracer.parent[i]
        if tracer.name[i] == step and parent >= 0 and tracer.name[parent] == op:
            k = int(tracer.v1[parent])
            seconds[k] = seconds.get(k, 0.0) + tracer.end[i] - tracer.start[i]
    (k_low, n_low), (k_high, n_high) = ops
    return (seconds[k_low] / n_low**2) / (seconds[k_high] / n_high**2)


def layer_metrics(tracer: Tracer, lo: int, hi: int) -> dict:
    """Per-layer metrics from spans [lo, hi), which must hold one whole
    pass. Excludes the two that need the untraced run or the workload
    (``trace.overhead_s`` and the cliff ratio)."""
    name = np.frombuffer(tracer.name, dtype=np.int32)[lo:hi]
    dur = (np.frombuffer(tracer.end) - np.frombuffer(tracer.start))[lo:hi]
    parent = np.frombuffer(tracer.parent, dtype=np.int32)[lo:hi] - lo
    v1 = np.frombuffer(tracer.v1)[lo:hi]
    v2 = np.frombuffer(tracer.v2)[lo:hi]
    nested = parent >= 0
    child = np.bincount(parent[nested], weights=dur[nested], minlength=hi - lo)
    self_time = dur - child

    def sel(span):
        return name == tracer.name_id(span)

    def ratio(num, den, scale):
        return num / den * scale if den else 0.0

    out = {}
    ev, bl, nb = sel("kernels.evaluate_sq"), sel("engine.blurring_step"), sel(
        "engine.nonblurring_step"
    )
    out["kernels.evaluate_sq.calls"] = int(ev.sum())
    out["kernels.evaluate_sq.elems"] = float(v1[ev].sum())
    out["kernels.evaluate_sq.s"] = float(dur[ev].sum())
    out["kernels.evaluate_sq.ns_per_elem"] = ratio(
        out["kernels.evaluate_sq.s"], out["kernels.evaluate_sq.elems"], 1e9
    )
    for key, mask in (("engine.blurring_step", bl), ("engine.nonblurring_step", nb)):
        out[f"{key}.calls"] = int(mask.sum())
        out[f"{key}.pairs"] = float(v1[mask].sum())
        out[f"{key}.s"] = float(dur[mask].sum())
        out[f"{key}.ns_per_pair"] = ratio(out[f"{key}.s"], out[f"{key}.pairs"], 1e9)
    run = sel("engine.run")
    out["engine.run.calls"] = int(run.sum())
    out["engine.run.s"] = float(dur[run].sum())
    out["engine.run.self_s"] = float(self_time[run].sum())
    out["engine.run.iterations"] = float(v1[run].sum())
    out["engine.run.self_us_per_iter"] = ratio(
        out["engine.run.self_s"], out["engine.run.iterations"], 1e6
    )
    out["engine.run.capped"] = float(v2[run].sum())
    ex = sel("engine.extract_clusters")
    out["engine.extract_clusters.calls"] = int(ex.sum())
    out["engine.extract_clusters.s"] = float(dur[ex].sum())
    out["engine.extract_clusters.clusters"] = float(v1[ex].sum())
    exp = sel("experiments.run_efficiency") | sel("experiments.run_robustness")
    out["experiments.replications"] = float(v1[exp].sum())
    out["experiments.excluded"] = float(v2[exp].sum())
    out["experiments.self_s"] = float(self_time[exp].sum())
    for fn in ("read_points_csv", "write_result_json", "write_trace_csv"):
        out[f"fileio.{fn}.s"] = float(dur[sel(f"fileio.{fn}")].sum())
    writes = sel("fileio.write_result_json") | sel("fileio.write_trace_csv")
    out["fileio.bytes_written"] = float(v1[writes].sum())
    for fn in ("radius_trace", "hull_trace", "directional_containment", "influence_decay"):
        out[f"diagnostics.{fn}.s"] = float(dur[sel(f"diagnostics.{fn}")].sum())
    cli = sel("cli.main")
    for code, command in CLI_COMMANDS.items():
        out[f"cli.{command}.s"] = float(dur[cli & (v1 == code)].sum())
    out["cli.main.self_s"] = float(self_time[cli].sum())
    harness = sel(PASS) | sel(OP)
    out["trace.unattributed_s"] = float(self_time[harness].sum())
    return out
