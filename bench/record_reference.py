"""Record the reference values that the mc_small check compares against.

    python3 bench/record_reference.py

Runs every (setting, master seed) experiment call the mc_small workload can
draw and writes, per call, the excluded count, the mean and std of each
location statistic and the nominal pair evaluations (iterations times
n^2, both modes) to bench/mc_reference.json. Run it only on a commit whose
results are trusted: the workload treats these values as ground truth.
"""

from __future__ import annotations

import json
import platform
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))

import numpy as np  # noqa: E402

import blurshift  # noqa: E402
import blurshift.cli  # noqa: E402,F401  (loads every module the tracer patches)
import tracing  # noqa: E402
from workloads import McSmall  # noqa: E402

MASTER_SEEDS = list(range(64))


def main() -> int:
    workload = McSmall(blurshift)
    calls = {}
    for master in MASTER_SEEDS:
        for kind, tau in McSmall.SETTINGS:
            config = blurshift.experiments.ExperimentConfig(
                kind=kind,
                tau=tau,
                n_points=McSmall.N_POINTS,
                replications=McSmall.REPS_PER_CALL,
                seed=master,
            )
            tracer = tracing.Tracer()
            with tracing.patched(blurshift, tracer):
                report = workload._call(config)
            layers = tracing.layer_metrics(tracer, 0, len(tracer))
            entry = {"excluded": report.excluded_replications}
            for stat in ("sample_mean", "blurring", "nonblurring"):
                summary = getattr(report, stat)
                entry[stat] = {"mean": summary.mean, "std": summary.std}
            entry["pairs"] = int(layers["engine.run.iterations"]) * McSmall.N_POINTS**2
            calls[McSmall.key(kind, tau, master)] = entry
        print(f"master seed {master} recorded", file=sys.stderr)
    payload = {
        "recorded_with": {
            "blurshift": blurshift.__version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "n_points": McSmall.N_POINTS,
        "replications": McSmall.REPS_PER_CALL,
        "master_seeds": MASTER_SEEDS,
        "calls": calls,
    }
    (BENCH / "mc_reference.json").write_text(json.dumps(payload, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
