"""Fresh-interpreter side of the pipeline benchmark.

``worker.py setup`` imports ``repro`` and runs the warm-up, nothing
else; the parent times the launch from start to exit as one
``setup_s`` sample.

``worker.py run WORKLOAD --seed N --seconds S [--smoke] [--trace]
[--spans PATH]`` warms up, then repeats the workload's unit until the
window of ``S`` seconds would be overrun (at least once; at least twice
when traced) and prints one JSON object as its last line.  An untraced
run times every unit's steps against the yardstick
(:mod:`benchmarks.pipeline.yardstick`).  A traced run runs no
yardstick and alternates untraced and traced units, so the tracing
overhead is measured in the same process on the same inputs.
"""

from __future__ import annotations

import argparse
import json
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import repro  # noqa: E402
from benchmarks.pipeline import tracing  # noqa: E402
from benchmarks.pipeline.workloads import WORKLOADS, warm_up  # noqa: E402
from benchmarks.pipeline.yardstick import Stopwatch  # noqa: E402


def _peak_rss_mb() -> float:
    """``ru_maxrss`` of this process plus its reaped shard workers."""
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (usage + children) / 1024.0


def run_window(name: str, seed: int, seconds: float, smoke: bool,
               trace: bool, spans_path, workdir: Path) -> dict:
    workload = WORKLOADS[name]
    sizes = workload.sizes["smoke" if smoke else "full"]
    units, walls, traced_walls, per_unit_layers = [], [], [], []
    timings = []
    missing = []
    spans_out = open(spans_path, "a") if spans_path else None
    started = time.perf_counter()
    try:
        while True:
            traced = trace and len(units) % 2 == 1
            unit_dir = workdir / f"unit-{len(units)}"
            unit_dir.mkdir()
            recorder = tracing.Recorder() if traced else tracing.NullRecorder()
            sites = tracing.installed(recorder) if traced else nullcontext()
            watch = Stopwatch(calibrate=not trace)
            with sites as absent, recorder.span(tracing.UNIT):
                unit = workload.run(seed, sizes, unit_dir, recorder, watch)
            wall = watch.wall
            timings.append((sum(r for r, _ in unit.samples), wall,
                            watch.calibrated))
            if not traced:
                walls.append(wall)
            else:
                missing = absent
                layers = tracing.unit_layers(recorder)
                layers["store.catalog.payload_bytes"] = sum(
                    f.stat().st_size
                    for f in (unit_dir / "store" / "payloads").rglob("*")
                    if f.is_file()
                )
                per_unit_layers.append(layers)
                traced_walls.append(wall)
                if spans_out is not None:
                    for layer, start, end, parent in recorder.spans:
                        spans_out.write(json.dumps({
                            "name": layer, "start": start, "end": end,
                            "parent": parent, "workload": name,
                            "unit": len(units),
                        }) + "\n")
            shutil.rmtree(unit_dir)
            units.append(unit)
            elapsed = time.perf_counter() - started
            typical = elapsed / len(units)
            if len(units) >= (2 if trace else 1) and (
                elapsed + typical > seconds
            ):
                break
    finally:
        if spans_out is not None:
            spans_out.close()

    layers = {}
    if trace:
        layers = {
            metric: statistics.median(unit[metric] for unit in per_unit_layers)
            for metric in per_unit_layers[0]
        }
        attempts = sum(u.row_attempts for u in units)
        layers.update({
            "harness.runtime.retries": sum(u.retries for u in units)
            / len(units),
            "harness.runtime.quarantined": sum(u.failed for u in units)
            / len(units),
            "harness.runtime.useful_frac": (
                sum(u.measured for u in units) / attempts if attempts
                else 1.0
            ),
            "trace.overhead_frac": statistics.median(traced_walls)
            / statistics.median(walls) - 1.0,
            "trace.missing_sites": len(missing),
        })
    return {
        "workload": name,
        "seed": seed,
        "sizes": sizes,
        "units": len(units),
        "samples": [s for u in units for s in u.samples],
        # (rows, wall s, calibrated s) per unit; calibrated is 0 when
        # traced.
        "timings": timings,
        "digests": sorted({u.digest for u in units}),
        "attempted": sum(u.attempted for u in units),
        "failed": sum(u.failed for u in units),
        "peak_rss_mb": _peak_rss_mb(),
        "layers": layers,
        "missing_sites": missing,
        "conditions": {
            "test": workload.test,
            "mode": workload.mode,
            "n_shards": workload.n_shards,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="role", required=True)
    sub.add_parser("setup")
    run = sub.add_parser("run")
    run.add_argument("workload", choices=sorted(WORKLOADS))
    run.add_argument("--seed", type=int, required=True)
    run.add_argument("--seconds", type=float, required=True)
    run.add_argument("--smoke", action="store_true")
    run.add_argument("--trace", action="store_true")
    run.add_argument("--spans")
    run.add_argument("--workdir", required=True)
    args = parser.parse_args(argv)

    src = (ROOT / "src").resolve()
    if src not in Path(repro.__file__).resolve().parents:
        print(f"repro imported from {repro.__file__}, not {src}",
              file=sys.stderr)
        return 2
    warm_up()
    if args.role == "setup":
        return 0
    result = run_window(
        args.workload, args.seed, args.seconds, args.smoke, args.trace,
        args.spans, Path(args.workdir),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
