"""Pipeline benchmark: seeded studies through generate -> measure ->
ingest -> analyze -> report, timed end to end and layer by layer.

Usage (from the repository root)::

    python3 benchmarks/pipeline/run.py [--workload NAME|all] [--seed N]
        [--seconds S] [--repeat K] [--trace 0|1|SPANS.jsonl]
        [--compare BASE.json] [--out RESULT.json] [--smoke]

Each run of a workload launches fresh interpreters: five that only
import ``repro`` and warm up (their median wall is ``setup_s``), then
one worker that warms up and repeats the workload's unit for the
window.  Every metric is printed by name with its unit, each run's
output digest is checked against ``golden.json``, and the last line of
standard output is one JSON object ``{correct, attempted, failed,
metrics}`` (when one workload runs).  Exit status: 0 when every digest
matches (or is unchecked) and no operation failed, 1 on a mismatch, a
failed operation or a ``--compare`` regression, 2 when the benchmark
cannot run at all.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from benchmarks.pipeline.tracing import LAYERS  # noqa: E402
from benchmarks.pipeline.yardstick import Stopwatch  # noqa: E402

WORKLOAD_NAMES = (
    "study-ooc", "measure-swiftest", "measure-btsapp", "measure-small",
)
DEFAULT_SEED = 20220801
#: Setup launches per run (one with ``--smoke``).
SETUP_LAUNCHES = 5
WORKER = HERE / "worker.py"
#: Thread pools pinned to one thread: each process is one busy core,
#: the client plus ``measure-small``'s two shard workers at most.
THREAD_ENV = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}


class BenchmarkError(Exception):
    """The benchmark cannot run here (no program, a worker crashed)."""


# -- statistics --------------------------------------------------------


def quartiles(values: List[float]):
    """``(q1, median, q3)``, as ``statistics.quantiles(n=4)`` gives
    them (a single value is its own quartiles)."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def p98(values: List[float]) -> float:
    """Nearest-rank 98th percentile."""
    ordered = sorted(values)
    return ordered[math.ceil(0.98 * len(ordered)) - 1]


# -- one run -----------------------------------------------------------


def git_commit() -> Optional[str]:
    """The checkout's commit, read from ``.git`` without running git
    (which would climb into an enclosing repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _launch(args: List[str], workdir: Path, capture: bool):
    env = dict(os.environ, TMPDIR=str(workdir), **THREAD_ENV)
    proc = subprocess.run(
        [sys.executable, str(WORKER), *args],
        cwd=ROOT, env=env, text=True,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE if capture else None,
    )
    if proc.returncode != 0:
        detail = proc.stderr if capture else ""
        raise BenchmarkError(
            f"worker {' '.join(args[:2])} exited {proc.returncode}\n{detail}"
        )
    return proc


def setup_seconds(workdir: Path, launches: int) -> List[float]:
    """Calibrated seconds of fresh interpreters that import and warm up,
    one after another, the yardstick timed before and after each."""
    watch = Stopwatch(calibrate=True)
    seconds = []
    for _ in range(launches):
        before = watch.calibrated
        with watch.step():
            _launch(["setup"], workdir, capture=True)
        seconds.append(watch.calibrated - before)
    return seconds


def end_to_end(result: Dict, setup: List[float]) -> Dict[str, float]:
    """Gated metrics of ``BENCHMARK.json`` plus the wall rate and the
    latency percentiles, which are reported but not gated (see
    README)."""
    latencies = [seconds * 1e3 for _, seconds in result["samples"]]
    return {
        "setup_s": statistics.median(setup),
        "rows_per_s": statistics.median(
            rows / calibrated for rows, _, calibrated in result["timings"]
        ),
        "peak_rss_mb": result["peak_rss_mb"],
        "wall_rows_per_s": statistics.median(
            rows / wall for rows, wall, _ in result["timings"]
        ),
        "run_p50_ms": statistics.median(latencies),
        "run_p98_ms": p98(latencies),
    }


def digest_status(result: Dict, golden: Dict, profile: str) -> str:
    """``match``, ``mismatch``, ``unchecked`` (seed not pinned) or
    ``inconsistent`` (units of one run disagreed)."""
    if len(result["digests"]) != 1:
        return "inconsistent"
    pinned = golden.get(str(result["seed"]), {}).get(profile, {})
    if result["workload"] not in pinned:
        return "unchecked"
    ok = pinned[result["workload"]] == result["digests"][0]
    return "match" if ok else "mismatch"


def measure(workload: str, seed: int, args, workdir: Path,
            golden: Dict) -> Dict:
    """One run: setup launches (untraced only), then one worker."""
    launches = 1 if args.smoke else SETUP_LAUNCHES
    setup = [] if args.traced else setup_seconds(workdir, launches)
    worker_args = [
        "run", workload, "--seed", str(seed),
        "--seconds", str(args.seconds), "--workdir", str(workdir),
    ]
    if args.smoke:
        worker_args.append("--smoke")
    if args.traced:
        worker_args.append("--trace")
    if args.spans:
        worker_args += ["--spans", str(args.spans)]
    proc = _launch(worker_args, workdir, capture=False)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    status = digest_status(result, golden, "smoke" if args.smoke else "full")
    metrics = result["layers"] if args.traced else end_to_end(result, setup)
    return {
        "workload": workload,
        "traced": args.traced,
        "metrics": metrics,
        "samples": len(result["samples"]),
        "units": result["units"],
        "setup_launches": len(setup),
        "digest": result["digests"][0],
        "digest_status": status,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "correct": status in ("match", "unchecked") and not result["failed"],
        "missing_sites": result["missing_sites"],
        "conditions": dict(
            result["conditions"],
            seed=seed,
            sizes=result["sizes"],
            nproc=os.cpu_count(),
            git_commit=git_commit(),
        ),
    }


# -- printing ----------------------------------------------------------


def print_run(run: Dict, spec: Dict) -> None:
    c = run["conditions"]
    print(
        f"{run['workload']}  seed={c['seed']}  sizes={c['sizes']}  "
        f"units={run['units']}  digest={run['digest'][:16]} "
        f"({run['digest_status']})"
    )
    m = run["metrics"]
    if not run["traced"]:
        n = run["samples"]
        notes = {
            "setup_s": f"median of {run['setup_launches']} launches, "
                       f"calibrated",
            "rows_per_s": f"median of {run['units']} units, calibrated",
        }
        for metric in spec["end_to_end"]:
            name = metric["name"]
            print(f"  {name:<14} {m[name]:>14.4f} {metric['unit']:<7} "
                  f"{notes.get(name, '')}")
        print(f"  {'wall_rows_per_s':<14} {m['wall_rows_per_s']:>14.4f} "
              f"{'rows/s':<7} median of {run['units']} units (not gated)")
        print(f"  {'run_p50_ms':<14} {m['run_p50_ms']:>14.4f} {'ms':<7} "
              f"n={n} (not gated)")
        print(f"  {'run_p98_ms':<14} {m['run_p98_ms']:>14.4f} {'ms':<7} "
              f"n={n}, {n - math.ceil(0.98 * n)} beyond it (not gated)")
        frac = run["failed"] / run["attempted"]
        print(f"  {'failed_frac':<14} {frac:>14.4f} {'ratio':<7} "
              f"{run['failed']} of {run['attempted']} operations")
        return
    print(f"  {'self time per unit':<44} {'':>14} {'':<5} "
          f"<layer>_share of the unit wall")
    for layer, busy in LAYERS:
        print(f"  {busy:<44} {m[busy]:>14.4f} {'s':<5} "
              f"{m[layer + '_share'] * 100:>5.1f}%")
    units = {metric["name"]: metric["unit"] for metric in spec["per_layer"]}
    busy_names = {busy for _, busy in LAYERS}
    for name in sorted(units):
        if not name.endswith("_share") and name not in busy_names:
            print(f"  {name:<44} {m[name]:>14.4f} {units[name]}")
    for site in run["missing_sites"]:
        print(f"  missing wrapper site: {site}")


def compare(base: List[Dict], new: List[Dict], spec: Dict) -> int:
    """Print base vs new per workload and metric; return the number of
    regressions."""
    def values(runs, workload, name):
        return [r["metrics"][name] for r in runs
                if r["workload"] == workload and not r["traced"]]

    regressions = 0
    print(f"{'workload':<17} {'metric':<12} {'base median [q1, q3]':>30} "
          f"{'new median [q1, q3]':>30} {'change':>8}  verdict")
    for workload in WORKLOAD_NAMES:
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            old = values(base, workload, name)
            cur = values(new, workload, name)
            if not old or not cur:
                continue
            (b1, bm, b3), (n1, nm, n3) = quartiles(old), quartiles(cur)
            change = (nm - bm) / bm
            worse = change if metric["better"] == "lower" else -change
            spread = max((b3 - b1) / bm, (n3 - n1) / nm)
            if worse > bound:
                verdict = "REGRESSION"
                regressions += 1
            elif spread > bound:
                verdict = "unresolved"
            else:
                verdict = "within bound"
            print(f"{workload:<17} {name:<12} "
                  f"{bm:>12.4f} [{b1:.4f}, {b3:.4f}] "
                  f"{nm:>12.4f} [{n1:.4f}, {n3:.4f}] "
                  f"{change * 100:>+7.1f}%  {verdict} "
                  f"(bound {bound:.0%}, n={len(old)}/{len(cur)})")
    return regressions


# -- entry point -------------------------------------------------------


def parse_args(argv, spec: Dict):
    parser = argparse.ArgumentParser(
        description=__doc__.splitlines()[0],
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    parser.add_argument("--workload", default="all",
                        choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float,
                        default=spec["run_seconds"],
                        help="measurement window per run")
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument(
        "--trace", default="0",
        help="0: untraced; 1: traced; a path: traced, spans to that JSONL",
    )
    parser.add_argument("--compare", metavar="BASE.json")
    parser.add_argument("--out", metavar="RESULT.json")
    parser.add_argument("--smoke", action="store_true",
                        help="smoke sizes, one setup launch, one unit")
    args = parser.parse_args(argv)
    if args.repeat < 1:
        parser.error("--repeat must be >= 1")
    args.traced = args.trace != "0"
    args.spans = (
        Path(args.trace).resolve() if args.trace not in ("0", "1") else None
    )
    if args.smoke:
        args.seconds = 0.0
    return args


def main(argv=None) -> int:
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file() or not (ROOT / "src" / "repro").is_dir():
        print(f"no program to benchmark: need {spec_path} and "
              f"{ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    args = parse_args(argv, spec)
    # On SIGTERM unwind like on Ctrl-C: subprocess.run kills the worker
    # it is waiting on, and the work directory is removed.
    signal.signal(signal.SIGTERM, lambda signum, _: sys.exit(128 + signum))
    golden = json.loads((HERE / "golden.json").read_text())
    workloads = (
        list(WORKLOAD_NAMES) if args.workload == "all" else [args.workload]
    )
    if args.spans:
        args.spans.write_text("")

    workroot = ROOT / ".pipeline-work"
    workdir = workroot / str(os.getpid())
    runs: List[Dict] = []
    try:
        for repeat in range(args.repeat):
            for workload in workloads:
                run_dir = workdir / f"{workload}-{repeat}"
                run_dir.mkdir(parents=True)
                run = measure(workload, args.seed, args, run_dir, golden)
                run["repeat"] = repeat
                print_run(run, spec)
                runs.append(run)
    except BenchmarkError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workroot.rmdir()
        except OSError:
            pass

    if args.out:
        Path(args.out).write_text(json.dumps(
            {"benchmark": "pipeline", "runs": runs}, indent=2
        ) + "\n")
    failures = sum(not run["correct"] for run in runs)
    if args.compare:
        base = json.loads(Path(args.compare).read_text())["runs"]
        failures += compare(base, runs, spec)
    if len(workloads) == 1:
        names = spec["per_layer" if args.traced else "end_to_end"]
        print(json.dumps({
            "correct": all(run["correct"] for run in runs),
            "attempted": sum(run["attempted"] for run in runs),
            "failed": sum(run["failed"] for run in runs),
            "metrics": {
                m["name"]: {
                    "value": statistics.median(
                        run["metrics"][m["name"]] for run in runs
                    ),
                    "unit": m["unit"],
                }
                for m in names
            },
        }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
