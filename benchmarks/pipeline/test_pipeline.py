"""Smoke test of the pipeline benchmark (smoke sizes, well under 60 s).

Run explicitly: ``PYTHONPATH=src python -m pytest benchmarks/pipeline``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from benchmarks.pipeline import run as runner
from benchmarks.pipeline import tracing, workloads
from benchmarks.pipeline.yardstick import Stopwatch

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SEED = runner.DEFAULT_SEED


def _bench(*args, root=ROOT):
    return subprocess.run(
        [sys.executable, str(root / "benchmarks" / "pipeline" / "run.py"),
         *args],
        cwd=root, capture_output=True, text=True, timeout=120,
    )


def _copy_benchmark(dest: Path) -> Path:
    """A checkout holding only BENCHMARK.json and the benchmark."""
    shutil.copy(ROOT / "BENCHMARK.json", dest)
    shutil.copytree(HERE, dest / "benchmarks" / "pipeline",
                    ignore=shutil.ignore_patterns("__pycache__"))
    return dest


@pytest.fixture(scope="module")
def smoke_sets(tmp_path_factory):
    """One untraced and one traced smoke set over every workload."""
    tmp = tmp_path_factory.mktemp("sets")
    plain = _bench("--smoke", "--out", str(tmp / "plain.json"))
    traced = _bench("--smoke", "--trace", str(tmp / "spans.jsonl"),
                    "--out", str(tmp / "traced.json"))
    assert plain.returncode == 0, plain.stderr
    assert traced.returncode == 0, traced.stderr
    return {
        "plain": json.loads((tmp / "plain.json").read_text())["runs"],
        "traced": json.loads((tmp / "traced.json").read_text())["runs"],
        "plain_stdout": plain.stdout,
        "traced_stdout": traced.stdout,
        "spans": (tmp / "spans.jsonl").read_text().splitlines(),
    }


def test_every_metric_is_emitted_with_its_unit(smoke_sets):
    for kind, section in (("plain", "end_to_end"), ("traced", "per_layer")):
        assert [r["workload"] for r in smoke_sets[kind]] == list(
            runner.WORKLOAD_NAMES
        )
        for run in smoke_sets[kind]:
            for metric in SPEC[section]:
                assert isinstance(run["metrics"][metric["name"]], (int, float))
    lines = smoke_sets["plain_stdout"].splitlines()
    for metric in SPEC["end_to_end"]:
        assert any(
            line.split()[:1] == [metric["name"]] and metric["unit"] in line
            for line in lines
        ), metric
    for metric in SPEC["per_layer"]:
        if metric["name"].endswith("_share"):
            continue  # printed as the share column of its layer row
        assert metric["name"] in smoke_sets["traced_stdout"], metric


def test_digests_repeat_and_match_traced_runs(smoke_sets):
    plain = {r["workload"]: r["digest"] for r in smoke_sets["plain"]}
    traced = {r["workload"]: r["digest"] for r in smoke_sets["traced"]}
    assert plain == traced
    for run in smoke_sets["plain"] + smoke_sets["traced"]:
        assert run["digest_status"] == "match", run["workload"]
        assert run["failed"] == 0
    assert {json.loads(line)["workload"] for line in smoke_sets["spans"]} \
        == set(runner.WORKLOAD_NAMES)


def test_traced_unit_restores_every_wrapped_site(tmp_path):
    originals = [tracing._lookup(m, a)[2] for m, a, _, _ in tracing.SITES]
    recorder = tracing.Recorder()
    sizes = workloads.WORKLOADS["measure-btsapp"].sizes["smoke"]
    with tracing.installed(recorder) as missing:
        assert missing == []
        unit = workloads.measure_btsapp(
            SEED, sizes, tmp_path, recorder, Stopwatch(calibrate=False)
        )
    assert unit.failed == 0
    layers = tracing.unit_layers(recorder)
    assert layers["netsim.network.allocate_calls"] > 0
    assert layers["harness.runtime.measure_row_calls"] == sizes["tests"]
    for (module, attribute, _, _), original in zip(tracing.SITES, originals):
        assert tracing._lookup(module, attribute)[2] is original, attribute


def test_missing_site_is_reported_not_raised():
    sites = tracing.SITES + (
        ("repro.harness.runtime", "no_such_function", "gone", None),
        ("repro.no_such_module", "f", "gone", None),
    )
    with tracing.installed(tracing.Recorder(), sites=sites) as missing:
        assert missing == [
            "repro.harness.runtime.no_such_function",
            "repro.no_such_module.f",
        ]


def test_perturbed_output_fails_the_digest_gate(tmp_path, monkeypatch):
    from repro.dataset.records import SCHEMA, Dataset
    from repro.harness import runtime

    sizes = workloads.WORKLOADS["measure-btsapp"].sizes["smoke"]
    null = tracing.NullRecorder()
    clean = workloads.measure_btsapp(
        SEED, sizes, tmp_path / "a", null, Stopwatch(calibrate=False)
    )
    build_report = runtime.build_report

    def nudged(*args, **kwargs):
        report = build_report(*args, **kwargs)
        columns = {n: report.dataset.column(n) for n in SCHEMA}
        columns["bandwidth_mbps"] = np.nextafter(
            columns["bandwidth_mbps"], np.inf
        )
        report.dataset = Dataset(columns)
        return report

    monkeypatch.setattr(runtime, "build_report", nudged)
    perturbed = workloads.measure_btsapp(
        SEED, sizes, tmp_path / "b", null, Stopwatch(calibrate=False)
    )
    assert perturbed.digest != clean.digest
    golden = {str(SEED): {"smoke": {"measure-btsapp": clean.digest}}}
    result = {"workload": "measure-btsapp", "seed": SEED,
              "digests": [perturbed.digest]}
    assert runner.digest_status(result, golden, "smoke") == "mismatch"


def test_digest_mismatch_exits_nonzero(tmp_path):
    checkout = _copy_benchmark(tmp_path)
    (checkout / "src").symlink_to(ROOT / "src")
    golden_path = checkout / "benchmarks" / "pipeline" / "golden.json"
    golden = json.loads(golden_path.read_text())
    pinned = golden[str(SEED)]["smoke"]
    pinned["measure-btsapp"] = pinned["measure-btsapp"][::-1]
    golden_path.write_text(json.dumps(golden))
    proc = _bench("--workload", "measure-btsapp", "--smoke", root=checkout)
    assert proc.returncode == 1
    assert "(mismatch)" in proc.stdout
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert sorted(result) == ["attempted", "correct", "failed", "metrics"]
    assert result["correct"] is False
    assert sorted(result["metrics"]) == sorted(
        m["name"] for m in SPEC["end_to_end"]
    )


def test_refuses_to_run_without_the_program(tmp_path):
    checkout = _copy_benchmark(tmp_path)
    proc = _bench("--workload", "study-ooc", "--seed", "1", "--seconds",
                  "1", "--trace", "0", root=checkout)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_compare_flags_regressions_and_wide_spreads(capsys):
    (bound,) = [m["bound"] for m in SPEC["end_to_end"]
                if m["name"] == "rows_per_s"]

    def runs(*rates):
        return [
            {"workload": "study-ooc", "traced": False,
             "metrics": {m["name"]: 1.0 for m in SPEC["end_to_end"]}
             | {"rows_per_s": rate}}
            for rate in rates
        ]

    base = runs(100, 101, 99)
    slower = runs(*(v * (1 - 2 * bound) for v in (100, 101, 99)))
    noisy = runs(100 * (1 - 2 * bound), 100, 100 * (1 + 2 * bound))
    assert runner.compare(base, base, SPEC) == 0
    assert "unresolved" not in capsys.readouterr().out
    assert runner.compare(base, slower, SPEC) == 1
    assert "REGRESSION" in capsys.readouterr().out
    assert runner.compare(base, noisy, SPEC) == 0
    assert "unresolved" in capsys.readouterr().out
