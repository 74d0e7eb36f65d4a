"""Command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.dataset.generator import CampaignConfig, generate_campaign
from repro.dataset.records import Dataset


@pytest.fixture(scope="module")
def campaign_csv(tmp_path_factory):
    """A small campaign persisted to CSV once for the module."""
    path = tmp_path_factory.mktemp("cli") / "campaign.csv"
    dataset = generate_campaign(CampaignConfig(n_tests=8_000, seed=77))
    dataset.to_csv(path)
    return str(path)


def test_parser_requires_subcommand():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


@pytest.mark.parametrize("command", ["bench", "campaign"])
def test_retired_commands_exit_2(command):
    """``campaign`` was folded into ``generate``; ``bench``'s gates are
    tier-1 tests now."""
    with pytest.raises(SystemExit) as exc:
        main([command])
    assert exc.value.code == 2


def test_campaign_command(tmp_path, capsys):
    out = tmp_path / "c.csv"
    code = main(["generate", "--n-tests", "3000", "--seed", "5",
                 "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "generated 3000 tests" in captured
    loaded = Dataset.from_csv(out)
    assert len(loaded) == 3000


def test_campaign_round_trip_preserves_stats(tmp_path):
    out = tmp_path / "c.csv"
    main(["generate", "--n-tests", "2000", "--seed", "6", "--out", str(out)])
    loaded = Dataset.from_csv(out)
    regenerated = generate_campaign(CampaignConfig(n_tests=2000, seed=6))
    assert loaded.mean_bandwidth() == pytest.approx(
        regenerated.mean_bandwidth()
    )


def test_analyze_command(campaign_csv, capsys):
    code = main(["analyze", campaign_csv])
    assert code == 0
    captured = capsys.readouterr().out
    assert "4G distribution" in captured
    assert "5G per band" in captured
    assert "WiFi generations" in captured


def test_speedtest_command(campaign_csv, capsys):
    code = main([
        "speedtest", "--bandwidth", "250", "--tech", "5G",
        "--campaign", campaign_csv, "--compare",
    ])
    assert code == 0
    captured = capsys.readouterr().out
    assert "swiftest:" in captured
    assert "bts-app" in captured


def test_speedtest_unknown_tech(campaign_csv, capsys):
    code = main([
        "speedtest", "--tech", "6G", "--campaign", campaign_csv,
    ])
    assert code == 1
    assert "no model" in capsys.readouterr().err


def test_plan_command(campaign_csv, capsys):
    code = main(["plan", "--tests-per-day", "5000",
                 "--campaign", campaign_csv])
    assert code == 0
    captured = capsys.readouterr().out
    assert "workload:" in captured
    assert "flooding reference" in captured


def test_report_command(campaign_csv, capsys):
    code = main(["report", campaign_csv])
    assert code == 0
    captured = capsys.readouterr().out
    assert "Access technologies" in captured
    assert "5G per band" in captured
    assert "█" in captured  # bar-chart rendering


def test_measure_command(campaign_csv, tmp_path, capsys):
    out = tmp_path / "measured.csv"
    ck = tmp_path / "run.ckpt"
    code = main([
        "measure", campaign_csv, "--tests", "6", "--seed", "4",
        "--out", str(out), "--checkpoint", str(ck),
        "--checkpoint-every", "2",
    ])
    assert code == 0
    captured = capsys.readouterr().out
    assert "measured 6/6 rows" in captured
    assert ck.exists()
    assert len(Dataset.from_csv(out)) == 6


def test_measure_resume_skips_finished_rows(campaign_csv, tmp_path, capsys):
    ck = tmp_path / "run.ckpt"
    base = ["measure", campaign_csv, "--tests", "5", "--seed", "4",
            "--checkpoint", str(ck)]
    assert main(base) == 0
    capsys.readouterr()
    assert main(base + ["--resume"]) == 0
    captured = capsys.readouterr().out
    assert "resumed 5 row(s)" in captured


def test_measure_resume_requires_checkpoint(campaign_csv, capsys):
    code = main(["measure", campaign_csv, "--resume"])
    assert code == 2
    assert "--resume requires --checkpoint" in capsys.readouterr().err


@pytest.mark.usefixtures("loopback_oracle_forks_early")
def test_measure_sharded_matches_serial(campaign_csv, tmp_path, capsys):
    """Six banked rows stay in-process; the per-row engine forks three
    workers for them.  Both match the serial bytes."""
    serial_out = tmp_path / "serial.csv"
    banked_out = tmp_path / "banked.csv"
    sharded_out = tmp_path / "sharded.csv"
    base = ["measure", campaign_csv, "--tests", "6", "--seed", "4",
            "--test", "swiftest-loopback"]
    assert main(base + ["--out", str(serial_out)]) == 0
    capsys.readouterr()
    code = main(base + ["--shards", "3", "--out", str(banked_out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "in-process: too few rows for 3 shards to pay" in captured
    assert "sharded across" not in captured
    code = main(base + ["--shards", "3", "--mode", "oracle",
                        "--out", str(sharded_out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "sharded across 3 worker(s)" in captured
    assert "measured 6/6 rows" in captured
    assert serial_out.read_bytes() == banked_out.read_bytes()
    assert serial_out.read_bytes() == sharded_out.read_bytes()


def test_measure_serial_run_says_nothing_about_shards(campaign_csv,
                                                      capsys):
    code = main(["measure", campaign_csv, "--tests", "4", "--seed", "4",
                 "--test", "swiftest-loopback"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "in-process" not in captured
    assert "sharded" not in captured


def test_measure_shards_help_names_an_upper_bound(capsys):
    with pytest.raises(SystemExit):
        main(["measure", "--help"])
    assert "at most this many worker processes" in " ".join(
        capsys.readouterr().out.split()
    )


@pytest.mark.parametrize("flag, value, field", [
    ("--tests", "0", "max_tests"),
    ("--shards", "0", "n_shards"),
    ("--max-attempts", "0", "max attempts"),
    ("--checkpoint-every", "0", "checkpoint interval"),
    ("--seed", "-1", "seed"),
])
def test_measure_rejects_out_of_range_flag(campaign_csv, capsys, flag,
                                           value, field):
    code = main(["measure", campaign_csv, "--test", "swiftest-loopback",
                 flag, value])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert field in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv, field", [
    (["generate", "--n-tests", "-1"], "n_tests"),
    (["generate", "--n-tests", "10", "--seed", "-1"], "seed"),
    (["generate", "--n-tests", "10", "--year", "2020", "--seed", "-5"],
     "seed"),
    (["generate", "--n-tests", "10", "--home-path", "--seed", str(2 ** 64)],
     "seed"),
    (["generate", "--n-tests", "0"], "n_tests"),
    (["generate", "--n-tests", "10", "--seed", "-5"], "seed"),
    (["generate", "--n-tests", "10", "--seed", str(2 ** 64)], "seed"),
])
def test_generation_rejects_out_of_range_flag(capsys, argv, field):
    assert main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert field in err
    assert "Traceback" not in err


def test_measure_rejects_blank_bandwidth(campaign_csv, tmp_path, capsys):
    """A blank bandwidth cell loads as NaN: the campaign fails up front
    with an error line instead of measuring or quarantining it."""
    lines = open(campaign_csv).read().splitlines(keepends=True)
    column = lines[0].rstrip("\n").split(",").index("bandwidth_mbps")
    cells = lines[1].rstrip("\n").split(",")
    cells[column] = ""
    lines[1] = ",".join(cells) + "\n"
    blank = tmp_path / "blank.csv"
    blank.write_text("".join(lines[:21]))
    for extra in ([], ["--mode", "oracle"], ["--shards", "2"]):
        code = main(["measure", str(blank), "--tests", "20"] + extra)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "positive and finite" in err
        assert "Traceback" not in err


def test_measure_unknown_test_name(campaign_csv, capsys):
    code = main(["measure", campaign_csv, "--test", "warp-drive"])
    assert code == 2
    err = capsys.readouterr().err
    assert "warp-drive" in err
    assert "bts-app" in err


def test_generate_command_npz(tmp_path, capsys):
    out = tmp_path / "c.npz"
    code = main(["generate", "--n-tests", "4000", "--seed", "5",
                 "--chunk-size", "1024", "--out", str(out)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "generated 4000 tests" in captured
    assert "rows/s" in captured
    loaded = Dataset.load(str(out))
    assert len(loaded) == 4000


def test_generate_command_format_flag_appends_suffix(tmp_path, capsys):
    out = tmp_path / "campaign"
    code = main(["generate", "--n-tests", "1500", "--seed", "5",
                 "--format", "npz", "--out", str(out)])
    assert code == 0
    assert "wrote" in capsys.readouterr().out
    assert (tmp_path / "campaign.npz").exists()


def test_generate_rejects_bad_chunk_size(capsys):
    code = main(["generate", "--n-tests", "100", "--chunk-size", "0"])
    assert code == 2
    assert "--chunk-size" in capsys.readouterr().err


def test_analyze_accepts_npz(tmp_path, capsys):
    out = tmp_path / "c.npz"
    main(["generate", "--n-tests", "8000", "--seed", "77",
          "--out", str(out)])
    capsys.readouterr()
    assert main(["analyze", str(out)]) == 0
    captured = capsys.readouterr().out
    assert "4G distribution" in captured


def test_measure_manifest_flag(campaign_csv, tmp_path, capsys):
    manifest = tmp_path / "run.manifest.json"
    code = main([
        "measure", campaign_csv, "--tests", "4", "--seed", "4",
        "--shards", "2", "--mode", "oracle", "-M", str(manifest),
    ])
    assert code == 0
    assert f"manifest {manifest}" in capsys.readouterr().out
    import json

    loaded = json.loads(manifest.read_text())
    assert loaded["kind"] == "campaign"
    assert loaded["run"]["n_rows"] == 4
    assert loaded["run"]["n_shards"] == 2
    assert loaded["run"]["workers"] == len(loaded["shards"]) == 2
    assert sum(s["rows"] for s in loaded["shards"]) == 4


def test_measure_checkpoint_implies_manifest(campaign_csv, tmp_path, capsys):
    ck = tmp_path / "run.ckpt"
    code = main(["measure", campaign_csv, "--tests", "3", "--seed", "4",
                 "--checkpoint", str(ck)])
    assert code == 0
    sibling = tmp_path / "run.ckpt.manifest.json"
    assert f"manifest {sibling}" in capsys.readouterr().out
    assert sibling.exists()


def test_metrics_command(campaign_csv, tmp_path, capsys):
    manifest = tmp_path / "run.manifest.json"
    main(["measure", campaign_csv, "--tests", "6", "--seed", "4",
          "--shards", "3", "--mode", "oracle", "-M", str(manifest)])
    capsys.readouterr()
    code = main(["metrics", str(manifest)])
    assert code == 0
    captured = capsys.readouterr().out
    assert "kind campaign" in captured
    assert "seed 4" in captured
    assert "outcomes" in captured
    assert "shards 3  workers 3" in captured
    assert "\nshards\n" in captured
    assert "campaign.rows_measured" in captured
    assert "campaign.row_wall_s" in captured


def test_metrics_shows_an_in_process_run_forked_nothing(campaign_csv,
                                                        tmp_path, capsys):
    manifest = tmp_path / "run.manifest.json"
    main(["measure", campaign_csv, "--tests", "6", "--seed", "4",
          "--shards", "3", "-M", str(manifest)])
    capsys.readouterr()
    assert main(["metrics", str(manifest)]) == 0
    captured = capsys.readouterr().out
    assert "shards 3  workers 0" in captured
    assert "\nshards\n" not in captured


def test_metrics_missing_manifest(tmp_path, capsys):
    code = main(["metrics", str(tmp_path / "absent.json")])
    assert code == 2
    assert "no such manifest" in capsys.readouterr().err


def test_metrics_corrupt_manifest(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code = main(["metrics", str(bad)])
    assert code == 2
    assert "unreadable" in capsys.readouterr().err


def test_fleet_day_command(tmp_path, capsys):
    manifest_path = tmp_path / "fleet.manifest.json"
    code = main([
        "fleet-day", "--users", "20000", "--hours", "2", "--seed", "7",
        "--blackout", "Beijing:0.5:1", "--manifest", str(manifest_path),
    ])
    assert code == 0
    captured = capsys.readouterr().out
    assert "fleet day: 20,000 users, 2h, seed 7" in captured
    assert "1 regional outage(s)" in captured
    assert "accounting balanced" in captured
    from repro.obs.manifest import load_manifest, verify_fleet_accounting

    manifest = load_manifest(manifest_path)
    assert manifest["kind"] == "fleet-day"
    verify_fleet_accounting(manifest)


def test_fleet_day_rejects_bad_blackout_spec(capsys):
    code = main(["fleet-day", "--users", "1000", "--blackout", "Beijing:8"])
    assert code == 2
    assert "DOMAIN:START_H:END_H" in capsys.readouterr().err


def test_fleet_day_rejects_unknown_domain(capsys):
    code = main(["fleet-day", "--users", "1000",
                 "--blackout", "Atlantis:8:10"])
    assert code == 2
    assert "unknown blackout domain" in capsys.readouterr().err


# -- run store -------------------------------------------------------------


@pytest.fixture
def stored_runs(campaign_csv, tmp_path, capsys):
    """A store holding an aug and a nov campaign, via the CLI."""
    store = tmp_path / "runs"
    base = ["measure", campaign_csv, "--tests", "6", "--store", str(store)]
    assert main(base + ["--seed", "1", "--store-month", "aug"]) == 0
    assert main(base + ["--seed", "2", "--store-month", "nov"]) == 0
    out = capsys.readouterr().out
    ids = [line.split()[2] for line in out.splitlines()
           if line.startswith("stored run ")]
    assert len(ids) == 2
    return store, ids


def test_measure_store_flag_commits_run(stored_runs, capsys):
    store, (run_aug, run_nov) = stored_runs
    assert (store / "journal.wal").exists()
    assert (store / "payloads" / run_aug / "dataset.npz").exists()


def test_runs_ls(stored_runs, capsys):
    store, ids = stored_runs
    assert main(["runs", "ls", "--store", str(store)]) == 0
    out = capsys.readouterr().out
    for run_id in ids:
        assert run_id[:12] in out
    capsys.readouterr()
    assert main(["runs", "ls", "--store", str(store),
                 "--month", "aug"]) == 0
    out = capsys.readouterr().out
    assert ids[0][:12] in out
    assert ids[1][:12] not in out


def test_runs_ls_missing_store(tmp_path, capsys):
    code = main(["runs", "ls", "--store", str(tmp_path / "absent")])
    assert code == 2
    assert "no run store" in capsys.readouterr().err


def test_runs_show(stored_runs, capsys):
    store, (run_aug, _) = stored_runs
    assert main(["runs", "show", run_aug[:6], "--store", str(store)]) == 0
    out = capsys.readouterr().out
    assert run_aug in out
    assert "dataset.npz" in out
    assert "sha256" in out


def test_runs_show_unknown_id(stored_runs, capsys):
    store, _ = stored_runs
    code = main(["runs", "show", "zzzz", "--store", str(store)])
    assert code == 2
    assert "no run matches" in capsys.readouterr().err


def test_runs_diff(stored_runs, capsys):
    store, (run_aug, run_nov) = stored_runs
    code = main(["runs", "diff", run_aug[:6], run_nov[:6],
                 "--store", str(store)])
    assert code == 0
    out = capsys.readouterr().out
    assert "month" in out
    assert "seed" in out
    capsys.readouterr()
    assert main(["runs", "diff", run_aug, run_aug,
                 "--store", str(store)]) == 0
    assert "identical" in capsys.readouterr().out


def test_runs_compare(stored_runs, capsys):
    store, _ = stored_runs
    code = main(["runs", "compare", "--store", str(store),
                 "--months", "aug,nov", "--tech", "WiFi5"])
    assert code == 0
    out = capsys.readouterr().out
    assert "aug -> nov" in out
    assert "decline" in out


def test_runs_compare_empty_month(stored_runs, capsys):
    store, _ = stored_runs
    code = main(["runs", "compare", "--store", str(store),
                 "--months", "aug,feb"])
    assert code == 2
    assert "no campaign" in capsys.readouterr().err


def test_store_fsck_exit_code_ladder(stored_runs, capsys):
    """0 clean -> 2 damaged -> 1 repaired -> 0 clean again."""
    store, (run_aug, _) = stored_runs
    fsck_cmd = ["store", "fsck", "--store", str(store)]
    assert main(fsck_cmd) == 0
    assert "clean" in capsys.readouterr().out

    payload = store / "payloads" / run_aug / "dataset.npz"
    raw = bytearray(payload.read_bytes())
    raw[40] ^= 0xFF
    payload.write_bytes(bytes(raw))

    assert main(fsck_cmd) == 2
    captured = capsys.readouterr()
    assert "checksum_mismatch" in captured.out
    assert "--repair" in captured.err

    assert main(fsck_cmd + ["--repair"]) == 1
    assert "quarantined" in capsys.readouterr().out
    assert (store / "quarantine" / run_aug).exists()

    assert main(fsck_cmd) == 0


def test_store_fsck_json_output(stored_runs, capsys):
    import json

    store, _ = stored_runs
    assert main(["store", "fsck", "--store", str(store), "--json"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["clean"] is True
    assert payload["checked_runs"] == 2


def test_store_fsck_missing_store(tmp_path, capsys):
    code = main(["store", "fsck", "--store", str(tmp_path / "absent")])
    assert code == 2


def test_measure_salvage_flow(campaign_csv, tmp_path, capsys):
    """Corrupt checkpoint: --resume fails typed, --salvage recovers."""
    ck = tmp_path / "run.ckpt"
    base = ["measure", campaign_csv, "--tests", "5", "--seed", "4",
            "--checkpoint", str(ck)]
    assert main(base) == 0
    capsys.readouterr()

    raw = ck.read_bytes()
    ck.write_bytes(raw[: len(raw) // 2])

    assert main(base + ["--resume"]) == 1
    assert "--salvage" in capsys.readouterr().err

    assert main(base + ["--resume", "--salvage"]) == 0
    assert "measured 5/5 rows" in capsys.readouterr().out


def test_measure_salvage_requires_resume(campaign_csv, capsys):
    code = main(["measure", campaign_csv, "--salvage"])
    assert code == 2
    assert "--salvage" in capsys.readouterr().err


def test_fleet_day_store_flag(tmp_path, capsys):
    store = tmp_path / "runs"
    code = main(["fleet-day", "--users", "500", "--hours", "2",
                 "--store", str(store), "--store-month", "nov"])
    assert code == 0
    out = capsys.readouterr().out
    assert "stored run " in out
    capsys.readouterr()
    assert main(["runs", "ls", "--store", str(store),
                 "--kind", "fleet-day"]) == 0
    assert "fleet-day" in capsys.readouterr().out


# -- out-of-core: generate --format npd / --store, runs show -------------


def test_generate_npd_out_and_store(tmp_path, capsys):
    out = tmp_path / "camp.npd"
    store = tmp_path / "runs"
    code = main(["generate", "--n-tests", "4000", "--seed", "9",
                 "--year", "2020", "--out", str(out),
                 "--store", str(store), "--store-month", "aug"])
    assert code == 0
    captured = capsys.readouterr().out
    assert "generated 4000 tests" in captured
    assert "stored run " in captured
    mapped = Dataset.load(out)
    assert len(mapped) == 4000

    # The streamed per-tech stats printed must be bit-identical to the
    # in-memory path's.
    capsys.readouterr()
    assert main(["generate", "--n-tests", "4000", "--seed", "9",
                 "--year", "2020"]) == 0
    in_memory = capsys.readouterr().out.splitlines()[1:]
    streamed = [line for line in captured.splitlines()[1:]
                if line.startswith("  ")]
    assert streamed == in_memory


def test_generate_store_without_out_streams(tmp_path, capsys):
    store = tmp_path / "runs"
    code = main(["generate", "--n-tests", "3000", "--seed", "10",
                 "--store", str(store), "--store-month", "nov",
                 "--label", "streamed"])
    assert code == 0
    assert "stored run " in capsys.readouterr().out
    assert main(["runs", "ls", "--store", str(store)]) == 0
    listing = capsys.readouterr().out
    assert "streamed" in listing and "3000" in listing


def test_generate_store_month_requires_store(capsys):
    code = main(["generate", "--n-tests", "10", "--store-month", "aug"])
    assert code == 2
    assert "--store-month needs --store" in capsys.readouterr().err


def test_generate_npd_requires_out_or_store(capsys):
    code = main(["generate", "--n-tests", "10", "--format", "npd"])
    assert code == 2
    assert "--format npd needs --out or --store" in capsys.readouterr().err


def test_runs_show_schema_and_columns(tmp_path, capsys):
    store = tmp_path / "runs"
    main(["generate", "--n-tests", "2000", "--seed", "11",
          "--store", str(store), "--store-month", "aug"])
    capsys.readouterr()
    main(["runs", "ls", "--store", str(store)])
    run_id = capsys.readouterr().out.splitlines()[1].split()[0]
    code = main(["runs", "show", run_id, "--store", str(store),
                 "--columns", "tech,bandwidth_mbps"])
    assert code == 0
    shown = capsys.readouterr().out
    assert "layout npd" in shown
    assert "rows 2000" in shown
    assert "bandwidth_mbps   <f8" in shown
    assert "4G" in shown  # tech uniques
    assert "mean" in shown


def test_runs_show_rejects_unknown_column(tmp_path, capsys):
    store = tmp_path / "runs"
    main(["generate", "--n-tests", "100", "--seed", "12",
          "--store", str(store)])
    capsys.readouterr()
    main(["runs", "ls", "--store", str(store)])
    run_id = capsys.readouterr().out.splitlines()[1].split()[0]
    code = main(["runs", "show", run_id, "--store", str(store),
                 "--columns", "nope"])
    assert code == 2
    assert "unknown columns" in capsys.readouterr().err
