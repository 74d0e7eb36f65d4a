"""The generator's stream contract: ``iter_campaign_chunks`` yields the
dtypes a ``.npd`` payload stores, and every path from the generator to
disk writes the same bytes.

The stream spells each string column as the fixed-width ``U`` array
that ``astype("U")`` of :func:`generate_campaign`'s ``object`` column
gives for the same rows, so ``DatasetWriter`` stores it without a
cast, while an in-memory dataset's chunks still go through the
writer's object cast.  Both must land on the same files.
"""

import hashlib

import pytest

from repro.dataset.generator import (
    CampaignConfig,
    generate_campaign,
    iter_campaign_chunks,
)
from repro.dataset.ooc import open_mapped, write_npd
from repro.dataset.records import SCHEMA, Dataset
from repro.store import RunStore

#: Years, the home-path model, and the seeds at the two ends of the
#: seed range, in four campaigns.
CONFIGS = [
    dict(year=2020, home_path=False, seed=0),
    dict(year=2021, home_path=True, seed=2**64 - 1),
    dict(year=2020, home_path=True, seed=2**64 - 1),
    dict(year=2021, home_path=False, seed=0),
]

#: Rows per campaign at each chunk size: several chunks each, the last
#: one partial.
ROWS_AT_CHUNK_SIZE = {1: 60, 7: 2_000, 4_096: 20_000, 65_536: 140_000}

#: One small campaign's ``.npd`` files and store run id, pinned so the
#: streamed and in-memory paths cannot drift together: the sha256 of
#: its sorted ``"<file> <sha256>\n"`` lines, and the run id that
#: ``ingest_chunks`` gives it under :data:`PINNED_MANIFEST`.
PINNED_CONFIG = dict(year=2021, n_tests=2_000, seed=2**64 - 1, home_path=True)
PINNED_NPD_SHA256 = (
    "b666a9831dec3df0dfff61b2db0c1a55a76e1c5f5cde19768ac75b1157a7b43d"
)
PINNED_MANIFEST = {
    "kind": "campaign",
    "seed": 7,
    "created_unix_s": 1_659_312_000.0,
    "run": {"n_rows": 2_000},
}
PINNED_RUN_ID = "e37513b07e4a"


def config_of(params, chunk_size):
    return CampaignConfig(n_tests=ROWS_AT_CHUNK_SIZE[chunk_size], **params)


def config_id(params):
    return "{year}-{home}-seed{seed:x}".format(
        home="home" if params["home_path"] else "plain", **params
    )


def file_bytes(path):
    return {child.name: child.read_bytes() for child in path.iterdir()}


def npd_digest(path):
    lines = "".join(
        f"{child.name} {hashlib.sha256(child.read_bytes()).hexdigest()}\n"
        for child in sorted(path.iterdir())
    )
    return hashlib.sha256(lines.encode()).hexdigest()


@pytest.mark.parametrize("chunk_size", sorted(ROWS_AT_CHUNK_SIZE))
@pytest.mark.parametrize("params", CONFIGS, ids=config_id)
def test_streamed_npd_equals_in_memory_npd(tmp_path, params, chunk_size):
    """``write_npd`` over the stream writes, file for file and byte for
    byte, what the in-memory dataset writes through the object cast."""
    config = config_of(params, chunk_size)
    write_npd(
        tmp_path / "stream.npd",
        iter_campaign_chunks(config, chunk_size=chunk_size),
    )
    generate_campaign(config).to_npd(tmp_path / "memory.npd")
    streamed = file_bytes(tmp_path / "stream.npd")
    assert streamed == file_bytes(tmp_path / "memory.npd")
    assert set(streamed) == {f"{name}.npy" for name in SCHEMA} | {
        "_meta.json"
    }


@pytest.mark.parametrize("chunk_size", sorted(ROWS_AT_CHUNK_SIZE))
@pytest.mark.parametrize("params", CONFIGS, ids=config_id)
def test_streamed_chunks_have_payload_dtypes(tmp_path, params, chunk_size):
    """Every chunk is ``astype("U")`` of the in-memory rows, widths
    included, and its dtypes are those a mapped ``.npd`` of the same
    rows yields (checked through the disk for the first, second and
    last chunks)."""
    config = config_of(params, chunk_size)
    memory = generate_campaign(config)
    streamed = list(iter_campaign_chunks(config, chunk_size=chunk_size))
    rows = list(memory.iter_chunks(chunk_size=chunk_size))
    assert len(streamed) == len(rows)
    for chunk, same_rows in zip(streamed, rows):
        for name, dtype in SCHEMA.items():
            expected = same_rows[name]
            if dtype is object:
                assert expected.dtype == object
                expected = expected.astype("U")
            assert chunk[name].dtype == expected.dtype, name
            assert chunk[name].tobytes() == expected.tobytes(), name
    for k in sorted({0, 1, len(rows) - 1} & set(range(len(rows)))):
        path = tmp_path / f"chunk{k}.npd"
        Dataset(rows[k]).to_npd(path)
        (mapped,) = open_mapped(path).iter_chunks(chunk_size=chunk_size)
        assert {name: streamed[k][name].dtype for name in SCHEMA} == {
            name: mapped[name].dtype for name in SCHEMA
        }


@pytest.mark.parametrize("params", CONFIGS, ids=config_id)
def test_ingest_chunks_run_id_is_chunk_size_free(tmp_path, params):
    config = CampaignConfig(n_tests=5_000, **params)
    manifest = dict(PINNED_MANIFEST, run={"n_rows": config.n_tests})
    run_ids = set()
    for chunk_size in (17, 65_536):
        with RunStore.open(tmp_path / f"store{chunk_size}") as store:
            run_ids.add(store.ingest_chunks(
                manifest, iter_campaign_chunks(config, chunk_size=chunk_size),
                month="aug",
            ))
    assert len(run_ids) == 1


def test_pinned_campaign_npd_and_run_id(tmp_path):
    config = CampaignConfig(**PINNED_CONFIG)
    write_npd(tmp_path / "stream.npd",
              iter_campaign_chunks(config, chunk_size=700))
    generate_campaign(config).to_npd(tmp_path / "memory.npd")
    assert npd_digest(tmp_path / "stream.npd") == PINNED_NPD_SHA256
    assert npd_digest(tmp_path / "memory.npd") == PINNED_NPD_SHA256
    with RunStore.open(tmp_path / "store") as store:
        run_id = store.ingest_chunks(
            PINNED_MANIFEST, iter_campaign_chunks(config, chunk_size=700),
            month="aug",
        )
    assert run_id == PINNED_RUN_ID
