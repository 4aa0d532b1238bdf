"""Property-style randomized conformance: seeded random event streams
(varying op mix, skew, sizes, segment shuffling, multi-epoch splits)
must always reproduce the oracle's final state (SURVEY.md §5)."""

import json

import pytest

from rfb_cnpj_etl_ray.config import EngineConfig
from rfb_cnpj_etl_ray.oracle import assert_states_equal, replay
from rfb_cnpj_etl_ray.pipelines.ingest import ingest, read_lake_table
from rfb_cnpj_etl_ray.spec import PAYLOAD_SCHEMA, TableSpec
from rfb_cnpj_etl_ray.state.commitlog import init_lake
from rfb_cnpj_etl_ray.synth import make_base, make_changelog, write_changelog_segments

SPEC = TableSpec(name="sequences", schema=PAYLOAD_SCHEMA)

SCENARIOS = [
    # (seed, n_docs, n_events, op_mix, zipf_a, n_segments, epochs, write_mode)
    (101, 50, 500, (0.6, 0.3, 0.1), 1.1, 3, 1, "cow"),
    (202, 10, 2000, (0.2, 0.5, 0.3), 1.05, 5, 2, "cow"),   # heavy U/D, tiny keyspace
    (303, 500, 1000, (0.9, 0.05, 0.05), 2.0, 2, 1, "cow"),  # insert-heavy, hot keys
    (404, 100, 1500, (0.1, 0.1, 0.8), 1.2, 4, 3, "cow"),    # delete-storm
    (505, 1, 800, (0.4, 0.4, 0.2), 1.1, 3, 1, "cow"),       # single-key pathological
    # hot single keys + delete-heavy mix, in both write modes
    (611, 30, 1200, (0.3, 0.4, 0.3), 1.05, 3, 1, "cow"),
    (622, 30, 1200, (0.3, 0.4, 0.3), 1.05, 3, 1, "delta"),
    (633, 30, 1200, (0.3, 0.4, 0.3), 1.05, 3, 1, "cow"),
]


@pytest.mark.parametrize(
    "seed,n_docs,n_events,op_mix,zipf_a,n_segments,epochs,write_mode",
    SCENARIOS,
    ids=[str(s[0]) for s in SCENARIOS],
)
def test_random_stream_matches_oracle(
    ray_session, tmp_path, seed, n_docs, n_events, op_mix, zipf_a,
    n_segments, epochs, write_mode,
):
    base = make_base(n_docs, seed=seed, max_len=24)
    events = make_changelog(
        n_events, n_docs, seed=seed + 1, op_mix=op_mix, zipf_a=zipf_a,
        max_len=24,
    )
    log_dir = tmp_path / "log"
    manifest = write_changelog_segments(events, log_dir, n_segments,
                                        shuffle_seed=seed + 2)
    lake = tmp_path / "lake"
    cfg = EngineConfig(num_partitions=4, write_mode=write_mode)
    init_lake(lake, SPEC, base=base, num_partitions=4)

    full = manifest["segments"]
    for k in range(epochs):
        upto = (k + 1) * len(full) // epochs
        manifest["segments"] = full[:upto]
        (log_dir / "manifest.json").write_text(json.dumps(manifest))
        ingest(lake, log_dir, cfg=cfg)

    assert_states_equal(replay(base, events), read_lake_table(lake))


def test_cli_end_to_end(ray_session, tmp_path, capsys):
    """synth → init → ingest → validate → compact through the CLI main()
    (sharing the session fixture's Ray)."""
    from rfb_cnpj_etl_ray.cli import main

    data = tmp_path / "data"
    assert main(["synth", str(data), "--docs", "100", "--events", "400",
                 "--segments", "2"]) == 0
    lake = tmp_path / "lake"
    assert main(["init", str(lake), str(data / "base.parquet"),
                 "--num-partitions", "4"]) == 0
    assert main(["ingest", str(lake), str(data / "log")]) == 0
    assert main(["validate", str(lake), "--log-dir", str(data / "log")]) == 0
    assert main(["compact", str(lake)]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    ingest_report = json.loads(out[2])
    assert ingest_report["events_read"] == 400
    validate_report = json.loads(out[3])
    assert validate_report["lake"]["ok"]


def test_cli_new_commands(ray_session, tmp_path, capsys):
    """fetch → init → ingest (delta) → compact-deltas → export through
    the CLI main()."""
    from rfb_cnpj_etl_ray.cli import main

    data = tmp_path / "data"
    assert main(["synth", str(data), "--docs", "100", "--events", "400",
                 "--segments", "2"]) == 0
    # mirror the log via the fetcher (resume-capable path)
    assert main(["fetch", str(data / "log"), str(tmp_path / "mirror")]) == 0
    lake = tmp_path / "lake"
    assert main(["init", str(lake), str(data / "base.parquet"),
                 "--num-partitions", "4"]) == 0
    assert main(["ingest", str(lake), str(tmp_path / "mirror"),
                 "--write-mode", "delta"]) == 0
    assert main(["compact-deltas", str(lake),
                 "--min-delta-ratio", "0.0"]) == 0
    assert main(["export", str(lake), str(tmp_path / "out"),
                 "--sink", "parquet"]) == 0
    out = capsys.readouterr().out.strip().splitlines()
    assert json.loads(out[-1])["partitions"] >= 1
    assert (tmp_path / "out" / "_manifest.json").exists()
