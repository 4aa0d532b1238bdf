"""Multiple logical tables in one lake, each with its own spec, change
log and commit history (the reference manages 10 tables off one SCHEMA
dict; the engine's TableSpec registry does the same as data)."""

import pyarrow as pa

from rfb_cnpj_etl_ray.config import EngineConfig
from rfb_cnpj_etl_ray.oracle import assert_states_equal, replay
from rfb_cnpj_etl_ray.pipelines.ingest import ingest, read_lake_table
from rfb_cnpj_etl_ray.spec import PAYLOAD_SCHEMA, TableSpec
from rfb_cnpj_etl_ray.state.commitlog import CommitLog, init_lake
from rfb_cnpj_etl_ray.synth import make_base, make_changelog, write_changelog_segments

ALT_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.string()),
        pa.field("tokens", pa.list_(pa.int32())),
        pa.field("n_tok", pa.int32()),
        pa.field("source", pa.string()),
        pa.field("lang", pa.string()),
    ]
)


def test_two_tables_independent_logs(ray_session, tmp_path):
    cfg = EngineConfig(num_partitions=4)
    specs = {
        "sequences": TableSpec(name="sequences", schema=PAYLOAD_SCHEMA),
        "sequences_eu": TableSpec(name="sequences_eu", schema=PAYLOAD_SCHEMA),
    }
    states = {}
    for i, (name, spec) in enumerate(specs.items()):
        base = make_base(100, seed=20 + i, max_len=16)
        events = make_changelog(500, 100, seed=30 + i, max_len=16)
        log_dir = tmp_path / f"log_{name}"
        write_changelog_segments(events, log_dir, 2)
        init_lake(tmp_path / "lake", spec, base=base, num_partitions=4)
        ingest(tmp_path / "lake", log_dir, table=name, cfg=cfg)
        states[name] = replay(base, events)
    for name in specs:
        assert_states_equal(states[name], read_lake_table(tmp_path / "lake", name))
        # independent commit histories
        assert CommitLog(tmp_path / "lake" / name).snapshot().epoch == 1


def test_read_lake_column_pruning(ray_session, tmp_path):
    from rfb_cnpj_etl_ray.pipelines.ingest import read_lake

    base = make_base(100, seed=40, max_len=16)
    events = make_changelog(300, 100, seed=41, max_len=16)
    log_dir = tmp_path / "log"
    write_changelog_segments(events, log_dir, 2)
    lake = tmp_path / "lake"
    init_lake(lake, TableSpec(name="sequences", schema=PAYLOAD_SCHEMA),
              base=base, num_partitions=4)
    ingest(lake, log_dir, cfg=EngineConfig(num_partitions=4))
    ds = read_lake(lake, columns=["doc_id", "n_tok"])
    assert set(ds.schema().names) == {"doc_id", "n_tok"}
    expected = replay(base, events)
    assert ds.count() == expected.num_rows
    got = dict(ds.to_pandas().itertuples(index=False, name=None))
    want = dict(zip(expected["doc_id"].to_pylist(),
                    expected["n_tok"].to_pylist()))
    assert got == want
