"""F3 schema-evolution segments: column add, int widen, loud reject."""

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from rfb_cnpj_etl_ray.config import EngineConfig
from rfb_cnpj_etl_ray.oracle import assert_states_equal, replay
from rfb_cnpj_etl_ray.pipelines.ingest import ingest, read_lake_table
from rfb_cnpj_etl_ray.spec import (
    CHANGE_SCHEMA,
    PAYLOAD_SCHEMA,
    SchemaEvolutionError,
    TableSpec,
)
from rfb_cnpj_etl_ray.state.commitlog import CommitLog, init_lake
from rfb_cnpj_etl_ray.synth import make_base, make_changelog, write_changelog_segments

SPEC = TableSpec(name="sequences", schema=PAYLOAD_SCHEMA)


def _cast_events(events: pa.Table, schema: pa.Schema) -> pa.Table:
    from rfb_cnpj_etl_ray.spec import conform_table

    return conform_table(events, schema)


def test_add_column_evolution(ray_session, tmp_path):
    base = make_base(100, seed=1, max_len=32)
    ev1 = make_changelog(400, 100, seed=2, start_lsn=1000, max_len=32)
    # later segments add lang:string
    ev2 = make_changelog(400, 100, seed=3, start_lsn=2000, max_len=32)
    lang = pa.array(
        np.array(["pt", "en", "es"])[np.random.default_rng(4).integers(0, 3, 400)]
    )
    ev2 = ev2.append_column("lang", lang)

    log_dir = tmp_path / "log"
    write_changelog_segments(ev1, log_dir, 2, shuffle_seed=5)
    # append evolved segments to the same manifest
    import json

    m1 = json.loads((log_dir / "manifest.json").read_text())
    log2 = tmp_path / "log2"
    write_changelog_segments(ev2, log2, 2, shuffle_seed=6)
    m2 = json.loads((log2 / "manifest.json").read_text())
    for s in m2["segments"]:
        new_name = s["name"].replace("seg-000", "seg-100")
        (log2 / s["name"]).rename(log_dir / new_name)
        m1["segments"].append({**s, "name": new_name})
    (log_dir / "manifest.json").write_text(json.dumps(m1))

    lake = tmp_path / "lake"
    init_lake(lake, SPEC, base=base, num_partitions=4)
    ingest(lake, log_dir, cfg=EngineConfig(num_partitions=4))

    out = read_lake_table(lake)
    assert "lang" in out.schema.names
    # oracle over the union of both event tables
    from rfb_cnpj_etl_ray.spec import evolve_schema

    evolved = evolve_schema(CHANGE_SCHEMA, ev2.schema)
    all_ev = pa.concat_tables(
        [_cast_events(ev1, evolved), _cast_events(ev2, evolved)]
    )
    assert_states_equal(replay(base, all_ev), out)
    # committed schema recorded the evolution
    sch = CommitLog(lake / "sequences").snapshot().schema
    assert sch.field("lang").type == pa.string()


def test_widen_evolution(ray_session, tmp_path):
    """n_tok arrives int16 in early segments, int32 later — table stays
    int32 and values cast up losslessly."""
    base = make_base(50, seed=1, max_len=32)
    ev = make_changelog(200, 50, seed=2, start_lsn=1000, max_len=32)
    narrow_schema = pa.schema(
        [
            pa.field("lsn", pa.int64()),
            pa.field("op", pa.string()),
            pa.field("doc_id", pa.string()),
            pa.field("tokens", pa.list_(pa.int32())),
            pa.field("n_tok", pa.int16()),
            pa.field("source", pa.string()),
        ]
    )
    ev_narrow = _cast_events(ev, narrow_schema)
    log_dir = tmp_path / "log"
    write_changelog_segments(ev_narrow, log_dir, 2, shuffle_seed=3)

    lake = tmp_path / "lake"
    init_lake(lake, SPEC, base=base, num_partitions=4)
    ingest(lake, log_dir, cfg=EngineConfig(num_partitions=4))
    out = read_lake_table(lake)
    assert out.schema.field("n_tok").type == pa.int32()
    assert_states_equal(replay(base, ev), out)


def test_evolution_survives_sigkill_and_dup_batch(ray_session, tmp_path):
    """The north rule's three robustness criteria in ONE replay: later
    segments add a column (schema evolution), a real ingest subprocess is
    SIGKILLed mid-flight (crash-restart), the resumed ingest converges,
    and a full re-ingest of the same log (duplicated batches) is a noop —
    final state matches the oracle replay over the evolved event union."""
    import json
    import os
    import signal
    import subprocess
    import sys
    import time

    base = make_base(1500, seed=40, max_len=32)
    ev1 = make_changelog(15000, 1500, seed=41, start_lsn=1000, max_len=32)
    ev2 = make_changelog(15000, 1500, seed=42, start_lsn=20000, max_len=32)
    lang = pa.array(
        np.array(["pt", "en", "es"])[np.random.default_rng(43).integers(0, 3, 15000)]
    )
    ev2 = ev2.append_column("lang", lang)

    log_dir = tmp_path / "log"
    write_changelog_segments(ev1, log_dir, 3, shuffle_seed=44)
    m1 = json.loads((log_dir / "manifest.json").read_text())
    log2 = tmp_path / "log2"
    write_changelog_segments(ev2, log2, 3, shuffle_seed=45)
    m2 = json.loads((log2 / "manifest.json").read_text())
    for s in m2["segments"]:
        new_name = s["name"].replace("seg-000", "seg-100")
        (log2 / s["name"]).rename(log_dir / new_name)
        m1["segments"].append({**s, "name": new_name})
    (log_dir / "manifest.json").write_text(json.dumps(m1))

    lake = tmp_path / "lake"
    init_lake(lake, SPEC, base=base, num_partitions=8)

    repo = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    env = dict(os.environ, PYTHONPATH=repo)
    proc = subprocess.Popen(
        [sys.executable, "-m", "rfb_cnpj_etl_ray.cli", "--num-cpus", "4",
         "ingest", str(lake), str(log_dir), "--batch-size", "2048"],
        env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        start_new_session=True,
    )
    # kill only once the subprocess has demonstrably written staged
    # exchange files — a fixed sleep can land before ray.init finishes
    # (kill exercises nothing) or after the ingest completes
    staging = lake / "sequences" / "_staging"
    deadline = time.monotonic() + 60.0
    saw_midflight = False
    while time.monotonic() < deadline and proc.poll() is None:
        if any(staging.rglob("*")) if staging.exists() else False:
            saw_midflight = True
            break
        time.sleep(0.1)
    assert saw_midflight, (
        "ingest subprocess finished or timed out before staging any "
        "files — the kill would not exercise crash-restart")
    time.sleep(0.5)  # let the merge phase begin for some partitions
    if proc.poll() is None:
        os.killpg(proc.pid, signal.SIGKILL)
    proc.wait()
    time.sleep(1.0)

    cfg = EngineConfig(num_partitions=8)
    ingest(lake, log_dir, cfg=cfg)  # resume after the crash
    dup = ingest(lake, log_dir, cfg=cfg)  # duplicated batch: must be a noop
    assert dup["noop"]

    from rfb_cnpj_etl_ray.spec import evolve_schema

    evolved = evolve_schema(CHANGE_SCHEMA, ev2.schema)
    all_ev = pa.concat_tables(
        [_cast_events(ev1, evolved), _cast_events(ev2, evolved)]
    )
    out = read_lake_table(lake)
    assert "lang" in out.schema.names
    assert_states_equal(replay(base, all_ev), out)
    sch = CommitLog(lake / "sequences").snapshot().schema
    assert sch.field("lang").type == pa.string()


def test_narrowing_rejected_loudly(ray_session, tmp_path):
    """A segment with n_tok:string must fail the ingest before any write."""
    base = make_base(20, seed=1, max_len=16)
    ev = make_changelog(50, 20, seed=2, start_lsn=1000, max_len=16)
    bad = ev.set_column(
        ev.schema.get_field_index("n_tok"),
        pa.field("n_tok", pa.string()),
        pa.array([str(x) if x is not None else None for x in ev.column("n_tok").to_pylist()]),
    )
    log_dir = tmp_path / "log"
    write_changelog_segments(bad, log_dir, 1, shuffle_seed=3)
    lake = tmp_path / "lake"
    init_lake(lake, SPEC, base=base, num_partitions=2)
    with pytest.raises(SchemaEvolutionError):
        ingest(lake, log_dir, cfg=EngineConfig(num_partitions=2))
    # nothing committed
    assert CommitLog(lake / "sequences").snapshot().epoch == 0
