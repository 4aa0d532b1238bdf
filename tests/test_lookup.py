"""Point lookups read only their keys' rows: ``lookup`` prunes row groups
by their ``doc_id`` statistics, reads key columns first, and reads a
payload row group only where a key's live winner sits
(``stages.merge.read_keys``). Every case is checked against the oracle
or against the full fold of the lake filtered to the keys."""

import json

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
import ray

from rfb_cnpj_etl_ray.config import EngineConfig
from rfb_cnpj_etl_ray.hashing import partition_ids
from rfb_cnpj_etl_ray.oracle import assert_states_equal, replay
from rfb_cnpj_etl_ray.pipelines.ingest import (
    ingest,
    init_lake_from_dataset,
    lookup,
    read_lake_table,
)
from rfb_cnpj_etl_ray.spec import CHANGE_SCHEMA, PAYLOAD_SCHEMA, TableSpec
from rfb_cnpj_etl_ray.stages.merge import internal_schema, read_keys
from rfb_cnpj_etl_ray.state.commitlog import CommitLog, init_lake
from rfb_cnpj_etl_ray.synth import make_base

SPEC = TableSpec(name="sequences", schema=PAYLOAD_SCHEMA)
KEY_COLS = ["doc_id", "_lsn", "_deleted"]


def _filtered(state: pa.Table, keys) -> pa.Table:
    return state.filter(pc.is_in(state["doc_id"], value_set=pa.array(keys)))


def _append_segment(log_dir, events: pa.Table) -> None:
    """Publish ``events`` as the log's next segment."""
    log_dir.mkdir(parents=True, exist_ok=True)
    mpath = log_dir / "manifest.json"
    segs = json.loads(mpath.read_text())["segments"] if mpath.exists() else []
    name = f"seg-{len(segs):05d}.parquet"
    pq.write_table(events, log_dir / name)
    lsn = events["lsn"].to_pylist()
    segs.append({"name": name, "rows": events.num_rows,
                 "min_lsn": min(lsn), "max_lsn": max(lsn),
                 "bytes": (log_dir / name).stat().st_size})
    mpath.write_text(json.dumps({"segments": segs}))


def _events(rows: list[tuple], schema: pa.Schema = CHANGE_SCHEMA) -> pa.Table:
    """(lsn, op, doc_id, tokens) rows as change events."""
    return pa.Table.from_pylist([
        {"lsn": lsn, "op": op, "doc_id": d, "tokens": toks,
         "n_tok": None if toks is None else len(toks),
         "source": None if toks is None else "web"}
        for lsn, op, d, toks in rows], schema=schema)


def _spy_reads(monkeypatch) -> list[tuple]:
    """Record every row-group read as (row groups, columns) and every
    whole-file read as ("read", columns)."""
    calls = []
    one, many, whole = (pq.ParquetFile.read_row_group,
                        pq.ParquetFile.read_row_groups, pq.ParquetFile.read)

    def read_row_group(self, i, columns=None, **kw):
        calls.append(([i], columns))
        return one(self, i, columns=columns, **kw)

    def read_row_groups(self, groups, columns=None, **kw):
        calls.append((list(groups), columns))
        return many(self, groups, columns=columns, **kw)

    def read(self, columns=None, **kw):
        calls.append(("read", columns))
        return whole(self, columns=columns, **kw)

    monkeypatch.setattr(pq.ParquetFile, "read_row_group", read_row_group)
    monkeypatch.setattr(pq.ParquetFile, "read_row_groups", read_row_groups)
    monkeypatch.setattr(pq.ParquetFile, "read", read)
    return calls


def test_single_key_reads_one_row_group(tmp_path, monkeypatch):
    """One partition of more than two 64Ki-row row groups: a single-key
    lookup reads the key columns of the one row group whose statistics
    can hold the key, and that row group at full width."""
    base = make_base(140_000, seed=3, min_len=1, max_len=2)
    lake = tmp_path / "lake"
    init_lake(lake, SPEC, base=base, num_partitions=1)
    (rel,) = CommitLog(lake / "sequences").snapshot().files[0]
    assert pq.read_metadata(lake / "sequences" / rel).num_row_groups == 3
    state = read_lake_table(lake)

    calls = _spy_reads(monkeypatch)
    key = "doc00070000"  # row 70,000: the second row group
    out = lookup(lake, [key])
    assert calls == [([1], KEY_COLS), ([1], None)]
    assert out.num_rows == 1
    assert_states_equal(_filtered(state, [key]), out)

    calls.clear()
    assert lookup(lake, ["doc99999999"]).num_rows == 0  # above every group
    assert calls == []

    # keys in every row group: one full-width read per row group
    keys = ["doc00000005", "doc00065535", "doc00065536", "doc00139999",
            "doc0007000x"]
    calls.clear()
    assert_states_equal(_filtered(state, keys), lookup(lake, keys))
    assert [g for g, cols in calls if cols is None] == [[0], [1], [2]]


def test_lookup_winners_across_files(ray_session, tmp_path, monkeypatch):
    """Delta-mode files where the winner is not simply the newest row:
    a tombstone over a live base row, a late lower-LSN event in the
    newest delta, and one (doc_id, lsn) event applied from two files."""
    base = make_base(40, seed=5, min_len=1, max_len=4)
    lake, log_dir = tmp_path / "lake", tmp_path / "log"
    init_lake(lake, SPEC, base=base, num_partitions=2)
    cfg = EngineConfig(num_partitions=2, write_mode="delta")
    dead, late, dup, fresh = ("doc00000001", "doc00000002", "doc00000003",
                              "docNEW00001")
    batches = [
        _events([(100, "D", dead, None), (200, "U", late, [7, 7]),
                 (150, "I", fresh, [1])]),
        _events([(50, "U", late, [5])]),           # late: lower LSN
        _events([(300, "U", dup, [3, 3, 3])]),
        _events([(300, "U", dup, [3, 3, 3])]),     # same event again
    ]
    for ev in batches:
        _append_segment(log_dir, ev)
        ingest(lake, log_dir, cfg=cfg)
    snap = CommitLog(lake / "sequences").snapshot()
    p_late = int(partition_ids([late], 2)[0])
    landed = pq.read_table(
        lake / "sequences" / f"part={p_late:04d}" / "delta-000002.parquet")
    assert landed["doc_id"].to_pylist() == [late]  # the late row landed
    dup_files = [r for r in snap.files[int(partition_ids([dup], 2)[0])]
                 if dup in pq.read_table(lake / "sequences" / r,
                                         columns=["doc_id"])["doc_id"]
                 .to_pylist() and "delta" in r]
    assert len(dup_files) == 2

    expected = replay(base, pa.concat_tables(batches))
    keys = [dead, late, dup, fresh, "doc00000010", "docNOPE0000"]
    out = lookup(lake, keys)
    assert_states_equal(_filtered(expected, keys), out)
    assert dead not in out["doc_id"].to_pylist()
    assert out["doc_id"].to_pylist().count(dup) == 1
    row = out.filter(pc.equal(out["doc_id"], late)).to_pylist()[0]
    assert row["tokens"] == [7, 7]

    # the tombstone winner costs the key pass only: no full-width read
    calls = _spy_reads(monkeypatch)
    assert lookup(lake, [dead]).num_rows == 0
    assert calls and all(cols == KEY_COLS for _, cols in calls)
    # every key at once matches the full fold
    every = read_lake_table(lake)["doc_id"].to_pylist()
    assert_states_equal(read_lake_table(lake), lookup(lake, every))


def test_winner_in_pre_evolution_file(ray_session, tmp_path):
    """A key whose winner sits in a file written before a column was
    added gets nulls for that column."""
    base = make_base(30, seed=6, min_len=1, max_len=4)
    lake, log_dir = tmp_path / "lake", tmp_path / "log"
    init_lake(lake, SPEC, base=base, num_partitions=2)
    evolved = CHANGE_SCHEMA.append(pa.field("lang", pa.string()))
    ev = _events([(10, "U", "doc00000004", [4, 4])], evolved)
    ev = ev.set_column(ev.schema.get_field_index("lang"), "lang",
                       pa.array(["pt"]))
    _append_segment(log_dir, ev)
    ingest(lake, log_dir, cfg=EngineConfig(num_partitions=2,
                                           write_mode="delta"))
    keys = ["doc00000004", "doc00000005", "doc00000020"]
    out = lookup(lake, keys)
    assert "lang" in out.schema.names
    assert_states_equal(_filtered(replay(base, ev), keys), out)
    assert dict(zip(out["doc_id"].to_pylist(), out["lang"].to_pylist())) \
        == {"doc00000004": "pt", "doc00000005": None, "doc00000020": None}


def test_absent_hole_empty_and_repeated_keys(ray_session, tmp_path):
    base = make_base(3, seed=7, min_len=1, max_len=4)
    lake = tmp_path / "lake"
    init_lake_from_dataset(lake, SPEC, ray.data.from_arrow(base),
                           cfg=EngineConfig(num_partitions=16))
    snap = CommitLog(lake / "sequences").snapshot()
    holes = set(range(16)) - set(snap.files)
    assert holes
    candidates = [f"docHOLE{i:04d}" for i in range(200)]
    in_hole = [d for d, p in zip(candidates, partition_ids(candidates, 16))
               if int(p) in holes][:3]
    assert in_hole
    state = read_lake_table(lake)
    present = state["doc_id"].to_pylist()

    assert lookup(lake, in_hole).num_rows == 0
    assert lookup(lake, ["docNOPE0000", "doc99999999"]).num_rows == 0
    empty = lookup(lake, [])
    assert empty.num_rows == 0 and empty.schema == PAYLOAD_SCHEMA
    repeated = lookup(lake, [present[0], present[0], present[1], present[0]])
    assert_states_equal(_filtered(state, present[:2]), repeated)
    int_sch = internal_schema(PAYLOAD_SCHEMA)
    assert read_keys(str(snap.table_dir), [], int_sch, present).num_rows == 0

