"""CSV/zip source parity (S5/S6), validation gate (P8 analog),
compaction + GC invariant."""

import io
import json
import zipfile

import pyarrow as pa
import pyarrow.compute as pc
import pytest

from rfb_cnpj_etl_ray.config import EngineConfig
from rfb_cnpj_etl_ray.oracle import assert_states_equal, replay
from rfb_cnpj_etl_ray.pipelines.ingest import ingest, read_lake_table
from rfb_cnpj_etl_ray.pipelines.maintenance import (
    LakeValidationError,
    compact,
    validate_lake,
)
from rfb_cnpj_etl_ray.sources.csv_source import (
    read_csv_files,
    read_zip_csv,
    route_targets,
)
from rfb_cnpj_etl_ray.spec import PAYLOAD_SCHEMA, TableSpec
from rfb_cnpj_etl_ray.state.commitlog import CommitLog, init_lake
from rfb_cnpj_etl_ray.synth import make_base, make_changelog, write_changelog_segments

SPEC = TableSpec(name="sequences", schema=PAYLOAD_SCHEMA)


# --- S6 routing -----------------------------------------------------------

def test_route_targets_strips_digits_and_multitargets():
    registry = {
        "empresa": TableSpec("empresa", PAYLOAD_SCHEMA,
                             source_file_stems=("empresas",)),
        "estabelecimento": TableSpec("estabelecimento", PAYLOAD_SCHEMA,
                                     source_file_stems=("estabelecimentos",)),
        "estab_cnae": TableSpec("estab_cnae", PAYLOAD_SCHEMA,
                                source_file_stems=("estabelecimentos",)),
    }
    assert route_targets("Empresas3.zip", registry) == ["empresa"]
    # one file feeds several tables (db_batch_producer.py:18-28)
    assert route_targets("Estabelecimentos12.zip", registry) == [
        "estabelecimento", "estab_cnae"
    ]
    assert route_targets("Unknown5.zip", registry) == []


# --- S5 zip/CSV reader ----------------------------------------------------

def _make_zip(members: dict[str, str]) -> bytes:
    buf = io.BytesIO()
    with zipfile.ZipFile(buf, "w") as zf:
        for name, text in members.items():
            zf.writestr(name, text.encode("latin-1"))
    return buf.getvalue()


def test_read_zip_csv_latin1_headerless(ray_session, tmp_path):
    cols = ["cnpj_basico", "razao_social", "capital_social"]
    z1 = _make_zip({
        "K3241.K03200Y0.D50510.EMPRECSV": "111;ACME AÇAÍ;1.234,56\n222;Beta;0\n",
        "second_member": "333;Gamma;9,99\n",
    })
    (tmp_path / "Empresas0.zip").write_bytes(z1)
    ds = read_zip_csv([str(tmp_path / "Empresas0.zip")], cols)
    out = ds.to_pandas().sort_values("cnpj_basico").reset_index(drop=True)
    assert list(out.columns) == cols
    assert out["razao_social"].tolist() == ["ACME AÇAÍ", "Beta", "Gamma"]
    assert out["capital_social"].tolist() == ["1.234,56", "0", "9,99"]


def test_read_csv_files_plain(ray_session, tmp_path):
    f = tmp_path / "socio1.csv"
    f.write_bytes("1;José;20200101\n2;Ana;0\n".encode("latin-1"))
    ds = read_csv_files([str(f)], ["id", "nome", "data_entrada"])
    out = ds.to_pandas().sort_values("id")
    assert out["nome"].tolist() == ["José", "Ana"]


# --- P8 validation gate ---------------------------------------------------

def _mk_lake(tmp_path, n_docs=200, n_events=1000, num_partitions=4):
    base = make_base(n_docs, seed=5, max_len=32)
    events = make_changelog(n_events, n_docs, seed=6, max_len=32)
    log_dir = tmp_path / "log"
    write_changelog_segments(events, log_dir, 4)
    lake = tmp_path / "lake"
    cfg = EngineConfig(num_partitions=num_partitions)
    init_lake(lake, SPEC, base=base, num_partitions=num_partitions)
    ingest(lake, log_dir, cfg=cfg)
    return base, events, log_dir, lake, cfg


def test_validate_lake_passes_on_healthy_table(ray_session, tmp_path):
    *_, lake, cfg = _mk_lake(tmp_path)
    report = validate_lake(lake)
    assert report["ok"] and not report["violations"]
    assert report["partitions_checked"] == 4


def test_validate_lake_detects_corruption(ray_session, tmp_path):
    *_, lake, cfg = _mk_lake(tmp_path)
    # corrupt: overwrite one partition file with rows from another part
    log = CommitLog(lake / "sequences")
    files = log.snapshot().files
    import shutil

    shutil.copy(log.table_dir / files[1][0], log.table_dir / files[0][0])
    with pytest.raises(LakeValidationError):
        validate_lake(lake)
    report = validate_lake(lake, strict=False)
    assert 0 in report["violations"]
    assert any("misplaced" in v or "rowcount" in v
               for v in report["violations"][0])


# --- compaction + GC invariant -------------------------------------------

def test_compact_drops_tombstones_preserves_live_state(ray_session, tmp_path):
    base, events, log_dir, lake, cfg = _mk_lake(tmp_path)
    before = read_lake_table(lake)
    # tombstones exist (op mix has 10% deletes)
    log = CommitLog(lake / "sequences")
    total_rows = sum(v["rows"] for v in log.latest()["partitions"].values())
    assert total_rows > before.num_rows
    r = compact(lake)
    assert r["tombstones_dropped"] == total_rows - before.num_rows
    after = read_lake_table(lake)
    assert_states_equal(before, after)
    log2 = CommitLog(lake / "sequences")
    assert log2.latest()["compaction_watermark"] == r["watermark_lsn"]
    assert sum(v["rows"] for v in log2.latest()["partitions"].values()) \
        == before.num_rows


def test_post_compaction_ingest_drops_late_events(ray_session, tmp_path):
    """After GC, a late segment below the watermark must be ignored (not
    resurrect deleted keys), while events above it still apply."""
    base, events, log_dir, lake, cfg = _mk_lake(tmp_path)
    state = read_lake_table(lake)
    r = compact(lake)
    wm = r["watermark_lsn"]
    # craft a late segment: one event BELOW the watermark targeting a
    # deleted doc (would resurrect), one ABOVE it (a fresh insert)
    deleted_docs = sorted(
        set(events.filter(pc.equal(events["op"], "D"))["doc_id"].to_pylist())
        - set(state["doc_id"].to_pylist())
    )
    late = pa.Table.from_pylist(
        [
            {"lsn": wm - 1, "op": "U", "doc_id": deleted_docs[0],
             "tokens": [1, 2], "n_tok": 2, "source": "web"},
            {"lsn": wm + 1000, "op": "I", "doc_id": "docFRESH01",
             "tokens": [7], "n_tok": 1, "source": "web"},
        ],
        schema=events.schema,
    )
    import pyarrow.parquet as pq

    seg = log_dir / "seg-90000.parquet"
    pq.write_table(late, seg)
    manifest = json.loads((log_dir / "manifest.json").read_text())
    manifest["segments"].append({
        "name": seg.name, "rows": 2, "min_lsn": wm - 1,
        "max_lsn": wm + 1000, "bytes": seg.stat().st_size,
    })
    (log_dir / "manifest.json").write_text(json.dumps(manifest))
    ingest(lake, log_dir, cfg=cfg)
    after = read_lake_table(lake)
    ids = set(after["doc_id"].to_pylist())
    assert "docFRESH01" in ids          # above watermark: applied
    assert deleted_docs[0] not in ids   # below watermark: dropped (GC safety)


def test_late_drop_count_reported(ray_session, tmp_path):
    """The ingest report counts GC-watermark-dropped late events."""
    base, events, log_dir, lake, cfg = _mk_lake(tmp_path)
    compact(lake)
    wm = CommitLog(lake / "sequences").latest()["compaction_watermark"]
    late = pa.Table.from_pylist(
        [{"lsn": wm - 5, "op": "U", "doc_id": "doc00000001",
          "tokens": [1], "n_tok": 1, "source": "web"},
         {"lsn": wm + 77, "op": "I", "doc_id": "docNEW00001",
          "tokens": [2], "n_tok": 1, "source": "web"}],
        schema=events.schema,
    )
    import pyarrow.parquet as pq

    seg = log_dir / "seg-91000.parquet"
    pq.write_table(late, seg)
    manifest = json.loads((log_dir / "manifest.json").read_text())
    manifest["segments"].append({"name": seg.name, "rows": 2,
                                 "min_lsn": wm - 5, "max_lsn": wm + 77,
                                 "bytes": seg.stat().st_size})
    (log_dir / "manifest.json").write_text(json.dumps(manifest))
    report = ingest(lake, log_dir, cfg=cfg)
    assert report["events_dropped_late"] == 1


def test_repartition_lake_preserves_state_and_routing(ray_session, tmp_path):
    """4 -> 8 partitions: state identical, placement invariant holds under
    the new modulus, and subsequent ingests keep working."""
    from rfb_cnpj_etl_ray.pipelines.maintenance import repartition_lake

    base, events, log_dir, lake, cfg = _mk_lake(tmp_path)
    before = read_lake_table(lake)
    r = repartition_lake(lake, 8)
    assert r["num_partitions"] == 8
    assert_states_equal(before, read_lake_table(lake))
    assert validate_lake(lake)["ok"]  # placement under new modulus
    # further ingest routes with the new modulus
    extra = make_changelog(200, 200, seed=99, start_lsn=5_000_000, max_len=32)
    write_changelog_segments(extra, tmp_path / "log2", 1)
    ingest(lake, tmp_path / "log2", cfg=EngineConfig(num_partitions=8))
    assert validate_lake(lake)["ok"]
    import pyarrow as pa_

    all_events = pa.concat_tables([events, extra])
    assert_states_equal(replay(base, all_events), read_lake_table(lake))


def test_partition_count_below_one_is_rejected(ray_session, tmp_path):
    """init_lake and repartition_lake refuse num_partitions < 1 before
    any write: ``x % 0`` would route every row to partition 0, and an
    init with zero partitions would commit an epoch holding no rows."""
    from rfb_cnpj_etl_ray.pipelines.maintenance import repartition_lake

    fresh = tmp_path / "fresh"
    with pytest.raises(ValueError, match=r"num_partitions must be >= 1"):
        init_lake(fresh, SPEC, base=make_base(10, seed=1), num_partitions=0)
    assert not fresh.exists()

    base, events, log_dir, lake, cfg = _mk_lake(tmp_path)
    table_dir = lake / "sequences"
    epoch = CommitLog(table_dir).snapshot().epoch
    before = read_lake_table(lake)
    with pytest.raises(ValueError, match=r"num_partitions must be >= 1"):
        repartition_lake(lake, 0)
    assert CommitLog(table_dir).snapshot().epoch == epoch
    assert not list(table_dir.glob(f"part=*/*-{epoch + 1:06d}.parquet"))
    assert_states_equal(before, read_lake_table(lake))


def test_delta_ingest_into_partition_hole(ray_session, tmp_path):
    """init_lake_distributed only writes entries for partitions the base
    touches; a later delta-mode ingest into an untouched partition must
    promote its first delta to the base snapshot (never a null 'file'),
    and every reader must work afterwards."""
    import pyarrow.parquet as pq

    from rfb_cnpj_etl_ray.pipelines.ingest import (
        init_lake_distributed,
        lookup,
        read_lake,
    )

    # single-doc base -> exactly one of 4 partitions gets an entry
    base = make_base(1, seed=3, max_len=8)
    base_path = tmp_path / "base.parquet"
    pq.write_table(base, base_path)
    lake = tmp_path / "lake"
    cfg = EngineConfig(num_partitions=4, write_mode="delta")
    init_lake_distributed(lake, SPEC, [str(base_path)], cfg=cfg)
    holes = 4 - len(CommitLog(lake / "sequences").latest()["partitions"])
    assert holes >= 1  # the scenario is real

    events = make_changelog(200, 50, seed=5, max_len=8)
    log_dir = tmp_path / "log"
    write_changelog_segments(events, log_dir, 2)
    ingest(lake, log_dir, cfg=cfg)

    c = CommitLog(lake / "sequences").latest()
    assert all(v.get("file") is not None for v in c["partitions"].values())
    expected = replay(base, events)
    assert_states_equal(expected, read_lake_table(lake))
    assert read_lake(lake).count() == expected.num_rows
    assert validate_lake(lake)["ok"]
    some = expected["doc_id"].to_pylist()[:3]
    assert lookup(lake, some).num_rows == len(some)


def test_numeric_br_requires_digit():
    """Digit-free strings like ',' or '.,' must pass through untouched
    (reference guard: isdigit() on the stripped value)."""
    from rfb_cnpj_etl_ray.stages.sanitize import normalize_numeric_br

    t = pa.table({"v": [",", ".,", "1.234,56", "12,5", "a,b", None]})
    out = normalize_numeric_br(t, ["v"])["v"].to_pylist()
    assert out == [",", ".,", "1234.56", "12.5", "a,b", None]


# --- pluggable sinks (export surface) -------------------------------------

def test_export_lake_through_registered_sinks(ray_session, tmp_path):
    import json as _json

    import pyarrow.parquet as _pq

    from rfb_cnpj_etl_ray.sinks import export_lake

    base, events, log_dir, lake, cfg = _mk_lake(tmp_path)
    expected = read_lake_table(lake)

    r = export_lake(lake, tmp_path / "out_parquet", sink="parquet")
    assert r["rows"] == expected.num_rows
    manifest = _json.loads((tmp_path / "out_parquet" / "_manifest.json").read_text())
    files = [tmp_path / "out_parquet" / p["file"] for p in manifest["partitions"]]
    got = pa.concat_tables([_pq.read_table(f) for f in files]) \
        .sort_by([("doc_id", "ascending")])
    assert got.equals(expected)

    r2 = export_lake(lake, tmp_path / "out_ipc", sink="ipc")
    assert r2["rows"] == expected.num_rows
    with pytest.raises(ValueError, match="unknown sink"):
        export_lake(lake, tmp_path / "nope", sink="mysql")


def test_gc_snapshots_removes_superseded_epochs(ray_session, tmp_path):
    import json as _json

    from rfb_cnpj_etl_ray.pipelines.maintenance import gc_snapshots

    base, events, log_dir, lake, cfg = _mk_lake(tmp_path)
    # second epoch: a fresh segment → every touched partition gets a new
    # snapshot; epoch-0/1 files become superseded
    extra = make_changelog(200, 100, seed=77, max_len=16,
                           start_lsn=50_000_000)
    log2 = tmp_path / "log2"
    write_changelog_segments(extra, log2, 1)
    ingest(lake, log2, cfg=cfg)
    before = read_lake_table(lake)
    tdir = lake / "sequences"
    n_files_before = len(list(tdir.glob("part=*/*.parquet")))

    r = gc_snapshots(lake, keep_commits=1)
    assert r["removed_files"] > 0 and r["freed_bytes"] > 0
    n_files_after = len(list(tdir.glob("part=*/*.parquet")))
    assert n_files_after < n_files_before
    # state unchanged; every referenced file still present
    assert_states_equal(before, read_lake_table(lake))
    from rfb_cnpj_etl_ray.pipelines.maintenance import validate_lake as _vl
    assert _vl(lake)["ok"]
    # idempotent
    assert gc_snapshots(lake, keep_commits=1)["removed_files"] == 0


def test_gc_snapshots_spares_live_writer_files(ray_session, tmp_path):
    """GC must not eat an in-flight writer's output: files of an epoch
    NEWER than the last commit, and fresh .tmp files, survive; only
    beyond-grace tmp debris is collected (ADVICE r2)."""
    import os
    import time as _time

    from rfb_cnpj_etl_ray.pipelines.maintenance import gc_snapshots
    from rfb_cnpj_etl_ray.state.commitlog import CommitLog

    base, events, log_dir, lake, cfg = _mk_lake(tmp_path)
    tdir = lake / "sequences"
    pdir = next(iter(sorted(tdir.glob("part=*"))))
    newest = CommitLog(tdir).snapshot().epoch

    # a concurrent writer's yet-uncommitted next-epoch file + fresh tmp
    future = pdir / f"epoch-{newest + 1:06d}.parquet"
    future.write_bytes(b"in-flight epoch snapshot")
    fresh_tmp = pdir / f"epoch-{newest + 1:06d}.parquet.tmp-abcd1234"
    fresh_tmp.write_bytes(b"fresh tmp")
    # crashed-writer debris: a tmp file far older than the grace window
    old_tmp = pdir / f"epoch-{newest + 1:06d}.parquet.tmp-deadbeef"
    old_tmp.write_bytes(b"old tmp")
    old = _time.time() - 7200
    os.utime(old_tmp, (old, old))

    gc_snapshots(lake, keep_commits=1)
    assert future.exists(), "uncommitted future-epoch file was deleted"
    assert fresh_tmp.exists(), "live writer's tmp file was deleted"
    assert not old_tmp.exists(), "crashed-writer tmp debris survived"
    future.unlink()
    fresh_tmp.unlink()


def test_partition_lineage_walks_commit_chain(ray_session, tmp_path):
    """Every partition's audit trail: init epoch + the ingest epoch that
    applied events, with segment provenance and monotone rows/lsn."""
    from rfb_cnpj_etl_ray.pipelines.maintenance import partition_lineage

    *_, lake, cfg = _mk_lake(tmp_path)
    lin = partition_lineage(lake)
    assert lin["head_epoch"] == 1 and lin["num_partitions"] == 4
    assert set(lin["partitions"]) == {"0", "1", "2", "3"}
    for chain in lin["partitions"].values():
        assert chain[0]["epoch"] == 0  # init
        last = chain[-1]
        assert last["epoch"] == 1 and last["events_applied"] > 0
        assert last["segments_this_epoch"]  # segment provenance recorded
    # single-partition filter returns just that chain
    only = partition_lineage(lake, part=2)
    assert list(only["partitions"]) == ["2"]


def test_partition_lineage_fold_commits_apply_no_event(ray_session, tmp_path):
    """A ``compact_deltas`` commit re-writes partitions without applying
    any event: its lineage entries report ``events_applied == 0``, while
    the delta ingest before it reports the events it applied."""
    from rfb_cnpj_etl_ray.pipelines.maintenance import (
        compact_deltas,
        partition_lineage,
    )

    base = make_base(200, seed=5, max_len=32)
    events = make_changelog(1000, 200, seed=6, max_len=32)
    log_dir = tmp_path / "log"
    write_changelog_segments(events, log_dir, 4)
    lake = tmp_path / "lake"
    init_lake(lake, SPEC, base=base, num_partitions=4)
    ingest(lake, log_dir, cfg=EngineConfig(num_partitions=4,
                                           write_mode="delta"))
    assert compact_deltas(lake, min_delta_ratio=0.0)["partitions_folded"] > 0
    lin = partition_lineage(lake)
    assert lin["head_epoch"] == 2
    at_ingest = [e for chain in lin["partitions"].values() for e in chain
                 if e["epoch"] == 1]
    at_fold = [e for chain in lin["partitions"].values() for e in chain
               if e["epoch"] == 2]
    assert at_ingest and all(e["events_applied"] > 0 for e in at_ingest)
    assert at_fold and all(e["events_applied"] == 0 for e in at_fold)
    assert_states_equal(replay(base, events), read_lake_table(lake))
