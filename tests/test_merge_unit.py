import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

from rfb_cnpj_etl_ray.hashing import partition_ids
from rfb_cnpj_etl_ray.spec import CHANGE_SCHEMA, PAYLOAD_SCHEMA
from rfb_cnpj_etl_ray.stages.merge import (
    INTERNAL_DELETED,
    INTERNAL_LSN,
    internal_schema,
    lww_reduce,
    make_stage_partitioner,
    strip_internal,
)
from rfb_cnpj_etl_ray.synth import make_changelog


def test_lww_reduce_keeps_max_lsn_per_key():
    t = pa.table(
        {
            "doc_id": ["a", "b", "a", "a", "b"],
            INTERNAL_LSN: pa.array([1, 5, 3, 2, 4], pa.int64()),
            "v": [10, 20, 30, 40, 50],
        }
    )
    out = lww_reduce(t)
    by = dict(zip(out["doc_id"].to_pylist(), out["v"].to_pylist()))
    assert by == {"a": 30, "b": 20}


def test_lww_reduce_is_associative_on_random_input():
    ev = make_changelog(5000, 300, seed=9)
    internal = pa.table(
        {
            "doc_id": ev["doc_id"],
            INTERNAL_LSN: ev["lsn"],
            INTERNAL_DELETED: pc.equal(ev["op"], "D"),
        }
    )
    whole = lww_reduce(internal).sort_by([("doc_id", "ascending")])
    # reduce two halves then reduce the concat — must equal one-shot reduce
    h1 = lww_reduce(internal.slice(0, 2500))
    h2 = lww_reduce(internal.slice(2500))
    two_stage = lww_reduce(pa.concat_tables([h1, h2])).sort_by(
        [("doc_id", "ascending")]
    )
    assert whole.equals(two_stage)


def test_lww_reduce_empty_and_single():
    empty = pa.table({"doc_id": pa.array([], pa.string()),
                      INTERNAL_LSN: pa.array([], pa.int64())})
    assert lww_reduce(empty).num_rows == 0
    one = pa.table({"doc_id": ["z"], INTERNAL_LSN: pa.array([7], pa.int64())})
    assert lww_reduce(one).num_rows == 1


def _staged_chunks(staging):
    """{(part, chunk name): table} for the staged Arrow chunks phase 1
    wrote under ``staging``."""
    out = {}
    for path in sorted(staging.glob("part=*/stage-*.arrow")):
        with pa.memory_map(str(path), "r") as src:
            table = pa.ipc.open_file(src).read_all()
        out[(int(path.parent.name.split("=")[1]), path.name)] = table
    return out


def test_to_internal_routing_and_reduce(tmp_path):
    """Phase 1 turns change rows into internal rows, routes them and
    partially reduces them: every staged chunk holds unique doc_ids, all
    hashed to its part=K dir, each at its key's max-lsn event."""
    ev = make_changelog(2000, 100, seed=3)
    staging = tmp_path / "staging"
    stats = make_stage_partitioner(PAYLOAD_SCHEMA, 8, str(staging))(ev)
    chunks = _staged_chunks(staging)
    assert chunks
    last = {}
    for d, lsn, op in zip(ev["doc_id"].to_pylist(), ev["lsn"].to_pylist(),
                          ev["op"].to_pylist()):
        if d not in last or lsn > last[d][0]:
            last[d] = (lsn, op == "D")
    seen = {}
    for (part, _), t in chunks.items():
        assert t.schema.equals(internal_schema(PAYLOAD_SCHEMA))
        ids = t["doc_id"].to_pylist()
        assert len(ids) == len(set(ids))
        assert (partition_ids(t["doc_id"], 8) == part).all()
        seen.update(zip(ids, zip(t[INTERNAL_LSN].to_pylist(),
                                 t[INTERNAL_DELETED].to_pylist())))
    assert seen == last  # one batch: one row per key overall
    assert sum(stats["rows"].to_pylist()) == len(last)


def test_phase1_partial_reduce_bounds_partition_skew(tmp_path):
    """Phase 1's per-batch partial reduce is the exchange's skew
    handling: on a zipf-2.0 log one hot key skews the raw rows per
    partition, but each batch stages a hot key as one row, so the staged
    rows per partition are near-balanced and phase 2 re-merges them."""
    n_parts, n_batches = 16, 40
    ev = make_changelog(200_000, 20_000, seed=11, zipf_a=2.0,
                        min_len=1, max_len=4)
    staging = tmp_path / "staging"
    stage = make_stage_partitioner(PAYLOAD_SCHEMA, n_parts, str(staging))
    step = -(-ev.num_rows // n_batches)
    for off in range(0, ev.num_rows, step):
        stage(ev.slice(off, step))
    raw = np.bincount(partition_ids(ev["doc_id"], n_parts),
                      minlength=n_parts)
    staged = np.zeros(n_parts, np.int64)
    for (part, _), t in _staged_chunks(staging).items():
        ids = t["doc_id"]
        assert pc.count_distinct(ids).as_py() == len(ids)
        staged[part] += len(ids)
    assert raw.max() / raw.mean() >= 5
    assert staged.max() / staged.mean() <= 1.5


def test_strip_internal_drops_tombstones():
    sch = internal_schema(PAYLOAD_SCHEMA)
    t = pa.Table.from_pylist(
        [
            {"doc_id": "a", "tokens": [1], "n_tok": 1, "source": "web",
             INTERNAL_LSN: 1, INTERNAL_DELETED: False},
            {"doc_id": "b", "tokens": None, "n_tok": None, "source": None,
             INTERNAL_LSN: 2, INTERNAL_DELETED: True},
        ],
        schema=sch,
    )
    out = strip_internal(t)
    assert out.column("doc_id").to_pylist() == ["a"]
    assert out.schema.names == PAYLOAD_SCHEMA.names


# --- algebraic laws of the LWW fold (hypothesis) ---------------------------

try:
    from hypothesis import given, settings, strategies as st

    _events_strategy = st.lists(
        st.tuples(
            st.integers(min_value=0, max_value=6),     # key index
            st.integers(min_value=1, max_value=50),    # lsn
            st.booleans(),                             # deleted
        ),
        min_size=0, max_size=40,
    )

    def _mk(rows):
        import pyarrow as pa

        return pa.table({
            "doc_id": pa.array([f"doc{k:02d}" for k, _, _ in rows],
                               pa.string()),
            "_lsn": pa.array([l for _, l, _ in rows], pa.int64()),
            "_deleted": pa.array([d for _, _, d in rows], pa.bool_()),
        })

    def _canon(t):
        return sorted(map(tuple, zip(
            t["doc_id"].to_pylist(), t["_lsn"].to_pylist(),
            t["_deleted"].to_pylist())))

    @settings(max_examples=60, deadline=None)
    @given(_events_strategy, _events_strategy)
    def test_lww_reduce_is_associative_and_idempotent(a_rows, b_rows):
        """The exactly-once guarantee rests on these laws: folding any
        split/replay order of the same events yields one state.
        (Ties on (key, lsn) may keep either copy — payloads are equal by
        definition — so tie lsns are compared on (key, lsn) only.)"""
        import pyarrow as pa

        from rfb_cnpj_etl_ray.stages.merge import lww_reduce

        a, b = _mk(a_rows), _mk(b_rows)
        both = pa.concat_tables([a, b])
        direct = lww_reduce(both)
        staged = lww_reduce(pa.concat_tables(
            [lww_reduce(a), lww_reduce(b)]))
        # compare on (key, lsn): payload of equal-lsn duplicates is equal
        assert [(d, l) for d, l, _ in _canon(direct)] == \
            [(d, l) for d, l, _ in _canon(staged)]
        # idempotence: re-applying the already-folded state is a no-op
        again = lww_reduce(pa.concat_tables([direct, direct]))
        assert _canon(again) == _canon(direct)
        # commutativity of the split
        swapped = lww_reduce(pa.concat_tables(
            [lww_reduce(b), lww_reduce(a)]))
        assert [(d, l) for d, l, _ in _canon(direct)] == \
            [(d, l) for d, l, _ in _canon(swapped)]
except ImportError:  # hypothesis not installed — library tests still run
    pass
