"""Engine tunables: the three knobs a caller sets per run.

Analog of the reference's ``config.py`` knob sheet (batch size, per-table
batch ratios, worker counts, queue size, retries — see SURVEY.md §2.8 and
reference ``src/rfb_cnpj_etl/config.py:27-60``), redesigned for Ray Data:
batch sizing instead of queue sizes, partition counts instead of thread
counts, and the write mode. Skew needs no knob in place of the static
``BATCH_RATIO`` shrink factor: the staged exchange's per-batch partial
reduce bounds every hot key to one row per batch (``stages.merge``).
Partition files are always zstd Parquet in 64Ki-row row groups
(``state.commitlog.atomic_write_table``), and each commit logs one INFO
line (``state.commitlog``) in place of a progress display.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass
class EngineConfig:
    # --- partitioning -----------------------------------------------------
    #: number of hash partitions of the lake table (by ``doc_id``). At 100 TB
    #: this should be ≫ total cores (e.g. 4–16× cluster cores) so work-stealing
    #: hides stragglers; partition count is fixed at table-init time.
    num_partitions: int = 32

    #: rows per Arrow batch of phase 1: an ingest task stages its segment
    #: piece in batches of this many rows (spanning small segments), and
    #: a piece packs whole segments up to at most this many (a larger
    #: segment is a piece of its own); lake init and repartition hand
    #: ``map_batches`` batches of this size. Bigger batches amortize the
    #: per-batch sort and produce fewer staged chunks (measured: 2×
    #: throughput from 16k→128k at ~170 B/row); size so batch_bytes ×
    #: concurrent tasks fits worker heap — at ~1 KB/row payloads
    #: (max-length token lists) 64k rows ≈ 64 MB per batch.
    batch_size: int = 65_536

    # --- write mode -------------------------------------------------------
    #: "cow" (copy-on-write): every touched partition is rewritten as a
    #: full snapshot per epoch — best for one big replay or read-heavy
    #: tables. "delta" (merge-on-read): each epoch appends only the
    #: LWW-reduced new events per partition; readers (and later merges)
    #: fold base+deltas on the fly, and ``compact`` folds them back into
    #: one snapshot. Delta mode removes the O(table size) write
    #: amplification per epoch — the steady-state CDC configuration.
    write_mode: str = "cow"

    def validate(self) -> None:
        if self.write_mode not in ("cow", "delta"):
            raise ValueError("write_mode must be 'cow' or 'delta'")
        check_num_partitions(self.num_partitions)
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")


def check_num_partitions(n: int) -> None:
    """Reject a partition count the hash router cannot use, before any
    write (``x % 0`` in numpy warns and yields 0 instead of raising)."""
    if n < 1:
        raise ValueError(f"num_partitions must be >= 1 (got {n})")
