"""Change-log segment manifest: read + pre-flight validation.

Reference analog: the scraped remote manifest of monthly zip files
(name, url, size — cnpj_public_data.py:113-171) validated against local
files before any load, reporting missing / excess / size-mismatch sets
and aborting on mismatch (zip_metadata.py:16-58, orchestrator.py:68-70).
Here the manifest lives next to the segments as ``manifest.json``
(written by synth.write_changelog_segments or an upstream producer) and
additionally carries exact per-segment row counts and LSN ranges, which
replace the reference's byte-size row estimators (zip_metadata.py:68-144)
with exact, free numbers and let the reader prune already-committed
segments without opening them.
"""

from __future__ import annotations

import json
import os
from pathlib import Path


class ManifestError(RuntimeError):
    """Segment files on disk disagree with the manifest."""


def read_manifest(log_dir: str | Path) -> dict:
    path = Path(log_dir) / "manifest.json"
    if not path.exists():
        raise FileNotFoundError(f"no manifest.json in {log_dir}")
    return json.loads(path.read_text())


def validate_segments(log_dir: str | Path, strict: bool = True,
                      manifest: dict | None = None) -> dict:
    """Compare ``manifest`` (read from ``log_dir`` when None) vs files on
    disk; return the three diagnostic sets (missing, excess,
    size_mismatch). With ``strict`` raise ManifestError on any
    discrepancy — the reference aborts the run the same way. A caller
    that applies the manifest passes the dict it read, so the manifest it
    validates is the one it applies even while a producer replaces
    ``manifest.json``."""
    log_dir = Path(log_dir)
    if manifest is None:
        manifest = read_manifest(log_dir)
    declared = {s["name"]: s for s in manifest["segments"]}
    on_disk = {p.name: p for p in log_dir.glob("*.parquet")}

    missing = sorted(set(declared) - set(on_disk))
    excess = sorted(set(on_disk) - set(declared))
    size_mismatch = sorted(
        name
        for name, seg in declared.items()
        if name in on_disk and os.path.getsize(on_disk[name]) != seg["bytes"]
    )
    diagnostics = {
        "missing": missing,
        "excess": excess,
        "size_mismatch": size_mismatch,
        "total_rows": sum(s["rows"] for s in declared.values()),
    }
    if strict and (missing or size_mismatch):
        raise ManifestError(f"segment validation failed: {diagnostics}")
    return diagnostics


def manifest_from_dir(log_dir: str | Path, lsn_col: str = "lsn") -> dict:
    """Build ``manifest.json`` for a directory of parquet segments that
    lack one (e.g. a changelog materialized by ``Dataset.write_parquet``).
    Per-segment row counts and LSN ranges come from parquet FOOTER
    metadata (row-group statistics) — driver-side metadata stats only,
    no data read, so this stays O(|segments|) at any data scale. Falls
    back to reading just the lsn column if a writer omitted statistics.
    """
    log_dir = Path(log_dir)
    segs = []
    for p in sorted(log_dir.glob("*.parquet")):
        import pyarrow.parquet as pq

        md = pq.ParquetFile(p).metadata
        idx = md.schema.to_arrow_schema().get_field_index(lsn_col)
        mins: list[int] = []
        maxs: list[int] = []
        for rg in range(md.num_row_groups):
            st = md.row_group(rg).column(idx).statistics
            if st is None or not st.has_min_max:
                mins, maxs = [], []
                break
            mins.append(st.min)
            maxs.append(st.max)
        if md.num_rows and not mins:  # stats missing: one-column read
            col = pq.read_table(p, columns=[lsn_col]).column(lsn_col)
            mins, maxs = [pc_min_max(col)], [pc_min_max(col, "max")]
        segs.append({
            "name": p.name,
            "rows": md.num_rows,
            "min_lsn": min(mins) if mins else None,
            "max_lsn": max(maxs) if maxs else None,
            "bytes": p.stat().st_size,
        })
    manifest = {"segments": segs}
    tmp = log_dir / "manifest.json.tmp"
    tmp.write_text(json.dumps(manifest, indent=2))
    os.replace(tmp, log_dir / "manifest.json")
    return manifest


def pc_min_max(col, which: str = "min") -> int:
    import pyarrow.compute as pc

    return pc.min_max(col)[which].as_py()
