"""Remote-segment fetcher with byte-offset resume (S3/S4 as real I/O).

Re-expresses the reference's resumable downloader
(``cnpj_data/cnpj_downloader.py:65-190``): download to ``<name>.part``,
resume from the partial file's byte offset (the HTTP ``Range`` header
analog), bounded retries on transient faults, and an atomic
``os.replace`` finalize so a completed segment either fully exists or
not at all. The sandbox has no network, so the wire is a pluggable
:class:`Transport` (object-store/HTTP adapters implement the same two
methods in production); :class:`FlakyTransport` injects deterministic
mid-transfer faults for the crash tests.

Parallelism (S4, the reference's thread-per-file pool,
``cnpj_downloader.py``/orchestrator): one plain Ray task per segment via
``stages.exchange.run_tasks`` — retry-safe (a re-executed task resumes
from the ``.part`` offset or no-ops on the finalized file), with
``max_parallel`` as its in-flight window.
"""

from __future__ import annotations

import os
import time
from pathlib import Path
from typing import Protocol

DEFAULT_CHUNK = 4 * 1024 * 1024


class Transport(Protocol):
    """Minimal remote-read surface: sized, range-readable objects."""

    def size(self, name: str) -> int: ...

    def read_range(self, name: str, offset: int, length: int) -> bytes: ...


class FileTransport:
    """Shared-filesystem/object-store stand-in (and the real adapter for
    NFS/FUSE mounts): range reads off a remote directory."""

    def __init__(self, remote_dir: str):
        self.remote_dir = str(remote_dir)

    def size(self, name: str) -> int:
        return os.path.getsize(os.path.join(self.remote_dir, name))

    def read_range(self, name: str, offset: int, length: int) -> bytes:
        with open(os.path.join(self.remote_dir, name), "rb") as f:
            f.seek(offset)
            return f.read(length)


class HttpTransport:
    """HTTP(S) adapter for the :class:`Transport` protocol — the wire the
    reference downloader actually speaks (``cnpj_downloader.py``: byte
    ranges against the RFB mirror). stdlib ``urllib`` only, created
    lazily so the engine imports fine in network-less sandboxes; it only
    touches the network when a fetch pipeline actually runs.

    ``size`` issues a HEAD and reads Content-Length; ``read_range``
    sends an RFC 7233 ``Range`` header and returns the 206 body. A
    server that ignores Range (plain ``http.server``) answers 200 with
    the full body — handled by slicing, correct though not
    bandwidth-optimal."""

    def __init__(self, base_url: str, timeout: float = 30.0):
        import urllib.request

        self._urllib = urllib.request
        self.base_url = base_url.rstrip("/")
        self.timeout = timeout

    def _url(self, name: str) -> str:
        return f"{self.base_url}/{name}"

    def size(self, name: str) -> int:
        req = self._urllib.Request(self._url(name), method="HEAD")
        with self._urllib.urlopen(req, timeout=self.timeout) as r:
            cl = r.headers.get("Content-Length")
            if cl is None:
                raise RuntimeError(
                    f"{self._url(name)}: no Content-Length in HEAD response"
                )
            return int(cl)

    def read_range(self, name: str, offset: int, length: int) -> bytes:
        req = self._urllib.Request(
            self._url(name),
            headers={"Range": f"bytes={offset}-{offset + length - 1}"},
        )
        with self._urllib.urlopen(req, timeout=self.timeout) as r:
            body = r.read()
        if r.status == 206:
            return body
        # Range ignored (200): full object returned — slice locally
        return body[offset:offset + length]


class FlakyTransport(FileTransport):
    """Deterministic fault injection: every read past ``fail_after``
    cumulative bytes raises, ``fail_times`` times, then recovers —
    exercising resume + retry exactly like a dropped connection."""

    def __init__(self, remote_dir: str, fail_after: int, fail_times: int = 1):
        super().__init__(remote_dir)
        self.fail_after = fail_after
        self.fail_times = fail_times
        self._sent = 0
        self._failed = 0

    def read_range(self, name: str, offset: int, length: int) -> bytes:
        if self._failed < self.fail_times and \
                self._sent + length > self.fail_after:
            self._failed += 1
            self._sent = 0
            raise ConnectionError(
                f"injected transport fault after {self.fail_after} bytes"
            )
        data = super().read_range(name, offset, length)
        self._sent += len(data)
        return data


def fetch_segment(
    transport: Transport,
    name: str,
    dest_dir: str | Path,
    chunk_size: int = DEFAULT_CHUNK,
    max_retries: int = 3,
    expected_bytes: int | None = None,
    retry_backoff: float = 0.0,
) -> dict:
    """Fetch one segment with resume + retries + atomic finalize.

    Semantics per the reference downloader: an existing finalized file
    short-circuits (idempotent re-run); a ``.part`` file resumes at its
    byte offset; completion validates the expected size (manifest
    ``bytes``) and atomically renames. Returns a small report row."""
    dest_dir = Path(dest_dir)
    dest_dir.mkdir(parents=True, exist_ok=True)
    final = dest_dir / name
    part = dest_dir / (name + ".part")
    if final.exists():
        return {"name": name, "bytes": final.stat().st_size,
                "resumed_from": -1, "attempts": 0, "skipped": True}
    total = transport.size(name)
    if expected_bytes is not None and expected_bytes != total:
        raise RuntimeError(
            f"segment {name}: remote size {total} != manifest {expected_bytes}"
        )
    initial = part.stat().st_size if part.exists() else 0
    offset = initial
    attempts = 0
    while True:
        attempts += 1
        try:
            with open(part, "ab" if offset else "wb") as f:
                while offset < total:
                    data = transport.read_range(
                        name, offset, min(chunk_size, total - offset)
                    )
                    if not data:
                        raise ConnectionError(f"empty read at {offset}")
                    f.write(data)
                    offset += len(data)
            break
        except Exception:
            if attempts >= max_retries:
                raise RuntimeError(
                    f"segment {name}: fetch failed after {max_retries} attempts"
                )
            offset = part.stat().st_size if part.exists() else 0
            if retry_backoff:
                time.sleep(retry_backoff)
    size = part.stat().st_size
    if size != total:
        raise RuntimeError(f"segment {name}: got {size} bytes, want {total}")
    os.replace(part, final)  # atomic finalize (cnpj_downloader.py:169)
    return {"name": name, "bytes": size, "resumed_from": initial,
            "attempts": attempts, "skipped": False}


def fetch_segments(
    transport: Transport,
    names: list[str],
    dest_dir: str | Path,
    chunk_size: int = DEFAULT_CHUNK,
    max_retries: int = 3,
    expected_bytes: dict[str, int] | None = None,
    max_parallel: int | None = None,
) -> list[dict]:
    """Concurrent fetch of many segments: one Ray task per segment, in
    name order (a retried task resumes from its .part offset — no double
    work, no torn files). ``max_parallel`` caps simultaneous fetch tasks
    (the reference's ``--workers`` download knob,
    cnpj_downloader.py)."""
    from rfb_cnpj_etl_ray.stages.exchange import run_tasks

    if max_parallel is not None and max_parallel < 1:
        # a falsy 0 must not silently mean "uncapped" — that is the
        # opposite of the request
        raise ValueError(f"max_parallel must be >= 1, got {max_parallel}")
    dest = str(dest_dir)
    expected = expected_bytes or {}

    def fetch(name: str) -> dict:
        return fetch_segment(transport, name, dest, chunk_size=chunk_size,
                             max_retries=max_retries,
                             expected_bytes=expected.get(name))

    return run_tasks(fetch, sorted(names), max_in_flight=max_parallel)


def fetch_manifest_segments(
    remote_log_dir: str | Path,
    local_log_dir: str | Path,
    transport: Transport | None = None,
) -> list[dict]:
    """Mirror a remote change-log directory locally: copy manifest.json,
    fetch every segment it lists (with resume), validate sizes. The
    local directory then feeds ``pipelines.ingest`` unchanged."""
    import json
    import shutil

    remote_log_dir = Path(remote_log_dir)
    local_log_dir = Path(local_log_dir)
    local_log_dir.mkdir(parents=True, exist_ok=True)
    transport = transport or FileTransport(str(remote_log_dir))
    manifest = json.loads((remote_log_dir / "manifest.json").read_text())
    reports = fetch_segments(
        transport,
        [s["name"] for s in manifest["segments"]],
        local_log_dir,
        expected_bytes={s["name"]: s["bytes"] for s in manifest["segments"]
                        if s.get("bytes") is not None},
    )
    # manifest last: a crash mid-mirror leaves no manifest → ingest no-ops
    tmp = local_log_dir / "manifest.json.tmp"
    shutil.copyfile(remote_log_dir / "manifest.json", tmp)
    os.replace(tmp, local_log_dir / "manifest.json")
    return reports
