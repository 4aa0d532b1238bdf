"""Multimodal column plumbing: opaque binary payloads + typed metadata.

Image/audio/video payloads are carried as Arrow ``binary`` columns with a
metadata struct; decode / feature-extract / resize / frame-sample run as
plain ``map_batches`` task functions (a decoder's model state would
arrive as a ``stages.exchange.fetch``ed broadcast, opened once per
worker process). The image codecs are NOT installed, so that decode
step is STUBBED: ``RealDecoder`` raises ``NotImplementedError`` with the
install hint, and ``fake_decode`` produces deterministic features from
the bytes — the Ray-side plumbing (schema, batch sizing, batch-in /
batch-out signature, output layout) is real and tested either way.

Batch-size note (100 TB): binary rows are wide — a 1 MB payload means
``batch_size`` of a few hundred, not 32k; pass ``batch_size`` explicitly
at call sites and keep ``batch_format="pyarrow"`` (binary columns do not
round-trip pandas well).
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

import ray.data

from rfb_cnpj_etl_ray.sources.parquet import read_table as _read_table

#: schema of a multimodal payload table.
MEDIA_SCHEMA = pa.schema(
    [
        pa.field("doc_id", pa.int64()),
        pa.field("payload", pa.binary()),
        pa.field("media_type", pa.string()),   # "image" | "audio" | "video"
        pa.field("n_bytes", pa.int64()),
    ]
)


class RealDecoder:
    """Placeholder for a real decoder (PIL / libav / torchaudio).

    Called like ``fake_decode`` (one Arrow batch in, one out), so swapping
    it in is a one-line change at the call site."""

    def __init__(self, media_type: str = "image"):
        self.media_type = media_type
        try:
            import PIL.Image  # noqa: F401  (not installed in this container)
            self._available = True
        except ImportError:
            self._available = False

    def __call__(self, batch: pa.Table) -> pa.Table:
        if not self._available:
            raise NotImplementedError(
                "media decoding requires Pillow/libav which are not in this "
                "environment; use fake_decode for the plumbing path"
            )
        raise NotImplementedError("real decode path not implemented")


def fake_decode(batch: pa.Table) -> pa.Table:
    """Deterministic stand-in 'decoder': derives pseudo features (width,
    height, mean 'luminance') from the payload bytes — pure numpy over a
    flat buffer, stable across runs, exercising the same Arrow plumbing
    a real decoder would."""
    payloads = batch.column("payload")
    lens = pc.binary_length(payloads).to_numpy().astype(np.int64)
    flat = np.frombuffer(b"".join(payloads.to_pylist()), dtype=np.uint8) \
        if batch.num_rows else np.array([], dtype=np.uint8)
    offsets = np.zeros(len(lens), dtype=np.int64)
    np.cumsum(lens[:-1], out=offsets[1:])
    nonempty = lens > 0
    width = (lens % 640 + 1).astype(np.int32)
    height = (lens % 480 + 1).astype(np.int32)
    # integer-milli mean (sum*1000 // len): bit-equal across engines,
    # so the DuckDB oracle can check this stage exactly
    luma_milli = np.zeros(len(lens), dtype=np.int64)
    if flat.size:
        sums = np.add.reduceat(flat.astype(np.int64), offsets[nonempty])
        luma_milli[nonempty] = sums * 1000 // lens[nonempty]
    return pa.table(
        {
            "doc_id": batch.column("doc_id"),
            "media_type": batch.column("media_type"),
            "width": pa.array(width),
            "height": pa.array(height),
            "mean_luma_milli": pa.array(luma_milli),
            "n_bytes": batch.column("n_bytes"),
        }
    )


def attach_payloads(sf_dir: str):
    """Build a MEDIA_SCHEMA dataset from documents (text bytes stand in
    for media payloads — deterministic, no external data)."""
    ds = _read_table(
        f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]
    )

    def to_media(batch: pa.Table) -> pa.Table:
        payload = batch.column("text").cast(pa.binary())
        n = pc.binary_length(payload).cast(pa.int64())
        kinds = pa.array(
            np.array(["image", "audio", "video"])[
                batch.column("doc_id").to_numpy() % 3
            ]
        )
        return pa.Table.from_arrays(
            [batch.column("doc_id"), payload, kinds, n], schema=MEDIA_SCHEMA
        )

    return ds.map_batches(to_media, batch_format="pyarrow", zero_copy_batch=True)


def multimodal_features(sf_dir: str, batch_size: int = 512):
    """The full plumbing pipeline: attach payloads → decode (fake) →
    feature table. The fake's features are pure byte arithmetic,
    so a DuckDB oracle reproduces them exactly (ASCII corpus: code point
    == byte)."""
    media = attach_payloads(sf_dir)
    return media.map_batches(
        fake_decode,
        batch_format="pyarrow",
        batch_size=batch_size,   # small: binary rows are wide
    )


MULTIMODAL_FEATURES_SQL = """
SELECT doc_id,
       CASE doc_id % 3 WHEN 0 THEN 'image' WHEN 1 THEN 'audio'
                       ELSE 'video' END AS media_type,
       CAST(length(text) % 640 + 1 AS INTEGER) AS width,
       CAST(length(text) % 480 + 1 AS INTEGER) AS height,
       CAST(list_sum(list_transform(range(1, length(text) + 1),
                i -> CAST(ord(substr(text, CAST(i AS INTEGER), 1)) AS BIGINT)))
         * 1000 // length(text) AS BIGINT) AS mean_luma_milli,
       CAST(length(text) AS BIGINT) AS n_bytes
FROM documents
"""


# ---------------------------------------------------------------------------
# a REAL stdlib codec path: RIFF/WAV audio decode (no external deps)
# ---------------------------------------------------------------------------

def wav_decode(batch: pa.Table) -> pa.Table:
    """Genuine audio decode with the stdlib ``wave`` codec: each payload
    is a real RIFF/WAV container; parse the header, read the PCM frames,
    and extract (sample_rate, channels, frames, duration, RMS
    amplitude). Decode is inherently per-payload (container format), so
    the loop is per row inside one task — the scale lever is the number
    of tasks, exactly like a PIL/libav decoder would run."""
    import io
    import wave

    rows = []
    for row in batch.to_pylist():
        with wave.open(io.BytesIO(row["payload"]), "rb") as w:
            rate, nch, nframes = (w.getframerate(), w.getnchannels(),
                                  w.getnframes())
            pcm = np.frombuffer(w.readframes(nframes), dtype=np.int16)
        rms = int(np.sqrt(np.mean(pcm.astype(np.float64) ** 2))) \
            if pcm.size else 0
        rows.append({
            "doc_id": row["doc_id"],
            "sample_rate": rate,
            "n_channels": nch,
            "n_frames": nframes,
            "duration_ms": nframes * 1000 // rate,
            "rms": rms,
        })
    return pa.Table.from_pylist(rows, schema=_WAV_OUT_SCHEMA)


#: declared decoder output schema: an EMPTY input block must still
#: carry the six columns (a schema-less zero-column table breaks block
#: concat — the hazard every other kernel guards with declared output)
_WAV_OUT_SCHEMA = pa.schema([
    pa.field("doc_id", pa.int64()),
    pa.field("sample_rate", pa.int64()),
    pa.field("n_channels", pa.int64()),
    pa.field("n_frames", pa.int64()),
    pa.field("duration_ms", pa.int64()),
    pa.field("rms", pa.int64()),
])

#: WAV fixture parameters (shared with the SQL oracle below)
_WAV_RATE = 8000
_WAV_FRAMES = 400            # 50 ms mono 16-bit
_WAV_A = 7919                # integer waveform: v_i = ((doc_id*A + i*B)
_WAV_B = 104729              #                  % 32768) - 16384


def attach_wav_payloads(sf_dir: str):
    """MEDIA_SCHEMA dataset whose payloads are REAL WAV files (stdlib
    codec, genuine RIFF container bytes). The PCM content is an
    INTEGER-deterministic pseudo-random waveform
    ``v_i = ((doc_id·7919 + i·104729) mod 32768) − 16384`` — chosen over
    a float sine so every decoded sample (and therefore the RMS) is
    bit-for-bit reproducible in SQL: integer modular arithmetic has no
    libm/ulp divergence between numpy and DuckDB."""
    import io
    import wave

    ds = _read_table(f"{sf_dir}/documents.parquet",
                      columns=["doc_id"])

    def synth(batch: pa.Table) -> pa.Table:
        payloads = []
        i = np.arange(_WAV_FRAMES, dtype=np.int64)
        for doc_id in batch.column("doc_id").to_pylist():
            tone = (((doc_id * _WAV_A + i * _WAV_B) % 32768)
                    - 16384).astype(np.int16)
            buf = io.BytesIO()
            with wave.open(buf, "wb") as w:
                w.setnchannels(1)
                w.setsampwidth(2)
                w.setframerate(_WAV_RATE)
                w.writeframes(tone.tobytes())
            payloads.append(buf.getvalue())
        n = [len(p) for p in payloads]
        return pa.Table.from_arrays(
            [batch.column("doc_id"),
             pa.array(payloads, type=pa.binary()),
             pa.array(["audio"] * batch.num_rows),
             pa.array(n, type=pa.int64())],
            schema=MEDIA_SCHEMA,
        )

    return ds.map_batches(synth, batch_format="pyarrow", batch_size=512)


def multimodal_wav_decode(sf_dir: str, batch_size: int = 512):
    """Real-codec pipeline: synth WAV payloads → ``wav_decode`` → audio
    feature table. Exact DuckDB oracle: header fields are fixture
    constants and the RMS is recomputed from the integer waveform
    formula (sum of squares < 2^53 stays exact; / and sqrt are IEEE
    correctly-rounded in both engines, so the truncated integer RMS
    matches bit-for-bit)."""
    return attach_wav_payloads(sf_dir).map_batches(
        wav_decode, batch_format="pyarrow", batch_size=batch_size)


MULTIMODAL_WAV_DECODE_SQL = f"""
SELECT doc_id,
       CAST({_WAV_RATE} AS BIGINT) AS sample_rate,
       CAST(1 AS BIGINT) AS n_channels,
       CAST({_WAV_FRAMES} AS BIGINT) AS n_frames,
       CAST({_WAV_FRAMES * 1000 // _WAV_RATE} AS BIGINT) AS duration_ms,
       CAST(floor(sqrt(list_sum(list_transform(range(0, {_WAV_FRAMES}),
                i -> CAST(((doc_id * {_WAV_A} + i * {_WAV_B}) % 32768
                           - 16384) AS BIGINT)
                     * ((doc_id * {_WAV_A} + i * {_WAV_B}) % 32768
                        - 16384)))
            / {_WAV_FRAMES}.0)) AS BIGINT) AS rms
FROM documents
"""
