"""rfb_cnpj_etl_ray — a from-scratch Ray-Data-native CDC / incremental-ingest engine.

Re-expresses the data-processing capabilities of the reference loader
(msantosjader/rfb-cnpj-etl, surveyed in SURVEY.md) as a change-log replay
pipeline over Parquet tables of pre-tokenized training sequences:

    doc_id:string, tokens:list<int32>, n_tok:int32, source:string

Change events (op ∈ {I,U,D}, ordered by a globally-unique int64 ``lsn``)
are read from Parquet change-log segments by plain Ray tasks,
hash-partitioned by ``doc_id``, and applied with LSN-ordered
last-writer-wins semantics through an idempotent, exactly-once
transactional sink (staged Arrow chunks + per-partition Parquet
snapshots + atomic commit log). Each commit logs one INFO line on the
``rfb_cnpj_etl_ray`` logger; the package installs no handler.

Nothing here calls ``ray.init()``; callers own the Ray session.
"""

from rfb_cnpj_etl_ray.config import EngineConfig
from rfb_cnpj_etl_ray.spec import (
    CHANGE_SCHEMA,
    PAYLOAD_SCHEMA,
    SchemaEvolutionError,
    TableSpec,
    evolve_schema,
)

__all__ = [
    "EngineConfig",
    "TableSpec",
    "PAYLOAD_SCHEMA",
    "CHANGE_SCHEMA",
    "SchemaEvolutionError",
    "evolve_schema",
]

__version__ = "0.1.0"
