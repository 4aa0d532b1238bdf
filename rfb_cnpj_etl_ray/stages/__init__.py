from rfb_cnpj_etl_ray.stages.merge import (
    INTERNAL_DELETED,
    INTERNAL_LSN,
    PART_COL,
    internal_schema,
    lww_reduce,
    staged_exchange,
    write_partition_snapshot,
)

__all__ = [
    "INTERNAL_LSN",
    "INTERNAL_DELETED",
    "PART_COL",
    "internal_schema",
    "lww_reduce",
    "staged_exchange",
    "write_partition_snapshot",
]
