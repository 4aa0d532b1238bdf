from rfb_cnpj_etl_ray.state.commitlog import (
    CommitLog,
    init_lake,
)
from rfb_cnpj_etl_ray.state.manifest import (
    ManifestError,
    read_manifest,
    validate_segments,
)

__all__ = [
    "CommitLog",
    "init_lake",
    "ManifestError",
    "read_manifest",
    "validate_segments",
]
