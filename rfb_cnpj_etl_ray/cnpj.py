"""The reference's 10-table CNPJ registry, instantiated end-to-end.

This module carries the complete ``SCHEMA`` dict of the reference
(``/root/reference/src/rfb_cnpj_etl/db/schema.py:11-193``) as engine
``TableSpec``s — every table, every column, the file→table routing stems
and the multi-target ``Estabelecimentos`` → estabelecimento +
estabelecimento_cnae_sec explode (``db_batch_producer.py:61-72``) — plus
the per-table transform chains of ``transform_batch``
(``db_transformers.py:99-126``): sanitize everywhere, BR-numeric on
``empresa.capital_social``, date normalization on the reference's exact
date-column lists.

The engine's lake is ``doc_id``-keyed (north rule), so each table's
primary key maps onto ``doc_id``:

* dimension tables → their code column;
* ``empresa``/``simples`` → ``cnpj_basico``;
* ``estabelecimento`` → the full 14-digit CNPJ (basico‖ordem‖dv) — note
  the skew analogy the north star names: establishments share one
  empresa root, exactly the hot-key family the merge combiner tames;
* ``socio`` → composite (reference declares no PK; loads are
  append-shaped, the composite makes re-loads idempotent);
* ``estabelecimento_cnae_sec`` → full CNPJ + '-' + cod_cnae.

Load = the reference's monthly full load (drop-and-reload,
``sqlite_builder.py:170-177``) re-expressed as an epoch-0 distributed
init: zip → in-memory CSV parse → vectorized chain → hash-partitioned
staged exchange → atomic commit. Incremental updates then flow through
the normal CDC ``ingest`` path against the same tables.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

from rfb_cnpj_etl_ray.spec import TableSpec, conform_table
from rfb_cnpj_etl_ray.stages.sanitize import (
    TransformChain,
    explode_delimited,
    normalize_numeric_br,
    sanitize_cells,
)

# ---------------------------------------------------------------------------
# source columns (positional, per reference schema.py — CSVs are headerless)
# ---------------------------------------------------------------------------

SOURCE_COLUMNS: dict[str, list[str]] = {
    "cnae": ["cod_cnae", "nome_cnae"],
    "motivo": ["cod_motivo", "nome_motivo"],
    "municipio": ["cod_municipio", "nome_municipio"],
    "natureza_juridica": ["cod_natureza", "nome_natureza"],
    "pais": ["cod_pais", "nome_pais"],
    "qualificacao_socio": ["cod_qualificacao", "nome_qualificacao"],
    "empresa": [
        "cnpj_basico", "razao_social", "cod_natureza_juridica",
        "cod_qualificacao_responsavel", "capital_social", "cod_porte",
        "ente_federativo_responsavel",
    ],
    "estabelecimento": [
        "cnpj_basico", "cnpj_ordem", "cnpj_dv", "matriz_filial",
        "nome_fantasia", "cod_situacao_cadastral", "data_situacao_cadastral",
        "cod_motivo_situacao_cadastral", "nome_cidade_exterior", "cod_pais",
        "data_inicio_atividade", "cod_cnae_principal", "cod_cnae_secundario",
        "tipo_logradouro", "logradouro", "numero", "complemento", "bairro",
        "cep", "uf", "cod_municipio", "ddd_telefone_1", "telefone_1",
        "ddd_telefone_2", "telefone_2", "ddd_fax", "fax", "email",
        "situacao_especial", "data_situacao_especial",
    ],
    "simples": [
        "cnpj_basico", "opcao_simples", "data_opcao_simples",
        "data_exclusao_simples", "opcao_mei", "data_opcao_mei",
        "data_exclusao_mei",
    ],
    "socio": [
        "cnpj_basico", "identificador_socio", "nome_socio", "cnpj_cpf_socio",
        "cod_qualificacao_socio", "data_entrada_sociedade", "cod_pais",
        "cpf_representante_legal", "nome_representante_legal",
        "cod_qualificacao_representante_legal", "cod_faixa_etaria",
    ],
    # derived from the estabelecimento source file (multi-target route)
    "estabelecimento_cnae_sec": [
        "cnpj_basico", "cnpj_ordem", "cnpj_dv", "cod_cnae",
    ],
}

#: reference date-column lists (db_transformers.py:99-126 dispatch)
DATE_COLUMNS: dict[str, list[str]] = {
    "estabelecimento": ["data_situacao_cadastral", "data_inicio_atividade",
                        "data_situacao_especial"],
    "simples": ["data_opcao_simples", "data_exclusao_simples",
                "data_opcao_mei", "data_exclusao_mei"],
    "socio": ["data_entrada_sociedade"],
}

#: M5 per-table chains — the reference's transform_batch dispatch as data
CHAINS: dict[str, TransformChain] = {
    name: TransformChain(
        numeric_br=(["capital_social"] if name == "empresa" else []),
        date_columns=DATE_COLUMNS.get(name, []),
    )
    for name in SOURCE_COLUMNS
}

#: doc_id derivation per table: columns concatenated with the separator.
DOC_ID_COLUMNS: dict[str, tuple[list[str], str]] = {
    "cnae": (["cod_cnae"], ""),
    "motivo": (["cod_motivo"], ""),
    "municipio": (["cod_municipio"], ""),
    "natureza_juridica": (["cod_natureza"], ""),
    "pais": (["cod_pais"], ""),
    "qualificacao_socio": (["cod_qualificacao"], ""),
    "empresa": (["cnpj_basico"], ""),
    "estabelecimento": (["cnpj_basico", "cnpj_ordem", "cnpj_dv"], ""),
    "simples": (["cnpj_basico"], ""),
    "socio": (["cnpj_basico", "identificador_socio", "cnpj_cpf_socio",
               "cod_qualificacao_socio"], "|"),
    # full 14-digit CNPJ (no separator) + '-' + cod_cnae: encoded as a
    # GROUPED spec — (groups, group_sep) where each group is joined with
    # no separator — so the registry IS the key rule (a flat column list
    # with '-' would compute b-o-d-c, not bod-c, and silently re-key the
    # table for any generic consumer)
    "estabelecimento_cnae_sec": ([["cnpj_basico", "cnpj_ordem", "cnpj_dv"],
                                  ["cod_cnae"]], "-"),
}


def derive_doc_id(batch: pa.Table, table: str) -> pa.Array:
    """The ONE key rule: build a table's doc_id from DOC_ID_COLUMNS.
    Grouped specs join each inner group with no separator, then the
    groups with the declared separator."""
    cols, sep = DOC_ID_COLUMNS[table]
    if cols and isinstance(cols[0], list):
        parts = [_concat_cols(batch, g, "") for g in cols]
        return pc.binary_join_element_wise(*parts, sep)
    return _concat_cols(batch, cols, sep)


def _lake_schema(table: str) -> pa.Schema:
    """Lake payload schema: doc_id first, then the source columns typed —
    date columns land as date32 (normalize_dates output), capital_social
    as float64 (post-BR-normalize cast); everything else string, matching
    the reference's VARCHAR/TEXT declarations."""
    dates = set(DATE_COLUMNS.get(table, []))
    fields = [pa.field("doc_id", pa.string())]
    for col in SOURCE_COLUMNS[table]:
        if col in dates:
            fields.append(pa.field(col, pa.date32()))
        elif table == "empresa" and col == "capital_social":
            fields.append(pa.field(col, pa.float64()))
        else:
            fields.append(pa.field(col, pa.string()))
    return pa.schema(fields)


#: routing stems per reference schema.py source_file_stem entries
_STEMS: dict[str, tuple[str, ...]] = {
    "cnae": ("cnaes",),
    "motivo": ("motivos",),
    "municipio": ("municipios",),
    "natureza_juridica": ("naturezas",),
    "pais": ("paises",),
    "qualificacao_socio": ("qualificacoes",),
    "empresa": ("empresas",),
    "estabelecimento": ("estabelecimentos",),
    "simples": ("simples",),
    "socio": ("socios",),
    "estabelecimento_cnae_sec": ("estabelecimentos",),
}

#: which table's SOURCE_COLUMNS to parse the raw file with (cnae_sec is
#: carved out of the estabelecimento source rows)
SOURCE_TABLE: dict[str, str] = {
    name: ("estabelecimento" if name == "estabelecimento_cnae_sec" else name)
    for name in SOURCE_COLUMNS
}

CNPJ_REGISTRY: dict[str, TableSpec] = {
    name: TableSpec(
        name=name,
        schema=_lake_schema(name),
        key=("doc_id",),
        source_file_stems=_STEMS[name],
    )
    for name in SOURCE_COLUMNS
}


# ---------------------------------------------------------------------------
# per-table batch preparers (vectorized; run inside map_batches)
# ---------------------------------------------------------------------------

def _concat_cols(batch: pa.Table, cols: list[str], sep: str) -> pa.Array:
    arrs = [batch.column(c) for c in cols]
    if len(arrs) == 1:
        return arrs[0]
    return pc.binary_join_element_wise(
        *arrs, sep, null_handling="replace", null_replacement=""
    )


def prepare_batch(batch: pa.Table, table: str) -> pa.Table:
    """Raw parsed CSV rows (all-string, source column order) → lake rows:
    the reference transform chain, then doc_id derivation, then a conform
    cast to the lake schema. Pure Arrow kernels throughout."""
    spec = CNPJ_REGISTRY[table]
    if table == "estabelecimento_cnae_sec":
        batch = sanitize_cells(batch)
        batch = explode_delimited(
            batch,
            key_columns=["cnpj_basico", "cnpj_ordem", "cnpj_dv"],
            list_column="cod_cnae_secundario",
            out_column="cod_cnae",
        )
    else:
        batch = CHAINS[table](batch)
        if table == "empresa":
            # post-normalize "1234.56" strings → typed numeric column
            idx = batch.schema.get_field_index("capital_social")
            batch = batch.set_column(
                idx, pa.field("capital_social", pa.float64()),
                pc.cast(batch.column(idx), pa.float64()),
            )
    doc_id = derive_doc_id(batch, table)
    batch = batch.add_column(0, pa.field("doc_id", pa.string()), doc_id)
    return conform_table(batch, spec.schema)


def make_preparer(table: str):
    def prepare(batch: pa.Table) -> pa.Table:
        return prepare_batch(batch, table)

    prepare.__name__ = f"prepare_{table}"
    return prepare


# ---------------------------------------------------------------------------
# the load pipeline (reference orchestrator load phase, Ray-Data-first)
# ---------------------------------------------------------------------------

def load_cnpj_files(
    zip_paths: list[str],
    lake_dir,
    cfg=None,
    overwrite: bool = False,
) -> dict[str, dict]:
    """Full load of CNPJ zip archives into lake tables.

    Routes each archive by filename stem (S6, multi-target), parses the
    zipped headerless latin-1 CSVs in-memory (S5), applies the table's
    transform chain vectorized, and commits each target table as an
    epoch-0 distributed init. A file routed to several tables (the
    Estabelecimentos case) is parsed once per target — stateless re-read
    beats materializing a fork, and the OS page cache absorbs the second
    pass; at 100 TB the archives would be split across nodes and each
    target's pass streams independently.

    Returns {table: commit_record}.
    """
    import shutil
    from pathlib import Path

    from rfb_cnpj_etl_ray.config import EngineConfig
    from rfb_cnpj_etl_ray.pipelines.ingest import init_lake_from_dataset
    from rfb_cnpj_etl_ray.sources.csv_source import read_zip_csv, route_targets

    cfg = cfg or EngineConfig()
    by_table: dict[str, list[str]] = {}
    for p in zip_paths:
        for t in route_targets(Path(p).name, CNPJ_REGISTRY):
            by_table.setdefault(t, []).append(str(p))
    out = {}
    for table, paths in sorted(by_table.items()):
        if overwrite:
            shutil.rmtree(Path(lake_dir) / table, ignore_errors=True)
        raw = read_zip_csv(sorted(paths), SOURCE_COLUMNS[SOURCE_TABLE[table]])
        prepared = raw.map_batches(
            make_preparer(table), batch_format="pyarrow", zero_copy_batch=True
        )
        out[table] = init_lake_from_dataset(
            lake_dir, CNPJ_REGISTRY[table], prepared, cfg=cfg
        )
    return out


# ---------------------------------------------------------------------------
# deterministic fixture: CNPJ-shaped zip archives synthesized from the
# driver's parquet tables (so DuckDB can reproduce the load output in SQL)
# ---------------------------------------------------------------------------

def _br_money(values) -> "pd.Series":
    """Vectorized 1234.56 → '1.234,56' (the raw format Empresas CSVs
    carry; normalize_numeric_br inverts it exactly)."""
    import pandas as pd

    s = pd.Series(values).abs().map(lambda x: f"{x:,.2f}")
    return s.str.replace(",", "@").str.replace(".", ",").str.replace("@", ".")


def _zfill(series, width):
    """Zero-pad a fixture column (shared by both fixture generators so
    the CSV dialect can never drift between them)."""
    return series.astype(str).str.zfill(width)


def _write_fixture_zip(out_dir, name: str, member: str, df) -> str:
    """Headerless ';' latin-1 CSV inside a zip — the reference's exact
    input container (one definition; both generators use it)."""
    import io
    import zipfile
    from pathlib import Path

    buf = io.StringIO()
    df.to_csv(buf, sep=";", header=False, index=False, lineterminator="\n")
    path = Path(out_dir) / name
    with zipfile.ZipFile(path, "w", zipfile.ZIP_DEFLATED) as zf:
        zf.writestr(member, buf.getvalue().encode("latin-1"))
    return str(path)


def synth_cnpj_fixture(sf_dir: str, out_dir) -> list[str]:
    """Write Empresas0.zip / Estabelecimentos0.zip / Paises.zip shaped
    exactly like the reference's inputs (headerless latin-1 ';' CSV in a
    zip), derived deterministically from supplier / customer / nation so
    the lake contents are SQL-reproducible. Fixture generator — driver
    side on purpose (bounded by the dimension-scale source tables)."""
    from pathlib import Path

    import pandas as pd
    import pyarrow.parquet as pq

    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    def z(series, width):
        return _zfill(series, width)

    def write_zip(name: str, member: str, df: pd.DataFrame) -> str:
        return _write_fixture_zip(out, name, member, df)

    paths = []

    # Empresas ← supplier
    sup = pq.read_table(
        f"{sf_dir}/supplier.parquet",
        columns=["s_suppkey", "s_name", "s_acctbal"],
    ).to_pandas()
    import numpy as np

    k = sup["s_suppkey"]
    emp = pd.DataFrame({
        "cnpj_basico": z(k, 8),
        "razao_social": sup["s_name"],
        # codes 0000-0006 vs a 0000-0004 dim: exercises the report's
        # COALESCE(nat.nome_natureza, 'NATUREZA DESCONHECIDA') both ways
        "cod_natureza_juridica": z(k % 7, 4),
        "cod_qualificacao_responsavel": "49",
        "capital_social": _br_money(sup["s_acctbal"]),
        # '07' is outside the report's porte CASE → ELSE branch
        "cod_porte": pd.Series(
            np.array(["00", "01", "03", "05", "07"])[k % 5], index=k.index),
        "ente_federativo_responsavel": "",
    })
    paths.append(write_zip("Empresas0.zip", "EMPRECSV", emp))

    # Estabelecimentos ← customer (multi-target: estabelecimento + cnae_sec)
    cust = pq.read_table(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_nationkey"],
    ).to_pandas()
    k = cust["c_custkey"]
    n = cust["c_nationkey"].astype("int64")
    a = z(k % 97, 7)
    b = z(k % 97 + 100, 7)
    sec = pd.Series("", index=k.index, dtype="object")
    sec = sec.mask((k % 3 != 0) & (k % 2 == 0), a)
    sec = sec.mask((k % 3 != 0) & (k % 2 != 0), a + ", " + b)
    import numpy as np

    est = pd.DataFrame({
        "cnpj_basico": z(k, 8),
        "cnpj_ordem": "0001",
        "cnpj_dv": z(k % 100, 2),
        "matriz_filial": pd.Series(
            np.array(["1", "2", "3"])[k % 3], index=k.index),
        "nome_fantasia": " " + cust["c_name"] + "  ",  # M1 strips this
        # the report filters cod_situacao_cadastral='02': mixed statuses
        # make the predicate a real filter, not a pass-through
        "cod_situacao_cadastral": pd.Series(
            np.array(["08", "04", "02", "02", "02", "02"])[k % 6],
            index=k.index),
        "data_situacao_cadastral": pd.Series("20200115", index=k.index)
            .mask(k % 7 == 0, "00000000"),  # sentinel → NULL (M4)
        # 00-06 vs the 00-04 motivo dim: COALESCE both ways
        "cod_motivo_situacao_cadastral": z(k % 7, 2),
        "nome_cidade_exterior": "",
        # '999' misses the pais dim → 'PAÍS DESCONHECIDO' branch
        "cod_pais": z(n, 3).mask(k % 13 == 0, "999"),
        # mixed openings: the report's Jan-2022 range predicate selects
        # k%5 in {0,1,2,3}; k%5==4 rows fall outside
        "data_inicio_atividade": pd.Series(
            np.array(["20220105", "20220120", "20220131", "20220125",
                      "19990322"])[k % 5], index=k.index),
        "cod_cnae_principal": z(n * 281 + 11, 7),
        "cod_cnae_secundario": sec,
        "tipo_logradouro": "RUA",
        "logradouro": "LOGRADOURO " + k.astype(str),
        # some empty numeros/complementos: address-concat branches
        "numero": (k % 1000).astype(str).mask(k % 11 == 0, ""),
        "complemento": pd.Series("", index=k.index, dtype="object")
            .mask(k % 4 == 1, "SALA " + (k % 50).astype(str)),
        "bairro": "CENTRO",
        "cep": z(k, 8),
        # report predicate uf IN ('PE','EX'); EX exercises the pais path
        "uf": pd.Series(
            np.array(["SP", "PE", "RJ", "EX"])[k % 4], index=k.index),
        "cod_municipio": z(n * 37 + 1, 4),
        # mixed empty/filled phones: the NULLIF/TRIM telefone CASEs
        "ddd_telefone_1": z(k % 89 + 11, 2).mask(k % 3 == 0, ""),
        "telefone_1": z(k * 7 % 100000000, 8).mask(k % 5 == 0, ""),
        "ddd_telefone_2": z(k % 80 + 10, 2).mask(k % 2 == 0, ""),
        "telefone_2": z(k * 3 % 100000000, 8),
        "ddd_fax": "", "fax": "", "email": "",
        "situacao_especial": "",
        "data_situacao_especial": "00000000",  # sentinel → NULL
    })
    paths.append(write_zip("Estabelecimentos0.zip", "ESTABELE", est))

    # Paises ← nation (dimension load)
    nat = pq.read_table(
        f"{sf_dir}/nation.parquet", columns=["n_nationkey", "n_name"]
    ).to_pandas()
    pais = pd.DataFrame({
        "cod_pais": z(nat["n_nationkey"].astype("int64"), 3),
        "nome_pais": nat["n_name"],
    })
    paths.append(write_zip("Paises.zip", "PAISCSV", pais))
    return paths


def _ensure_cnpj_lake(sf_dir: str):
    """Build (once per sf_dir, cached) the fixture zips and run the full
    multi-table load; return the lake path."""
    import os
    import shutil
    from pathlib import Path

    from rfb_cnpj_etl_ray.config import EngineConfig

    root = (Path(os.environ.get("GRAFT_TMP", "/tmp")) / "rfb_cnpj_etl_ray"
            / f"cnpj_{Path(sf_dir).name}")
    marker = root / "_LOADED"
    # fixture generation version + table list: stale caches rebuild
    want = "v3:" + ",".join(sorted(CNPJ_REGISTRY))
    if not marker.exists() or marker.read_text() != want:
        shutil.rmtree(root, ignore_errors=True)
        zips = synth_cnpj_fixture_full(sf_dir, root / "zips")
        load_cnpj_files(zips, root / "lake",
                        cfg=EngineConfig(num_partitions=8))
        marker.write_text(want)
    return root / "lake"


def _dates_to_iso(ds, columns: list[str]):
    """date32 → 'YYYY-MM-DD' strings for engine-neutral value compare."""
    def cast(batch: pa.Table) -> pa.Table:
        for c in columns:
            idx = batch.schema.get_field_index(c)
            iso = pc.strftime(pc.cast(batch.column(idx), pa.timestamp("s")),
                              "%Y-%m-%d")
            batch = batch.set_column(idx, pa.field(c, pa.string()), iso)
        return batch

    return ds.map_batches(cast, batch_format="pyarrow", zero_copy_batch=True)


def cnpj_empresa_load(sf_dir: str):
    """Empresas zip → empresa lake table (S5+S6+M1+M3: BR-numeric
    capital_social lands as float64)."""
    from rfb_cnpj_etl_ray.pipelines.ingest import read_lake

    return read_lake(_ensure_cnpj_lake(sf_dir), "empresa")


def cnpj_estabelecimento_load(sf_dir: str):
    """Estabelecimentos zip → estabelecimento lake table (M1 sanitize,
    M4 dates with sentinel → NULL); dates emitted ISO for the oracle."""
    from rfb_cnpj_etl_ray.pipelines.ingest import read_lake

    ds = read_lake(_ensure_cnpj_lake(sf_dir), "estabelecimento")
    return _dates_to_iso(ds, DATE_COLUMNS["estabelecimento"])


def cnpj_cnae_sec_explode(sf_dir: str):
    """Same source file, second routing target: the F1 delimited explode
    into estabelecimento_cnae_sec child rows."""
    from rfb_cnpj_etl_ray.pipelines.ingest import read_lake

    return read_lake(_ensure_cnpj_lake(sf_dir), "estabelecimento_cnae_sec")


def cnpj_pais_dim_load(sf_dir: str):
    """Paises zip → pais dimension table."""
    from rfb_cnpj_etl_ray.pipelines.ingest import read_lake

    return read_lake(_ensure_cnpj_lake(sf_dir), "pais")


CNPJ_EMPRESA_SQL = """
SELECT lpad(CAST(s_suppkey AS VARCHAR),8,'0') AS doc_id,
       lpad(CAST(s_suppkey AS VARCHAR),8,'0') AS cnpj_basico,
       s_name AS razao_social,
       lpad(CAST(s_suppkey % 7 AS VARCHAR),4,'0') AS cod_natureza_juridica,
       '49' AS cod_qualificacao_responsavel,
       ABS(s_acctbal) AS capital_social,
       CASE s_suppkey % 5 WHEN 0 THEN '00' WHEN 1 THEN '01' WHEN 2 THEN '03'
                          WHEN 3 THEN '05' ELSE '07' END AS cod_porte,
       '' AS ente_federativo_responsavel
FROM supplier
"""

CNPJ_ESTABELECIMENTO_SQL = """
SELECT
 lpad(CAST(c_custkey AS VARCHAR),8,'0') || '0001'
   || lpad(CAST(c_custkey % 100 AS VARCHAR),2,'0') AS doc_id,
 lpad(CAST(c_custkey AS VARCHAR),8,'0') AS cnpj_basico,
 '0001' AS cnpj_ordem,
 lpad(CAST(c_custkey % 100 AS VARCHAR),2,'0') AS cnpj_dv,
 CAST(c_custkey % 3 + 1 AS VARCHAR) AS matriz_filial,
 c_name AS nome_fantasia,
 CASE c_custkey % 6 WHEN 0 THEN '08' WHEN 1 THEN '04' ELSE '02' END
   AS cod_situacao_cadastral,
 CASE WHEN c_custkey % 7 = 0 THEN NULL ELSE '2020-01-15' END
   AS data_situacao_cadastral,
 lpad(CAST(c_custkey % 7 AS VARCHAR),2,'0') AS cod_motivo_situacao_cadastral,
 '' AS nome_cidade_exterior,
 CASE WHEN c_custkey % 13 = 0 THEN '999'
      ELSE lpad(CAST(c_nationkey AS VARCHAR),3,'0') END AS cod_pais,
 CASE c_custkey % 5 WHEN 0 THEN '2022-01-05' WHEN 1 THEN '2022-01-20'
      WHEN 2 THEN '2022-01-31' WHEN 3 THEN '2022-01-25'
      ELSE '1999-03-22' END AS data_inicio_atividade,
 lpad(CAST(c_nationkey * 281 + 11 AS VARCHAR),7,'0') AS cod_cnae_principal,
 CASE WHEN c_custkey % 3 = 0 THEN ''
      WHEN c_custkey % 2 = 0 THEN lpad(CAST(c_custkey % 97 AS VARCHAR),7,'0')
      ELSE lpad(CAST(c_custkey % 97 AS VARCHAR),7,'0') || ', '
           || lpad(CAST(c_custkey % 97 + 100 AS VARCHAR),7,'0')
 END AS cod_cnae_secundario,
 'RUA' AS tipo_logradouro,
 'LOGRADOURO ' || CAST(c_custkey AS VARCHAR) AS logradouro,
 CASE WHEN c_custkey % 11 = 0 THEN ''
      ELSE CAST(c_custkey % 1000 AS VARCHAR) END AS numero,
 CASE WHEN c_custkey % 4 = 1
      THEN 'SALA ' || CAST(c_custkey % 50 AS VARCHAR) ELSE '' END
   AS complemento,
 'CENTRO' AS bairro,
 lpad(CAST(c_custkey AS VARCHAR),8,'0') AS cep,
 CASE c_custkey % 4 WHEN 0 THEN 'SP' WHEN 1 THEN 'PE' WHEN 2 THEN 'RJ'
      ELSE 'EX' END AS uf,
 lpad(CAST(c_nationkey * 37 + 1 AS VARCHAR),4,'0') AS cod_municipio,
 CASE WHEN c_custkey % 3 = 0 THEN ''
      ELSE lpad(CAST(c_custkey % 89 + 11 AS VARCHAR),2,'0') END
   AS ddd_telefone_1,
 CASE WHEN c_custkey % 5 = 0 THEN ''
      ELSE lpad(CAST(c_custkey * 7 % 100000000 AS VARCHAR),8,'0') END
   AS telefone_1,
 CASE WHEN c_custkey % 2 = 0 THEN ''
      ELSE lpad(CAST(c_custkey % 80 + 10 AS VARCHAR),2,'0') END
   AS ddd_telefone_2,
 lpad(CAST(c_custkey * 3 % 100000000 AS VARCHAR),8,'0') AS telefone_2,
 '' AS ddd_fax, '' AS fax, '' AS email,
 '' AS situacao_especial,
 CAST(NULL AS VARCHAR) AS data_situacao_especial
FROM customer
"""

CNPJ_CNAE_SEC_SQL = """
WITH src AS (
  SELECT lpad(CAST(c_custkey AS VARCHAR),8,'0') AS b,
         '0001' AS o,
         lpad(CAST(c_custkey % 100 AS VARCHAR),2,'0') AS d,
         CASE WHEN c_custkey % 3 = 0 THEN ''
              WHEN c_custkey % 2 = 0
                THEN lpad(CAST(c_custkey % 97 AS VARCHAR),7,'0')
              ELSE lpad(CAST(c_custkey % 97 AS VARCHAR),7,'0') || ','
                   || lpad(CAST(c_custkey % 97 + 100 AS VARCHAR),7,'0')
         END AS sec
  FROM customer
), ex AS (
  SELECT b, o, d, trim(unnest(string_split(sec, ','))) AS cod_cnae FROM src
)
SELECT b || o || d || '-' || cod_cnae AS doc_id,
       b AS cnpj_basico, o AS cnpj_ordem, d AS cnpj_dv, cod_cnae
FROM ex WHERE cod_cnae <> ''
"""

CNPJ_PAIS_SQL = """
SELECT lpad(CAST(n_nationkey AS VARCHAR),3,'0') AS doc_id,
       lpad(CAST(n_nationkey AS VARCHAR),3,'0') AS cod_pais,
       n_name AS nome_pais
FROM nation
"""


# ---------------------------------------------------------------------------
# full-registry fixture: the remaining 7 tables (simples, socio + 5 dims)
# ---------------------------------------------------------------------------

def synth_cnpj_fixture_full(sf_dir: str, out_dir) -> list[str]:
    """All 11 registry tables: the three archives of
    :func:`synth_cnpj_fixture` plus Simples (← orders: real calendar
    dates through M4, all three NULL sentinels exercised), Socios (←
    customer: composite doc_id key) and the five remaining dimension
    archives (← part/region/nation)."""
    from pathlib import Path

    import pandas as pd
    import pyarrow.parquet as pq

    out = Path(out_dir)
    paths = synth_cnpj_fixture(sf_dir, out)

    def z(series, width):
        return _zfill(series, width)

    def write_zip(name: str, member: str, df: pd.DataFrame) -> str:
        return _write_fixture_zip(out, name, member, df)

    # Simples ← orders (one row per order; real dates through M4)
    orders = pq.read_table(
        f"{sf_dir}/orders.parquet", columns=["o_orderkey", "o_orderdate"]
    ).to_pandas()
    # sparse: k%9==0 rows absent → the report's LEFT JOIN simples
    # produces real NULL rows (Optante CASEs hit the COALESCE default)
    orders = orders[orders["o_orderkey"] % 9 != 0]
    k = orders["o_orderkey"]
    simples = pd.DataFrame({
        "cnpj_basico": z(k, 8),
        "opcao_simples": pd.Series("N", index=k.index).mask(k % 2 == 1, "S"),
        "data_opcao_simples": orders["o_orderdate"].dt.strftime("%Y%m%d"),
        "data_exclusao_simples": pd.Series("20230401", index=k.index)
            .mask(k % 5 == 0, "00000000"),   # sentinel → NULL
        "opcao_mei": pd.Series("N", index=k.index).mask(k % 3 == 0, "S"),
        "data_opcao_mei": pd.Series("0", index=k.index)  # '0' sentinel
            .mask(k % 3 == 0, "20190601"),
        "data_exclusao_mei": "",             # '' sentinel → NULL
    })
    paths.append(write_zip("Simples.zip", "SIMPLES", simples))

    # Socios ← customer (composite doc_id: basico|ident|cpf|qualif)
    cust = pq.read_table(
        f"{sf_dir}/customer.parquet",
        columns=["c_custkey", "c_name", "c_nationkey"],
    ).to_pandas()
    # k%10==0 companies have NO socio rows (the report's correlated
    # GROUP_CONCAT then yields NULL, like the reference query)
    cust = cust[cust["c_custkey"] % 10 != 0]
    k = cust["c_custkey"]
    n = cust["c_nationkey"].astype("int64")

    def socio_frame(ident, nome_prefix, cpf_offset):
        return pd.DataFrame({
            "cnpj_basico": z(k, 8),
            "identificador_socio": ident,
            "nome_socio": nome_prefix + cust["c_name"],
            "cnpj_cpf_socio": z(k + cpf_offset, 11),
            "cod_qualificacao_socio": z(k % 49 + 1, 2),
            "data_entrada_sociedade": "20100705",
            "cod_pais": z(n, 3),
            "cpf_representante_legal": z(k % 1000, 11),
            "nome_representante_legal": "",
            "cod_qualificacao_representante_legal": "00",
            "cod_faixa_etaria": (k % 9 + 1).astype(str),
        })

    first = socio_frame((k % 3 + 1).astype(str), "SOCIO ", 0)
    # a second partner for k%4==0: multi-name GROUP_CONCAT rows
    second = socio_frame("9", "socio b ", 500000)[k % 4 == 0]
    socio = pd.concat([first, second], ignore_index=True)
    paths.append(write_zip("Socios0.zip", "SOCIOCSV", socio))

    # remaining dimensions
    part = pq.read_table(f"{sf_dir}/part.parquet",
                         columns=["p_partkey", "p_type"]).to_pandas()
    paths.append(write_zip("Cnaes.zip", "CNAECSV", pd.DataFrame({
        "cod_cnae": z(part["p_partkey"], 7),
        "nome_cnae": part["p_type"],
    })))
    region = pq.read_table(f"{sf_dir}/region.parquet",
                           columns=["r_regionkey", "r_name"]).to_pandas()
    paths.append(write_zip("Motivos.zip", "MOTICSV", pd.DataFrame({
        "cod_motivo": z(region["r_regionkey"], 2),
        "nome_motivo": region["r_name"],
    })))
    paths.append(write_zip("Naturezas.zip", "NATJUCSV", pd.DataFrame({
        "cod_natureza": z(region["r_regionkey"], 4),
        "nome_natureza": "NATUREZA " + region["r_name"],
    })))
    paths.append(write_zip("Qualificacoes.zip", "QUALSCSV", pd.DataFrame({
        "cod_qualificacao": z(region["r_regionkey"], 2),
        "nome_qualificacao": "QUALIF " + region["r_name"],
    })))
    nation = pq.read_table(f"{sf_dir}/nation.parquet",
                           columns=["n_nationkey", "n_name"]).to_pandas()
    paths.append(write_zip("Municipios.zip", "MUNICCSV", pd.DataFrame({
        "cod_municipio": z(nation["n_nationkey"].astype("int64"), 4),
        "nome_municipio": "CIDADE " + nation["n_name"],
    })))
    return paths


def _cnpj_table_query(table: str):
    """Query factory: committed lake table contents (dates ISO-strung
    for the engine-neutral value compare)."""
    def q(sf_dir: str):
        from rfb_cnpj_etl_ray.pipelines.ingest import read_lake

        ds = read_lake(_ensure_cnpj_lake(sf_dir), table)
        dates = DATE_COLUMNS.get(table)
        return _dates_to_iso(ds, dates) if dates else ds

    q.__name__ = f"cnpj_{table}_load"
    return q


cnpj_simples_load = _cnpj_table_query("simples")
cnpj_socio_load = _cnpj_table_query("socio")
cnpj_cnae_dim_load = _cnpj_table_query("cnae")
cnpj_motivo_dim_load = _cnpj_table_query("motivo")
cnpj_municipio_dim_load = _cnpj_table_query("municipio")
cnpj_natureza_dim_load = _cnpj_table_query("natureza_juridica")
cnpj_qualificacao_dim_load = _cnpj_table_query("qualificacao_socio")


# ---------------------------------------------------------------------------
# the reference's flagship analytical query over the loaded lake
# (docs/exemplos/query_sqlite.md:11-79): estabelecimento⋈empresa, LEFT
# JOINs to simples + 5 dimensions, two correlated GROUP_CONCATs (secondary
# CNAEs, socios), CASE/COALESCE/NULLIF mappings, range+IN predicates,
# ORDER BY razao_social LIMIT 20
# ---------------------------------------------------------------------------

_REPORT_UFS = ("PE", "EX")          # 'EX' keeps the pais-dimension branch live
_REPORT_SITUACAO = ("02",)
_REPORT_DATE_FROM = "2022-01-01"
_REPORT_DATE_TO = "2022-01-31"
_REPORT_LIMIT = 20

_SITUACAO_LABELS = {"01": "01 - NULA", "02": "02 - ATIVA",
                    "03": "03 - SUSPENSA", "04": "04 - INAPTA",
                    "08": "08 - BAIXADA"}
_PORTE_LABELS = {"00": "NÃO INFORMADO", "01": "01 - MICROEMPRESA",
                 "03": "03 - PEQUENO PORTE", "05": "05 - DEMAIS"}
_MATRIZ_LABELS = {"1": "MATRIZ", "2": "FILIAL"}


def _dim_lookup(lake, table: str, key: str, val: str) -> dict:
    """Bounded dimension → driver dict (the broadcast small side; real
    CNPJ dims are ≤ a few thousand rows by contract)."""
    from rfb_cnpj_etl_ray.pipelines.ingest import read_lake_table

    t = read_lake_table(lake, table)
    return dict(zip(t.column(key).to_pylist(), t.column(val).to_pylist()))


def cnpj_estabelecimento_report(sf_dir: str):
    """The documented first query a reference user runs
    (query_sqlite.md:11-79), Ray-Data-first:

    * predicate pushdown on the biggest table (estabelecimento is
      column-pruned at the read and filtered in the first map_batches);
    * estabelecimento⋈empresa as a distributed inner ``keyed_join``,
      LEFT JOIN simples as a distributed left-outer one — both
      fact-sized at 100 TB;
    * ORDER BY razao_social LIMIT 20 runs BEFORE the correlated
      GROUP_CONCAT enrichment: the concat columns cannot change which
      rows the top-k keeps (they are projections, not predicates), so
      the engine enriches exactly the ≤20 surviving rows via pruned
      scans of socio/estabelecimento_cnae_sec (is_in over the ≤20 keys,
      aggregated where they land) and broadcast dimension maps — the
      classic top-k-then-enrich plan; nothing fact-sized is collected;
    * all five dimension LEFT JOINs are broadcast lookups (dims are
      bounded by contract), not shuffles.

    Returns a pyarrow Table with the reference's display column names.
    """
    import datetime as _dt

    import pandas as pd

    from rfb_cnpj_etl_ray.pipelines.ingest import read_lake
    from rfb_cnpj_etl_ray.stages.joins import keyed_join

    lake = _ensure_cnpj_lake(sf_dir)

    est_cols = [
        "doc_id", "cnpj_basico", "cnpj_ordem", "cnpj_dv", "matriz_filial",
        "nome_fantasia", "cod_situacao_cadastral", "data_situacao_cadastral",
        "cod_motivo_situacao_cadastral", "cod_pais", "data_inicio_atividade",
        "cod_cnae_principal", "tipo_logradouro", "logradouro", "numero",
        "complemento", "bairro", "cep", "uf", "cod_municipio",
        "ddd_telefone_1", "telefone_1", "ddd_telefone_2", "telefone_2",
        "email",
    ]
    d_from = _dt.date.fromisoformat(_REPORT_DATE_FROM)
    d_to = _dt.date.fromisoformat(_REPORT_DATE_TO)

    def keep(t: pa.Table) -> pa.Table:
        m = pc.is_in(t.column("uf"), value_set=pa.array(list(_REPORT_UFS)))
        m = pc.and_kleene(m, pc.is_in(
            t.column("cod_situacao_cadastral"),
            value_set=pa.array(list(_REPORT_SITUACAO))))
        d = t.column("data_inicio_atividade")
        m = pc.and_kleene(m, pc.greater_equal(d, pa.scalar(d_from)))
        m = pc.and_kleene(m, pc.less_equal(d, pa.scalar(d_to)))
        return t.filter(pc.fill_null(m, False))

    est = read_lake(lake, "estabelecimento").select_columns(est_cols)
    est = est.map_batches(keep, batch_format="pyarrow", zero_copy_batch=True)

    emp = read_lake(lake, "empresa").select_columns(
        ["cnpj_basico", "razao_social", "cod_natureza_juridica", "cod_porte",
         "capital_social"])
    joined = keyed_join(est, emp, "cnpj_basico", "cnpj_basico", "inner")

    sim = read_lake(lake, "simples").select_columns(
        ["cnpj_basico", "opcao_simples", "data_opcao_simples",
         "data_exclusao_simples", "opcao_mei", "data_opcao_mei",
         "data_exclusao_mei"])
    joined = keyed_join(joined, sim, "cnpj_basico", "cnpj_basico",
                        "left outer")

    top = (joined.sort(["razao_social", "doc_id"])
                 .limit(_REPORT_LIMIT).to_pandas())

    # --- enrichment of the ≤20 surviving rows ---
    doc_keys = pa.array(sorted(set(top["doc_id"])), pa.string())
    basico_keys = pa.array(sorted(set(top["cnpj_basico"])), pa.string())

    cnae = _dim_lookup(lake, "cnae", "cod_cnae", "nome_cnae")
    motivo = _dim_lookup(lake, "motivo", "cod_motivo", "nome_motivo")
    natureza = _dim_lookup(lake, "natureza_juridica",
                           "cod_natureza", "nome_natureza")
    municipio = _dim_lookup(lake, "municipio",
                            "cod_municipio", "nome_municipio")
    pais = _dim_lookup(lake, "pais", "cod_pais", "nome_pais")

    def prune_sec(t: pa.Table) -> pa.Table:
        full = pc.binary_join_element_wise(
            t.column("cnpj_basico"), t.column("cnpj_ordem"),
            t.column("cnpj_dv"), "")
        t = t.append_column("full_cnpj", full)
        return t.filter(pc.is_in(full, value_set=doc_keys)).select(
            ["full_cnpj", "cod_cnae"])

    sec_df = (read_lake(lake, "estabelecimento_cnae_sec")
              .map_batches(prune_sec, batch_format="pyarrow",
                           zero_copy_batch=True)
              .to_pandas())           # ≤ 20 establishments' rows
    sec_concat: dict[str, str] = {}
    if not sec_df.empty:
        sec_df["item"] = sec_df["cod_cnae"] + " - " + sec_df["cod_cnae"].map(
            cnae).fillna("CNAE SECUNDÁRIO DESCONHECIDO")
        sec_df = sec_df.sort_values(["full_cnpj", "cod_cnae"])
        sec_concat = sec_df.groupby("full_cnpj")["item"].agg(
            " / ".join).to_dict()

    def prune_soc(t: pa.Table) -> pa.Table:
        return t.filter(pc.is_in(t.column("cnpj_basico"),
                                 value_set=basico_keys)).select(
            ["cnpj_basico", "nome_socio"])

    soc_df = (read_lake(lake, "socio")
              .map_batches(prune_soc, batch_format="pyarrow",
                           zero_copy_batch=True)
              .to_pandas())           # ≤ 20 companies' partners
    soc_concat: dict[str, str] = {}
    if not soc_df.empty:
        soc_df["nm"] = soc_df["nome_socio"].str.strip().str.upper()
        soc_df = soc_df.sort_values(["cnpj_basico", "nm"])
        soc_concat = soc_df.groupby("cnpj_basico")["nm"].agg(
            ", ".join).to_dict()

    # --- final projection (≤20 rows; plain pandas/python is the right
    # tool at this cardinality) ---
    def fmt_date(d) -> str:
        return "" if pd.isna(d) else d.strftime("%d/%m/%Y")

    def code_name(code, mapping, unknown) -> str:
        return f"{code} - {mapping.get(code, unknown)}"

    def phone1(ddd, tel):
        # reference keys Telefone 1 on the NUMBER being non-empty
        tel = (tel or "").strip()
        if tel == "":
            return None
        ddd = (ddd or "").strip()
        return (f"({ddd}) " if ddd else "") + tel

    def phone2(ddd, tel):
        # ...but keys Telefone 2 on the DDD being non-empty
        # (query_sqlite.md:50 — asymmetry preserved on purpose)
        ddd = (ddd or "").strip()
        if ddd == "":
            return None
        return f"({ddd}) " + (tel or "").strip()

    def address(tipo, logr, num, compl) -> str:
        t = (tipo or "").strip()
        lg = (logr or "").strip()
        n = (num or "").strip()
        c = (compl or "").strip()
        s = t + (" " if t and lg else "") + lg
        s += (", " if n and (t or lg) else "") + n
        s += (", " if c and (t or lg or n) else "") + c
        return s.strip()

    rows = top.to_dict("records")
    out = {
        "CNPJ": [r["doc_id"] for r in rows],
        "Razão Social": [r["razao_social"] for r in rows],
        "Matriz / Filial": [
            _MATRIZ_LABELS.get(r["matriz_filial"], "NÃO INFORMADO")
            for r in rows],
        "Nome Fantasia": [r["nome_fantasia"] for r in rows],
        "Data de Abertura": [fmt_date(r["data_inicio_atividade"])
                             for r in rows],
        "Situação Cadastral": [
            _SITUACAO_LABELS.get(r["cod_situacao_cadastral"], "DESCONHECIDA")
            for r in rows],
        "Data da Situação Cadastral": [
            fmt_date(r["data_situacao_cadastral"]) for r in rows],
        "Motivo da Situação Cadastral": [
            code_name(r["cod_motivo_situacao_cadastral"], motivo,
                      "MOTIVO DESCONHECIDO") for r in rows],
        "Natureza Jurídica": [
            code_name(r["cod_natureza_juridica"], natureza,
                      "NATUREZA DESCONHECIDA") for r in rows],
        "Porte": [_PORTE_LABELS.get(r["cod_porte"], "00 - NÃO INFORMADO")
                  for r in rows],
        "Capital Social": pd.array(
            [r["capital_social"] for r in rows], dtype="float64"),
        "Atividade Principal": [
            code_name(r["cod_cnae_principal"], cnae, "CNAE DESCONHECIDO")
            for r in rows],
        "Atividade(s) Secundária(s)": [
            sec_concat.get(r["doc_id"], "") for r in rows],
        "Optante Simples": [
            "SIM" if r["opcao_simples"] == "S" else "NÃO" for r in rows],
        "Data Opção Simples": [fmt_date(r["data_opcao_simples"])
                               for r in rows],
        "Data Exclusão Simples": [fmt_date(r["data_exclusao_simples"])
                                  for r in rows],
        "Optante MEI": [
            "SIM" if r["opcao_mei"] == "S" else "NÃO" for r in rows],
        "Data Opção MEI": [fmt_date(r["data_opcao_mei"]) for r in rows],
        "Data Exclusão MEI": [fmt_date(r["data_exclusao_mei"])
                              for r in rows],
        "Endereço": [address(r["tipo_logradouro"], r["logradouro"],
                             r["numero"], r["complemento"]) for r in rows],
        "Bairro": [r["bairro"] for r in rows],
        "Município": [
            municipio.get(r["cod_municipio"], "MUNICÍPIO DESCONHECIDO")
            for r in rows],
        "Estado (UF)": [r["uf"] for r in rows],
        "País": ["BRASIL" if r["uf"] != "EX"
                 else (pais.get(r["cod_pais"], "PAÍS DESCONHECIDO")).upper()
                 for r in rows],
        "CEP": [r["cep"] for r in rows],
        "Telefone 1": [phone1(r["ddd_telefone_1"], r["telefone_1"])
                       for r in rows],
        "Telefone 2": [phone2(r["ddd_telefone_2"], r["telefone_2"])
                       for r in rows],
        "E-mail": [r["email"] for r in rows],
        "Sócio(s)": [soc_concat.get(r["cnpj_basico"]) for r in rows],
    }
    fields = [pa.field(name, pa.float64() if name == "Capital Social"
                       else pa.string()) for name in out]
    return pa.Table.from_pydict(
        {k: (list(v) if not isinstance(v, list) else v)
         for k, v in out.items()},
        schema=pa.schema(fields))


CNPJ_SIMPLES_SQL = """
SELECT lpad(CAST(o_orderkey AS VARCHAR),8,'0') AS doc_id,
       lpad(CAST(o_orderkey AS VARCHAR),8,'0') AS cnpj_basico,
       CASE WHEN o_orderkey % 2 = 1 THEN 'S' ELSE 'N' END AS opcao_simples,
       strftime(o_orderdate, '%Y-%m-%d') AS data_opcao_simples,
       CASE WHEN o_orderkey % 5 = 0 THEN NULL
            ELSE '2023-04-01' END AS data_exclusao_simples,
       CASE WHEN o_orderkey % 3 = 0 THEN 'S' ELSE 'N' END AS opcao_mei,
       CASE WHEN o_orderkey % 3 = 0 THEN '2019-06-01'
            ELSE CAST(NULL AS VARCHAR) END AS data_opcao_mei,
       CAST(NULL AS VARCHAR) AS data_exclusao_mei
FROM orders
WHERE o_orderkey % 9 <> 0
"""

CNPJ_SOCIO_SQL = """
WITH socio_src AS (
  SELECT c_custkey, c_nationkey,
         CAST(c_custkey % 3 + 1 AS VARCHAR) AS ident,
         'SOCIO ' || c_name AS nome,
         lpad(CAST(c_custkey AS VARCHAR),11,'0') AS cpf
  FROM customer WHERE c_custkey % 10 <> 0
  UNION ALL
  SELECT c_custkey, c_nationkey,
         '9' AS ident,
         'socio b ' || c_name AS nome,
         lpad(CAST(c_custkey + 500000 AS VARCHAR),11,'0') AS cpf
  FROM customer WHERE c_custkey % 10 <> 0 AND c_custkey % 4 = 0
)
SELECT lpad(CAST(c_custkey AS VARCHAR),8,'0') || '|'
         || ident || '|' || cpf || '|'
         || lpad(CAST(c_custkey % 49 + 1 AS VARCHAR),2,'0') AS doc_id,
       lpad(CAST(c_custkey AS VARCHAR),8,'0') AS cnpj_basico,
       ident AS identificador_socio,
       nome AS nome_socio,
       cpf AS cnpj_cpf_socio,
       lpad(CAST(c_custkey % 49 + 1 AS VARCHAR),2,'0')
         AS cod_qualificacao_socio,
       '2010-07-05' AS data_entrada_sociedade,
       lpad(CAST(c_nationkey AS VARCHAR),3,'0') AS cod_pais,
       lpad(CAST(c_custkey % 1000 AS VARCHAR),11,'0')
         AS cpf_representante_legal,
       '' AS nome_representante_legal,
       '00' AS cod_qualificacao_representante_legal,
       CAST(c_custkey % 9 + 1 AS VARCHAR) AS cod_faixa_etaria
FROM socio_src
"""

CNPJ_CNAE_SQL = """
SELECT lpad(CAST(p_partkey AS VARCHAR),7,'0') AS doc_id,
       lpad(CAST(p_partkey AS VARCHAR),7,'0') AS cod_cnae,
       p_type AS nome_cnae
FROM part
"""

CNPJ_MOTIVO_SQL = """
SELECT lpad(CAST(r_regionkey AS VARCHAR),2,'0') AS doc_id,
       lpad(CAST(r_regionkey AS VARCHAR),2,'0') AS cod_motivo,
       r_name AS nome_motivo
FROM region
"""

CNPJ_NATUREZA_SQL = """
SELECT lpad(CAST(r_regionkey AS VARCHAR),4,'0') AS doc_id,
       lpad(CAST(r_regionkey AS VARCHAR),4,'0') AS cod_natureza,
       'NATUREZA ' || r_name AS nome_natureza
FROM region
"""

CNPJ_QUALIFICACAO_SQL = """
SELECT lpad(CAST(r_regionkey AS VARCHAR),2,'0') AS doc_id,
       lpad(CAST(r_regionkey AS VARCHAR),2,'0') AS cod_qualificacao,
       'QUALIF ' || r_name AS nome_qualificacao
FROM region
"""

CNPJ_MUNICIPIO_SQL = """
SELECT lpad(CAST(n_nationkey AS VARCHAR),4,'0') AS doc_id,
       lpad(CAST(n_nationkey AS VARCHAR),4,'0') AS cod_municipio,
       'CIDADE ' || n_name AS nome_municipio
FROM nation
"""


# report oracle: the reference flagship query (query_sqlite.md:11-79)
# translated to DuckDB over the same fixture CTEs the load oracles use —
# defined last because it composes every table's SQL above
CNPJ_REPORT_SQL = f"""
WITH est AS ({CNPJ_ESTABELECIMENTO_SQL}),
     emp AS ({CNPJ_EMPRESA_SQL}),
     sn AS ({CNPJ_SIMPLES_SQL}),
     soc AS ({CNPJ_SOCIO_SQL}),
     sec AS ({CNPJ_CNAE_SEC_SQL}),
     cn AS ({CNPJ_CNAE_SQL}),
     mot AS ({CNPJ_MOTIVO_SQL}),
     nat AS ({CNPJ_NATUREZA_SQL}),
     mun AS ({CNPJ_MUNICIPIO_SQL}),
     p AS ({CNPJ_PAIS_SQL}),
     sec_agg AS (
       SELECT sec.cnpj_basico || sec.cnpj_ordem || sec.cnpj_dv AS full_cnpj,
              string_agg(sec.cod_cnae || ' - ' ||
                         COALESCE(cn.nome_cnae,
                                  'CNAE SECUNDÁRIO DESCONHECIDO'),
                         ' / ' ORDER BY sec.cod_cnae) AS atividades_sec
       FROM sec LEFT JOIN cn ON sec.cod_cnae = cn.cod_cnae
       GROUP BY 1
     ),
     soc_agg AS (
       SELECT cnpj_basico,
              string_agg(UPPER(TRIM(nome_socio)), ', '
                         ORDER BY UPPER(TRIM(nome_socio))) AS socios
       FROM soc GROUP BY cnpj_basico
     )
SELECT
  est.doc_id AS "CNPJ",
  emp.razao_social AS "Razão Social",
  CASE est.matriz_filial WHEN '1' THEN 'MATRIZ' WHEN '2' THEN 'FILIAL'
       ELSE 'NÃO INFORMADO' END AS "Matriz / Filial",
  est.nome_fantasia AS "Nome Fantasia",
  CASE WHEN CAST(est.data_inicio_atividade AS DATE) > DATE '0001-01-01'
       THEN strftime(CAST(est.data_inicio_atividade AS DATE), '%d/%m/%Y')
       ELSE '' END AS "Data de Abertura",
  CASE est.cod_situacao_cadastral
       WHEN '01' THEN '01 - NULA' WHEN '02' THEN '02 - ATIVA'
       WHEN '03' THEN '03 - SUSPENSA' WHEN '04' THEN '04 - INAPTA'
       WHEN '08' THEN '08 - BAIXADA'
       ELSE 'DESCONHECIDA' END AS "Situação Cadastral",
  CASE WHEN CAST(est.data_situacao_cadastral AS DATE) > DATE '0001-01-01'
       THEN strftime(CAST(est.data_situacao_cadastral AS DATE), '%d/%m/%Y')
       ELSE '' END AS "Data da Situação Cadastral",
  est.cod_motivo_situacao_cadastral || ' - ' ||
    COALESCE(mot.nome_motivo, 'MOTIVO DESCONHECIDO')
    AS "Motivo da Situação Cadastral",
  emp.cod_natureza_juridica || ' - ' ||
    COALESCE(nat.nome_natureza, 'NATUREZA DESCONHECIDA')
    AS "Natureza Jurídica",
  CASE emp.cod_porte WHEN '00' THEN 'NÃO INFORMADO'
       WHEN '01' THEN '01 - MICROEMPRESA' WHEN '03' THEN '03 - PEQUENO PORTE'
       WHEN '05' THEN '05 - DEMAIS'
       ELSE '00 - NÃO INFORMADO' END AS "Porte",
  emp.capital_social AS "Capital Social",
  est.cod_cnae_principal || ' - ' ||
    COALESCE(cn.nome_cnae, 'CNAE DESCONHECIDO') AS "Atividade Principal",
  COALESCE(sec_agg.atividades_sec, '') AS "Atividade(s) Secundária(s)",
  CASE COALESCE(sn.opcao_simples, '') WHEN 'S' THEN 'SIM' ELSE 'NÃO' END
    AS "Optante Simples",
  CASE WHEN CAST(sn.data_opcao_simples AS DATE) > DATE '0001-01-01'
       THEN strftime(CAST(sn.data_opcao_simples AS DATE), '%d/%m/%Y')
       ELSE '' END AS "Data Opção Simples",
  CASE WHEN CAST(sn.data_exclusao_simples AS DATE) > DATE '0001-01-01'
       THEN strftime(CAST(sn.data_exclusao_simples AS DATE), '%d/%m/%Y')
       ELSE '' END AS "Data Exclusão Simples",
  CASE COALESCE(sn.opcao_mei, '') WHEN 'S' THEN 'SIM' ELSE 'NÃO' END
    AS "Optante MEI",
  CASE WHEN CAST(sn.data_opcao_mei AS DATE) > DATE '0001-01-01'
       THEN strftime(CAST(sn.data_opcao_mei AS DATE), '%d/%m/%Y')
       ELSE '' END AS "Data Opção MEI",
  CASE WHEN CAST(sn.data_exclusao_mei AS DATE) > DATE '0001-01-01'
       THEN strftime(CAST(sn.data_exclusao_mei AS DATE), '%d/%m/%Y')
       ELSE '' END AS "Data Exclusão MEI",
  TRIM(
    COALESCE(TRIM(est.tipo_logradouro), '') ||
    CASE WHEN TRIM(COALESCE(est.tipo_logradouro, '')) <> ''
              AND TRIM(COALESCE(est.logradouro, '')) <> ''
         THEN ' ' ELSE '' END ||
    COALESCE(TRIM(est.logradouro), '') ||
    CASE WHEN TRIM(COALESCE(est.numero, '')) <> ''
              AND (TRIM(COALESCE(est.tipo_logradouro, '')) <> ''
                   OR TRIM(COALESCE(est.logradouro, '')) <> '')
         THEN ', ' ELSE '' END ||
    COALESCE(TRIM(est.numero), '') ||
    CASE WHEN TRIM(COALESCE(est.complemento, '')) <> ''
              AND (TRIM(COALESCE(est.tipo_logradouro, '')) <> ''
                   OR TRIM(COALESCE(est.logradouro, '')) <> ''
                   OR TRIM(COALESCE(est.numero, '')) <> '')
         THEN ', ' ELSE '' END ||
    COALESCE(TRIM(est.complemento), '')
  ) AS "Endereço",
  est.bairro AS "Bairro",
  COALESCE(mun.nome_municipio, 'MUNICÍPIO DESCONHECIDO') AS "Município",
  est.uf AS "Estado (UF)",
  CASE WHEN est.uf <> 'EX' THEN 'BRASIL'
       ELSE UPPER(COALESCE(p.nome_pais, 'PAÍS DESCONHECIDO')) END AS "País",
  est.cep AS "CEP",
  CASE WHEN NULLIF(TRIM(est.telefone_1), '') IS NOT NULL
       THEN COALESCE('(' || NULLIF(TRIM(est.ddd_telefone_1), '') || ') ', '')
            || TRIM(est.telefone_1) END AS "Telefone 1",
  CASE WHEN NULLIF(TRIM(est.ddd_telefone_2), '') IS NOT NULL
       THEN COALESCE('(' || NULLIF(TRIM(est.ddd_telefone_2), '') || ') ', '')
            || TRIM(est.telefone_2) END AS "Telefone 2",
  est.email AS "E-mail",
  soc_agg.socios AS "Sócio(s)"
FROM est
JOIN emp ON est.cnpj_basico = emp.cnpj_basico
LEFT JOIN sn ON emp.cnpj_basico = sn.cnpj_basico
LEFT JOIN mun ON est.cod_municipio = mun.cod_municipio
LEFT JOIN mot ON est.cod_motivo_situacao_cadastral = mot.cod_motivo
LEFT JOIN nat ON emp.cod_natureza_juridica = nat.cod_natureza
LEFT JOIN cn ON est.cod_cnae_principal = cn.cod_cnae
LEFT JOIN p ON est.cod_pais = p.cod_pais
LEFT JOIN sec_agg ON est.doc_id = sec_agg.full_cnpj
LEFT JOIN soc_agg ON est.cnpj_basico = soc_agg.cnpj_basico
WHERE est.uf IN ({", ".join(repr(u) for u in _REPORT_UFS)})
  AND est.cod_situacao_cadastral IN (
      {", ".join(repr(s) for s in _REPORT_SITUACAO)})
  AND est.data_inicio_atividade >= '{_REPORT_DATE_FROM}'
  AND est.data_inicio_atividade <= '{_REPORT_DATE_TO}'
ORDER BY "Razão Social" ASC, "CNPJ" ASC
LIMIT {_REPORT_LIMIT}
"""
