"""Source guards over ``rfb_cnpj_etl_ray/``, written against the standard
library's ``ast`` so they need no linter.

* A function-local import whose name the function never uses is dead
  code (a line marked ``# noqa`` is exempt: an import made only to
  probe that a module is installed).
* No module imports ``ray.data.aggregate``: every aggregate folds
  through ``stages.exchange.fold_parquet`` or ``tree_fold``
  (low-cardinality keys) or ``stages.exchange.aggregate_by``
  (high-cardinality keys).
* No class is a Ray actor (decorated with ``ray.remote``): the engine
  runs on plain tasks only.
* ``functions/text.py`` calls no ``map_groups``: a top-k over a
  vocabulary is ``fold_parquet``'s keyed fold on plain tasks, not a
  Ray Data groupby.
* ``stages/merge.py`` calls no ``read_table``: the partition readers
  open each file with ``pq.ParquetFile``, because ``pq.read_table``'s
  dataset layer costs about 0.6 ms per small file for the same table.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

PKG = Path(__file__).resolve().parent.parent / "rfb_cnpj_etl_ray"
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _modules():
    for path in sorted(PKG.rglob("*.py")):
        text = path.read_text()
        yield (path.relative_to(PKG.parent), text.splitlines(),
               ast.parse(text, str(path)))


def _local_imports(fn):
    """The imports whose nearest enclosing function is ``fn``."""
    todo = list(fn.body)
    while todo:
        node = todo.pop()
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield node
        elif not isinstance(node, FUNCS + (ast.Lambda, ast.ClassDef)):
            todo.extend(ast.iter_child_nodes(node))


def _used_names(fn) -> set[str]:
    """Every name ``fn`` (nested functions included) reads, plus the
    words of its string annotations."""
    used = set()
    for node in ast.walk(fn):
        if isinstance(node, ast.Name):
            used.add(node.id)
        for ann in (getattr(node, "annotation", None),
                    getattr(node, "returns", None)):
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used.update(re.findall(r"\w+", ann.value))
    return used


def _bound(alias: ast.alias) -> str:
    return alias.asname or alias.name.split(".")[0]


def test_no_unused_function_local_imports():
    found = []
    for rel, lines, tree in _modules():
        for fn in (n for n in ast.walk(tree) if isinstance(n, FUNCS)):
            used = _used_names(fn)
            for imp in _local_imports(fn):
                span = lines[imp.lineno - 1:imp.end_lineno]
                if any("# noqa" in line for line in span):
                    continue
                found += [f"{rel}:{imp.lineno} {_bound(a)} in {fn.name}"
                          for a in imp.names
                          if a.name != "*" and _bound(a) not in used]
    assert found == [], "unused function-local imports:\n" + "\n".join(found)


def test_no_module_imports_ray_data_aggregate():
    found = []
    for rel, _, tree in _modules():
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [f"{node.module}.{a.name}" for a in node.names]
            else:
                continue
            if any(n == "ray.data.aggregate"
                   or n.startswith("ray.data.aggregate.") for n in names):
                found.append(f"{rel}:{node.lineno}")
    assert found == [], "imports of ray.data.aggregate:\n" + "\n".join(found)


def test_no_actor_classes():
    found = []
    for rel, _, tree in _modules():
        for cls in (n for n in ast.walk(tree) if isinstance(n, ast.ClassDef)):
            for dec in cls.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                if ast.unparse(target) in ("ray.remote", "remote"):
                    found.append(f"{rel}:{cls.lineno} {cls.name}")
    assert found == [], "ray.remote actor classes:\n" + "\n".join(found)


def test_partition_files_read_via_parquetfile():
    path = PKG / "stages" / "merge.py"
    tree = ast.parse(path.read_text(), str(path))
    found = [f"stages/merge.py:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and (getattr(node.func, "attr", None) == "read_table"
                  or getattr(node.func, "id", None) == "read_table")]
    assert found == [], "read_table calls:\n" + "\n".join(found)


def test_text_ops_call_no_map_groups():
    path = PKG / "functions" / "text.py"
    tree = ast.parse(path.read_text(), str(path))
    found = [f"functions/text.py:{node.lineno}" for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "attr", None) == "map_groups"]
    assert found == [], "map_groups calls:\n" + "\n".join(found)
