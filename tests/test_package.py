"""The package's public surface: its exports and the README's library example."""

from __future__ import annotations

import importlib
import pkgutil
import re
from pathlib import Path

import pytest

import tempobf
from tempobf import gen_random_graph

README = Path(__file__).resolve().parent.parent / "README.md"

MODULES = [tempobf] + [importlib.import_module(f"tempobf.{m.name}") for m in pkgutil.iter_modules(tempobf.__path__)]
EXPORTING = [m for m in MODULES if hasattr(m, "__all__")]


@pytest.mark.parametrize("module", EXPORTING, ids=[m.__name__ for m in EXPORTING])
def test_every_exported_name_resolves(module):
    assert module.__all__
    missing = [name for name in module.__all__ if not hasattr(module, name)]
    assert missing == []


def test_star_import_binds_every_exported_name():
    ns: dict = {}
    exec("from tempobf import *", ns)
    assert set(tempobf.__all__) <= ns.keys()


def library_example() -> str:
    """The python block under README's `## Library` heading."""
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1].split("\n## ", 1)[0]
    block = re.search(r"^```python\n(.*?)^```$", section, re.S | re.M)
    assert block is not None, "README's Library section holds no python block"
    return block.group(1)


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    # a few hundred edges: small enough that no engine forks, dense enough in time that delta 3600 finds butterflies
    triples = gen_random_graph(12, 12, 300, 40000, skew=True, seed=7)
    (tmp_path / "edges.txt").write_text("".join(f"{u} {v} {t}\n" for u, v, t in triples))
    monkeypatch.chdir(tmp_path)
    ns: dict = {}
    exec(compile(library_example(), str(README), "exec"), ns)
    assert ns["counts"].total() > 0
    assert capsys.readouterr().out
