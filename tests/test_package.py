"""The package's public export list and its module boundaries."""

import ast
import pathlib

import rotorgrating


def test_every_export_resolves_once():
    names = rotorgrating.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(rotorgrating, n)] == []
    namespace = {}
    exec("from rotorgrating import *", namespace)
    assert set(names) <= set(namespace)


def test_only_dynamics_reads_a_channel_sets_layout():
    # a propagated set reduces its own layouts (ChannelSet.series_terms): no
    # other module reads the attributes that expose them
    layout = {"chains", "lattice", "blocks", "kind"}
    readers = {}
    for path in sorted(pathlib.Path(rotorgrating.__file__).parent.glob("*.py")):
        if path.name == "dynamics.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr in layout]
        if lines:
            readers[path.name] = lines
    assert readers == {}
