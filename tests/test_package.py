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


# module-level names no module of the package reads and __all__ does not
# export, each with the benchmark file that reads it: the benchmark pins
# them, so they go when it changes
BENCHMARK_ONLY = {
    "dynamics.clear_caches": "perfbench/workloads.py",
    "dynamics.solve_ivp": "perfbench/layers.py",
    "grating.intensity_grating_signal": "perfbench/layers.py",
    "grating.polarization_grating_signal": "perfbench/layers.py",
    "rotor._wigner_3j": "perfbench/workloads.py",
}


def _bound_names(tree):
    """Names a module binds at its top level: definitions, assignments and imports."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            yield node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            for target in node.targets if isinstance(node, ast.Assign) else [node.target]:
                yield from (n.id for n in ast.walk(target) if isinstance(n, ast.Name))
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            yield from ((alias.asname or alias.name).split(".")[0] for alias in node.names)


def _reads(tree, module):
    """(module, name) of what a module reads: its loaded names, the names it
    imports from the package, and (None, attribute) for any attribute."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            yield module, node.id
        elif isinstance(node, ast.Attribute):
            yield None, node.attr
        elif isinstance(node, ast.ImportFrom) and node.level:
            yield from ((node.module or "__init__", alias.name) for alias in node.names)


def test_every_module_level_name_has_a_reader():
    package = pathlib.Path(rotorgrating.__file__).parent
    trees = {path.stem: ast.parse(path.read_text(encoding="utf-8")) for path in sorted(package.glob("*.py"))}
    reads = {pair for module, tree in trees.items() for pair in _reads(tree, module)}
    unread = {
        f"{module}.{name}"
        for module, tree in trees.items() for name in _bound_names(tree)
        if not (name.startswith("__") or name in rotorgrating.__all__
                or (module, name) in reads or (None, name) in reads)
    }
    assert unread == set(BENCHMARK_ONLY)
    root = pathlib.Path(__file__).resolve().parents[1]
    for qualified, reader in BENCHMARK_ONLY.items():
        assert qualified.split(".")[1] in (root / reader).read_text(encoding="utf-8"), qualified
