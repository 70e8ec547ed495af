"""The package's public export list, its module boundaries and what importing it loads."""

import ast
import json
import os
import pathlib
import subprocess
import sys

import numpy as np

import rotorgrating


def test_every_export_resolves_once():
    names = rotorgrating.__all__
    assert len(names) == len(set(names))
    assert [n for n in names if not hasattr(rotorgrating, n)] == []
    namespace = {}
    exec("from rotorgrating import *", namespace)
    assert set(names) <= set(namespace)


def test_only_dynamics_reads_a_channel_sets_layout():
    # a propagated set reduces its own layout (ChannelSet.series_terms): no
    # other module reads the attributes that expose it or imports its builders
    layout = {"layout", "blocks", "kind"}
    builders = {"BlockLayout", "_chain_layout", "_group_channels"}
    readers = {}
    for path in sorted(pathlib.Path(rotorgrating.__file__).parent.glob("*.py")):
        if path.name == "dynamics.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        lines = [node.lineno for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute) and node.attr in layout | builders
                 or isinstance(node, ast.ImportFrom) and builders & {alias.name for alias in node.names}]
        if lines:
            readers[path.name] = lines
    assert readers == {}


def test_only_channels_reads_the_blocks_view():
    # every reduction of a propagated set reads its packed amplitudes and
    # weights: the ChannelBlock view serves ChannelSet.channels alone
    readers = {(path.name, scope) for path in sorted(pathlib.Path(rotorgrating.__file__).parent.glob("*.py"))
               for scope, node in _scoped_nodes(ast.parse(path.read_text(encoding="utf-8")))
               if isinstance(node, ast.Attribute) and node.attr == "blocks"}
    assert readers == {("dynamics.py", ("channels",))}


def test_one_loop_reads_the_basis_edge():
    # every basis grows in dynamics._with_regrow alone: no other function of
    # the package reads a propagated set's edge population to size a basis
    callers = set()
    for path in sorted(pathlib.Path(rotorgrating.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for function in ast.walk(tree):
            if isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                # the calls in this function's own body, not in the functions it defines
                inner = {id(n) for sub in ast.walk(function) if sub is not function
                         and isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda))
                         for n in ast.walk(sub)}
                if any(isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                       and node.func.attr == "edge_leak" and id(node) not in inner
                       for node in ast.walk(function)):
                    callers.add((path.name, getattr(function, "name", "<lambda>")))
    assert callers == {("dynamics.py", "_with_regrow")}


def _scoped_nodes(tree):
    """(names of the functions around it, outermost first, node) of every node in a module."""
    stack = [((), tree)]
    while stack:
        scope, node = stack.pop()
        for child in ast.iter_child_nodes(node):
            inner = scope + (child.name,) if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else scope
            yield inner, child
            stack.append((inner, child))


def test_one_loop_makes_every_propagated_set():
    # dynamics._with_regrow alone builds a ChannelSet or starts a set on its
    # origins; a driver hands it a layout, a kick and budgets, and builds its
    # RKN schedule inside its kick, not in a closure of its own; no caller
    # sets a regrow count of its own
    makers, schedules, regrow_counts = set(), set(), []
    for path in sorted(pathlib.Path(rotorgrating.__file__).parent.glob("*.py")):
        for scope, node in _scoped_nodes(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Call):
                name = node.func.id if isinstance(node.func, ast.Name) else getattr(node.func, "attr", None)
                if name in ("ChannelSet", "unkicked"):
                    makers.add((path.name, scope, name))
                elif name == "_rkn_schedule":
                    schedules.add((path.name, scope))
            elif isinstance(node, (ast.arg, ast.keyword)) and node.arg == "max_regrow":
                regrow_counts.append((path.name, scope))
    assert makers == {("dynamics.py", ("_with_regrow",), "ChannelSet"),
                      ("dynamics.py", ("_with_regrow",), "unkicked")}
    assert schedules == {("dynamics.py", ("_chain_propagation", "kick")),
                         ("dynamics.py", ("elliptic_tdse_ensemble", "kick"))}
    assert regrow_counts == []


# module-level names no module of the package reads and __all__ does not
# export, each with the benchmark file that reads it: the benchmark pins
# them, so they go when it changes
BENCHMARK_ONLY = {
    "dynamics.clear_caches": "perfbench/workloads.py",
    "grating.intensity_grating_signal": "perfbench/layers.py",
    "grating.polarization_grating_signal": "perfbench/layers.py",
    "rotor._wigner_3j": "perfbench/workloads.py",
}
# names a module serves from its __getattr__ for the benchmark alone, bound
# by no statement, each with the benchmark file that reads it
BENCHMARK_ONLY_LAZY = {
    "dynamics.solve_ivp": "perfbench/layers.py",
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
    for qualified, reader in (BENCHMARK_ONLY | BENCHMARK_ONLY_LAZY).items():
        assert qualified.split(".")[1] in (root / reader).read_text(encoding="utf-8"), qualified
    for qualified in BENCHMARK_ONLY_LAZY:
        module, name = qualified.split(".")
        assert name not in set(_bound_names(trees[module])), qualified
        assert callable(getattr(getattr(rotorgrating, module), name)), qualified


IMPORT_BOUNDARY = """
import json, sys
import rotorgrating, rotorgrating.cli

def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))

out, runs = sys.argv[1], json.loads(sys.argv[2])
doc = {"on_import": scipy_loaded(), "runs": {}}
for subcommand, config in runs.items():
    argv = [subcommand, "--out", f"{out}/{subcommand}"]
    if config is not None:
        with open(f"{out}/{subcommand}.json", "w") as fh:
            json.dump(config, fh)
        argv += ["--config", f"{out}/{subcommand}.json"]
    doc["runs"][subcommand] = [rotorgrating.cli.main(argv), scipy_loaded()]
doc["solve_ivp"] = callable(rotorgrating.dynamics.solve_ivp)
doc["unknown"] = []
for module in (rotorgrating, rotorgrating.dynamics):
    try:
        module.no_such_name
    except AttributeError as exc:
        doc["unknown"].append(str(exc))
print(json.dumps(doc))
"""

# a run of each subcommand: TDSE with a probe, an elliptic TDSE, the
# geometry, every validation suite (no config) and a fit of scan.csv
RUNS = {
    "simulate": {"molecule": "CO2", "temperature_K": 30.0, "scheme": "parallel",
                 "single_pump_intensity_tw_cm2": 5.0, "method": "tdse", "probe_tau_fwhm_ps": 0.2,
                 "time_grid": {"n": 64}},
    "fourier": {"molecule": "CO2", "temperature_K": 10.0, "intensity_tw_cm2": 1.0, "method": "tdse",
                "polarization": [0.8, 0.6], "time_grid": {"n": 64}},
    "geometry": {"scheme": "perpendicular", "single_pump_intensity_tw_cm2": 3.0},
    "validate": None,
    "fit": {"molecule": "CO2", "scheme": "perpendicular", "trace_path": "scan.csv",
            "bounds": {"intensity": [5.0, 30.0]}, "fixed": {"temperature": 60.0},
            "cache_quantum": 1e-3, "refine_starts": 1, "n_intensity_starts": 2},
}


def test_importing_the_package_and_cli_leaves_the_fit_stack_unloaded(tmp_path):
    # a fresh interpreter, as every CLI run has: this process has long since
    # imported scipy.  No scipy module loads with the package and the CLI or
    # in any run, the fit included
    delays = np.arange(0.5, 20.0, 0.05)
    problem = rotorgrating.FitProblem(rotorgrating.CO2, "perpendicular", bounds={"intensity": (5.0, 30.0)},
                                      fixed={"temperature": 60.0}, cache_quantum=1e-3)
    trace = rotorgrating.synthesize_trace(problem, {"intensity": 18.0, "temperature": 60.0}, delays)
    (tmp_path / "scan.csv").write_text("delay_ps,signal_au\n" + "".join(
        f"{t:.17g},{v:.17g}\n" for t, v in zip(trace.delays, trace.signal)))
    root = pathlib.Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    proc = subprocess.run([sys.executable, "-c", IMPORT_BOUNDARY, str(tmp_path), json.dumps(RUNS)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(proc.stdout.splitlines()[-1])
    assert doc["on_import"] == []
    assert doc["runs"] == {subcommand: [0, []] for subcommand in RUNS}
    assert doc["solve_ivp"]
    assert doc["unknown"] == ["module 'rotorgrating' has no attribute 'no_such_name'",
                              "module 'rotorgrating.dynamics' has no attribute 'no_such_name'"]


def _scipy_imports(tree):
    """(top-level definition around it or None, module) of each scipy import in a module."""
    for node in tree.body:
        scope = node.name if isinstance(node, (ast.FunctionDef, ast.ClassDef)) else None
        for sub in ast.walk(node):
            if isinstance(sub, ast.Import):
                names = [alias.name for alias in sub.names]
            elif isinstance(sub, ast.ImportFrom) and not sub.level:
                names = [sub.module]
            else:
                continue
            yield from ((scope, name) for name in names if name.split(".")[0] == "scipy")


def test_only_the_fit_imports_scipy():
    # no module imports scipy, the fit's retrieval included, but for the
    # solve_ivp that dynamics serves the benchmark from its __getattr__
    package = pathlib.Path(rotorgrating.__file__).parent
    found = {(path.stem, *pair) for path in sorted(package.glob("*.py"))
             for pair in _scipy_imports(ast.parse(path.read_text(encoding="utf-8")))}
    assert found == {("dynamics", "__getattr__", "scipy.integrate")}
