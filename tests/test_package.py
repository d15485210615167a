"""The package exports exactly what the README documents."""

from __future__ import annotations

import ast
import importlib
import importlib.util
import re
import subprocess
import symtable
import sys
from pathlib import Path

import macgain

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")


def test_public_surface_is_documented():
    undocumented = [n for n in macgain.__all__ if not re.search(rf"\b{n}\b", README)]
    assert undocumented == []
    for name in macgain.__all__:
        getattr(macgain, name)


def test_cli_import_leaves_numpy_unloaded():
    # Only `verify` needs numpy; every other command must start without it.
    code = "import sys, macgain.cli; sys.exit('numpy' in sys.modules)"
    result = subprocess.run([sys.executable, "-c", code], timeout=60)
    assert result.returncode == 0


def test_cli_import_leaves_record_and_output_machinery_unloaded():
    # Records are named tuples, json loads only for --format json and the
    # SVG renderer only for --format svg, so importing the CLI and running
    # text and CSV commands load none of these.
    code = "\n".join([
        "import sys, macgain.cli",
        "unwanted = {'dataclasses', 'inspect', 'json', 'macgain.svgplot'}",
        "at_import = sorted(unwanted & set(sys.modules))",
        "macgain.cli.main(['solve', '--users', '2', '--power-db', '0'])",
        "macgain.cli.main(['peak', '--massive'])",
        "macgain.cli.main(['curve', '--users', '3', '--step-db', '1'])",
        "print(at_import, sorted(unwanted & set(sys.modules)), file=sys.stderr)",
    ])
    result = subprocess.run([sys.executable, "-c", code], timeout=60,
                            capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, "[] []\n")


def test_traced_names_resolve():
    # The benchmark's tracer looks these functions up by name; a dropped or
    # renamed one would only surface when the benchmark runs.
    path = ROOT / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_perfbench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = tracing.COUNTED + tracing.SPANNED
    assert names
    for name in names:
        module_name, _, attr = name.partition(".")
        module = importlib.import_module(f"macgain.{module_name}")
        assert callable(getattr(module, attr, None)), name


def _global_reads(table: symtable.SymbolTable, top: str | None = None):
    """(top, name) for every name a scope reads from its module or an import.

    top is the top-level definition the scope sits in, None at module level.
    Python's own scoping decides: a parameter, a local variable or a class
    attribute is not a module read, whatever it is called.
    """
    for sym in table.get_symbols():
        if sym.is_referenced() and (top is None or sym.is_global() or sym.is_imported()):
            yield top, sym.get_name()
    for child in table.get_children():
        yield from _global_reads(child, top or child.get_name())


def _names_used_in_src() -> set[tuple[str, str]]:
    """(module, name) for every read in src/ that resolves to that module.

    A bare name bound by `from .core import name` is a use of core.name;
    any other module-level name is a use of the reading module's own
    definition, unless it is read inside that definition.  `module.name`
    counts when `module` is bound by `from . import module`.  Imports and
    comments do not count, nor do attributes of other objects, such as the
    fields of a returned record.
    """
    used = set()
    for path in (ROOT / "src" / "macgain").glob("*.py"):
        source = path.read_text(encoding="utf-8")
        nodes = list(ast.walk(ast.parse(source)))
        origin, modules = {}, {}
        for node in nodes:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    local = alias.asname or alias.name
                    if node.module:
                        origin[local] = (node.module, alias.name)
                    else:
                        modules[local] = alias.name
        for node in nodes:
            if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                    and isinstance(node.value, ast.Name) and node.value.id in modules):
                used.add((modules[node.value.id], node.attr))
        for top, name in _global_reads(symtable.symtable(source, str(path), "exec")):
            if name in origin:
                used.add(origin[name])
            elif name != top:
                used.add((path.stem, name))
    return used


def test_exported_names_are_used_or_documented():
    # Code that no src/ path calls is deleted, not kept for its own tests;
    # a name the README documents is public API and may stand alone.
    used = _names_used_in_src()
    for module_name in ("core", "solvers", "verify"):
        module = importlib.import_module(f"macgain.{module_name}")
        orphans = [
            name for name in module.__all__
            if (module_name, name) not in used and not re.search(rf"\b{name}\b", README)
        ]
        assert orphans == [], module_name


def test_only_the_root_kernels_take_a_tolerance():
    # Every root is bracketed to solvers.LAMBDA_TOL within MAX_ITER steps.
    # Only the two kernels take both as parameters, so that their tests can
    # drive float exhaustion (tol = 0) and a small step cap.
    takers = set()
    for path in (ROOT / "src" / "macgain").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                if {p.arg for p in params if p} & {"tol", "max_iter"}:
                    takers.add(f"{path.stem}.{getattr(node, 'name', '<lambda>')}")
    assert takers == {"solvers._bisect", "verify._bisect_many"}


def test_verify_imports_no_private_solver_route():
    # verify solves and builds its grids through the public solvers.
    source = (ROOT / "src" / "macgain" / "verify.py").read_text(encoding="utf-8")
    private = {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "solvers"
        for alias in node.names if alias.name.startswith("_")
    }
    assert private == set()


def _src_trees():
    for path in sorted((ROOT / "src" / "macgain").glob("*.py")):
        yield path.stem, ast.parse(path.read_text(encoding="utf-8"))


def test_one_balance_residual():
    # Every solve roots one residual, the fixed point lam = G_K(pi*lam) of
    # the balance equation in core._fixed_point, with its numpy twin beside
    # it: phi(L/K)'s expm1 is called in core alone, the scalar solver reads
    # neither the paper-form _balance nor f_of, and verify keeps none of
    # the separate finite and massive residuals and batches.
    sites = {
        module
        for module, tree in _src_trees()
        for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and getattr(node.func, "attr", getattr(node.func, "id", None)) == "expm1"
    }
    assert sites == {"core"}
    trees = dict(_src_trees())
    from_core = {alias.name for node in ast.walk(trees["solvers"])
                 if isinstance(node, ast.ImportFrom) and node.module == "core"
                 for alias in node.names}
    assert "_fixed_point" in from_core and not from_core & {"_balance", "f_of"}
    defined = {node.name for node in ast.walk(trees["verify"])
               if isinstance(node, ast.FunctionDef)}
    assert not defined & {"_solve_finite_many", "_solve_massive_many", "_f_of_many",
                          "_raw_residual_many"}


def test_one_slack_scorer():
    # Every verify check scores its slacks through verify._report: no
    # tracker with add paths is defined, and no other top-level function
    # (or module code) builds a BoundReport, directly or through _make.
    tree = ast.parse((ROOT / "src" / "macgain" / "verify.py").read_text(encoding="utf-8"))
    defined = {node.name for node in ast.walk(tree)
               if isinstance(node, (ast.FunctionDef, ast.ClassDef))}
    assert defined & {"_Tracker", "add", "add_table"} == set()
    builders = {
        getattr(top, "name", "<module>")
        for top in tree.body
        for node in ast.walk(top)
        if isinstance(node, ast.Call) and "BoundReport" in (
            getattr(node.func, "id", None),
            getattr(getattr(node.func, "value", None), "id", None),
        )
    }
    assert builders == {"_report"}


def test_no_restated_configs_or_defaults():
    # ChannelConfig(users, total_power=pi) serves both finite and massive
    # curves, and the default curve set lives in solvers alone.
    definers: dict[str, set[str]] = {}
    for module, tree in _src_trees():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                definers.setdefault(node.name, set()).add(module)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                definers.setdefault(node.id, set()).add(module)
    assert "_config_for" not in definers
    assert "_DEFAULT_FIGURE_USERS" not in definers
    assert definers["DEFAULT_USERS"] == {"solvers"}
