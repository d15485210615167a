"""The package exports exactly what the README documents."""

from __future__ import annotations

import ast
import functools
import importlib
import importlib.util
import inspect
import math
import re
import subprocess
import symtable
import sys
from pathlib import Path

import macgain
from macgain.core import massive_parametric

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


def test_verify_import_solves_nothing():
    # verify builds its fixed suite inputs at import: grids and columns
    # only, no root.  A profiler counts every Python call made by name.
    code = "\n".join([
        "import sys",
        "watched = {'_root_many', '_fixed_point_many', 'eval_point'}",
        "calls = []",
        "def profile(frame, event, arg):",
        "    if event == 'call' and frame.f_code.co_name in watched:",
        "        calls.append(frame.f_code.co_name)",
        "sys.setprofile(profile)",
        "import macgain.verify",
        "sys.setprofile(None)",
        "assert macgain.verify._FIXED[5].size == 2130",
        "print(calls, file=sys.stderr)",
    ])
    result = subprocess.run([sys.executable, "-c", code], timeout=60,
                            capture_output=True, text=True)
    assert (result.returncode, result.stderr) == (0, "[]\n")


def test_cli_import_leaves_record_and_output_machinery_unloaded():
    # Records are named tuples, json loads only for the solve, peak and
    # verify JSON payloads and the SVG renderer only for --format svg, so
    # importing the CLI and running text, CSV and curve or figure JSON
    # commands load none of these.
    code = "\n".join([
        "import sys, macgain.cli",
        "unwanted = {'dataclasses', 'inspect', 'json', 'macgain.svgplot'}",
        "at_import = sorted(unwanted & set(sys.modules))",
        "macgain.cli.main(['solve', '--users', '2', '--power-db', '0'])",
        "macgain.cli.main(['peak', '--massive'])",
        "macgain.cli.main(['curve', '--users', '3', '--step-db', '1'])",
        "macgain.cli.main(['curve', '--massive', '--step-db', '1', '--format', 'json'])",
        "macgain.cli.main(['figure', '--which', 'cfactor', '--users', '3,massive',"
        " '--step-db', '5', '--format', 'json'])",
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


def test_traced_record_fields_exist():
    # Tracer._observe reads these fields of every solve's GainSolution; a
    # dropped or renamed one would only surface when the traced benchmark runs.
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text(encoding="utf-8"))
    observe = next(node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "_observe")
    solves = observe.body[0]  # its first branch, taken for solve results
    assert "solvers.eval_point" in ast.unparse(solves.test)
    fields = set()
    for node in (node for stmt in solves.body for node in ast.walk(stmt)):
        path = []
        while isinstance(node, ast.Attribute):
            path.insert(0, node.attr)
            node = node.value
        if path and isinstance(node, ast.Name) and node.id == "result":
            fields.add(".".join(path))
    assert {"config.is_massive", "iterations", "degenerate"} <= fields
    for sol in (macgain.solve_lambda_star(2, 1.0), macgain.solve_lambda_massive(1.0)):
        for field in fields:
            functools.reduce(getattr, field.split("."), sol)  # AttributeError if gone


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
    # Only the one kernel takes both as parameters, so that its tests can
    # drive float exhaustion (tol = 0) and a small step cap.
    takers = set()
    for path in (ROOT / "src" / "macgain").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                a = node.args
                params = a.posonlyargs + a.args + a.kwonlyargs + [a.vararg, a.kwarg]
                if {p.arg for p in params if p} & {"tol", "max_iter"}:
                    takers.add(f"{path.stem}.{getattr(node, 'name', '<lambda>')}")
    assert takers == {"solvers._bisect"}


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
    # neither the paper-form _balance nor f_of, verify keeps none of the
    # separate finite and massive residuals and batches, and
    # check_derivative reads lam' off _fixed_point_many's slope with no
    # logarithm of its own.  No function dlambda_dpi computes lam' apart.
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
    assert not [node for tree in trees.values() for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == "dlambda_dpi"]
    [check] = [node for node in trees["verify"].body
               if isinstance(node, ast.FunctionDef) and node.name == "check_derivative"]
    # The one call's item 1, the slope, is read.
    [call] = [node for node in ast.walk(check) if isinstance(node, ast.Call)
              and getattr(node.func, "id", None) == "_fixed_point_many"]
    assert any(isinstance(node, ast.Subscript) and node.value is call
               and isinstance(node.slice, ast.Constant) and node.slice.value == 1
               for node in ast.walk(check))
    called = {getattr(node.func, "attr", getattr(node.func, "id", None))
              for node in ast.walk(check) if isinstance(node, ast.Call)}
    assert not called & {"log1p", "log", "expm1", "exp"}
    # _fixed_point_many has no value-only form: four parameters, and every
    # call passes exactly those.
    [many] = [node for node in trees["core"].body
              if isinstance(node, ast.FunctionDef) and node.name == "_fixed_point_many"]
    assert [arg.arg for arg in many.args.args] == ["K", "pi", "lam", "work"]
    calls = [node for tree in trees.values() for node in ast.walk(tree)
             if isinstance(node, ast.Call)
             and getattr(node.func, "id", None) == "_fixed_point_many"]
    assert calls and all(len(node.args) == 4 and not node.keywords for node in calls)


def test_one_root_per_operating_point():
    # Each operating point is one root of core._fixed_point's residual.
    # _solve roots it and find_peak roots F's slope along a curve, and
    # they are _bisect's only callers; the parametric inversion roots
    # nothing of its own, it reads lam off the massive solve.
    trees = dict(_src_trees())
    callers = {
        f"{module}.{top.name}"
        for module, tree in trees.items()
        for top in tree.body
        if isinstance(top, ast.FunctionDef)
        and any(isinstance(node, ast.Name) and node.id == "_bisect"
                for node in ast.walk(top))
    }
    assert callers == {"solvers._solve", "solvers.find_peak"}
    invert = _function(trees["solvers"], "invert_massive_parametric")
    called = {ast.unparse(node.func) for node in ast.walk(invert) if isinstance(node, ast.Call)}
    assert "solve_lambda_massive" in called
    assert not any(isinstance(node, (ast.FunctionDef, ast.Lambda))
                   for node in ast.walk(invert) if node is not invert)
    for pi in (1e-3, 5.38, 1e300):
        t, lam = macgain.invert_massive_parametric(pi)
        assert t == pi * macgain.solve_lambda_massive(pi).lambda_star
        assert lam == massive_parametric(t)[1]


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


def _function(tree: ast.AST, name: str) -> ast.FunctionDef:
    return next(node for node in ast.walk(tree)
                if isinstance(node, ast.FunctionDef) and node.name == name)


def _step_calls(source: str) -> set[str]:
    """What the while loop of solvers._bisect calls, outside its raise statements."""
    loop = next(node for node in ast.walk(_function(ast.parse(source), "_bisect"))
                if isinstance(node, ast.While))
    raised = {id(node) for stmt in ast.walk(loop) if isinstance(stmt, ast.Raise)
              for node in ast.walk(stmt)}
    return {ast.unparse(node.func) for node in ast.walk(loop)
            if isinstance(node, ast.Call) and id(node) not in raised}


def _solve_step_calls(source: str) -> set[str]:
    """What the while loop of solvers._solve calls outside its accepting branch and raises."""
    loop = next(node for node in ast.walk(_function(ast.parse(source), "_solve"))
                if isinstance(node, ast.While))
    skipped = {id(node) for stmt in ast.walk(loop)
               if isinstance(stmt, ast.Raise) or isinstance(stmt, ast.If)
               and ast.unparse(stmt.test) == "-quarter < step < quarter"
               for node in ast.walk(stmt)}
    return {ast.unparse(node.func) for node in ast.walk(loop)
            if isinstance(node, ast.Call) and id(node) not in skipped}


def _guards(tree: ast.AST, function: str, callee: str) -> list[list[str]]:
    """For each call of callee in function, the tests of the if statements around it."""
    top = _function(tree, function)
    parent = {child: node for node in ast.walk(top) for child in ast.iter_child_nodes(node)}
    found = []
    for call in ast.walk(top):
        if isinstance(call, ast.Call) and ast.unparse(call.func) == callee:
            node, tests = call, []
            while node in parent:
                branch, node = node, parent[node]
                if isinstance(node, ast.If) and branch in node.body:
                    tests.append(ast.unparse(node.test))
            found.append(tests)
    return found


def test_solve_steps_call_only_fn():
    # Each of _solve's Newton steps evaluates the residual, core._fixed_point,
    # and nothing else: the floor, abs and ulp run once, on the step it
    # accepts.  An abs in the step trips the check.
    source = (ROOT / "src" / "macgain" / "solvers.py").read_text(encoding="utf-8")
    assert _solve_step_calls(source) == {"_fixed_point"}
    line = "step = res / d\n"
    assert line in source
    assert _solve_step_calls(source.replace(line, "step = res / abs(d)\n")) == {
        "_fixed_point", "abs"}


def test_solve_reads_its_seams_as_module_globals():
    # _solve builds nothing per call, and it reads the residual, the upper
    # end, the fallback kernel and the step cap from the module each time
    # it runs, so a test that patches solvers._fixed_point, _lambda_bound,
    # _bisect or MAX_ITER reaches every solve.  Binding one as a default or
    # in a closure cell trips the check.
    from macgain import solvers

    seams = {"_fixed_point", "_lambda_bound", "_bisect", "MAX_ITER"}
    source = (ROOT / "src" / "macgain" / "solvers.py").read_text(encoding="utf-8")
    assert _global_reads_of_solve(source, seams) == seams
    line = "def _solve(config: ChannelConfig) -> GainSolution:"
    assert line in source
    bound = source.replace(line, line.replace("config: ChannelConfig",
                                              "config: ChannelConfig, _fixed_point=_fixed_point"))
    assert _global_reads_of_solve(bound, seams) == seams - {"_fixed_point"}
    assert solvers._solve.__defaults__ is None and solvers._solve.__closure__ is None
    assert seams <= set(inspect.getclosurevars(solvers._solve).globals)
    # The fallback's closure over r is the one object a solve may build,
    # and it is built only where _bisect is called.
    tree = ast.parse(source)
    built = [node for node in ast.walk(_function(tree, "_solve"))
             if isinstance(node, ast.Lambda)
             or isinstance(node, ast.FunctionDef) and node.name != "_solve"
             or isinstance(node, ast.Call) and ast.unparse(node.func) == "partial"]
    assert [ast.unparse(node) for node in built] == ["lambda lam: _fixed_point(cap, pi, lam)[0]"]
    [call] = [node for node in ast.walk(_function(tree, "_solve"))
              if isinstance(node, ast.Call) and ast.unparse(node.func) == "_bisect"]
    assert call.args[0] is built[0]


def _global_reads_of_solve(source: str, names: set[str]) -> set[str]:
    """Those of names that solvers._solve reads as module globals, not parameters or cells."""
    table = symtable.symtable(source, "solvers.py", "exec")
    solve = next(child for child in table.get_children() if child.get_name() == "_solve")
    return {name for name in names if solve.lookup(name).is_global()}


def test_the_probes_run_only_where_the_floor_cannot_certify():
    # solvers._solve calls _bisect only where its steps certified no root.
    # verify._root_many has no probe pass: its three residual calls, all
    # unguarded, are its float32 passes' loop and its two float64 Newton
    # passes, and what the slope floor leaves goes to eval_point.
    trees = {name: ast.parse((ROOT / "src" / "macgain" / f"{name}.py").read_text(
        encoding="utf-8")) for name in ("solvers", "verify")}
    assert _guards(trees["solvers"], "_solve", "_bisect") == [["lam is None"]]
    assert _guards(trees["verify"], "_root_many", "_fixed_point_many") == [[], [], []]


def _residual_lookups(source: str) -> set[str]:
    """Module globals and attributes that core._fixed_point's body reads."""
    table = symtable.symtable(source, "core.py", "exec")
    residual = next(child for child in table.get_children()
                    if child.get_name() == "_fixed_point")
    names = {sym.get_name() for sym in residual.get_symbols()
             if sym.is_referenced() and sym.is_global()}
    # The defaults are evaluated once, at definition; only the body runs per call.
    body = _function(ast.parse(source), "_fixed_point").body
    return names | {ast.unparse(node) for stmt in body for node in ast.walk(stmt)
                    if isinstance(node, ast.Attribute)}


def test_bisect_step_calls_only_fn():
    # Each bisection step runs this loop; abs, max and math.copysign cost
    # more there than the arithmetic they stand for.  An abs in the width
    # test trips the check.
    source = (ROOT / "src" / "macgain" / "solvers.py").read_text(encoding="utf-8")
    assert _step_calls(source) == {"fn"}
    width = "while hi - lo > tol:"
    assert width in source
    with_abs = source.replace(width, "while abs(hi - lo) > tol:")
    assert _step_calls(with_abs) == {"fn", "abs"}


def test_residual_reads_only_its_closure():
    # The residual runs once per Newton step: it is one module function,
    # (K, pi, lam) -> (r, r'), with no factory, and it reads math's
    # functions from its defaults, never a module global or an attribute.
    # Restoring the old log1p call trips the check.
    from macgain.core import _fixed_point

    source = (ROOT / "src" / "macgain" / "core.py").read_text(encoding="utf-8")
    assert _residual_lookups(source) == set()
    assert _fixed_point.__closure__ is None
    params = list(inspect.signature(_fixed_point).parameters.values())
    assert [p.name for p in params[:3]] == ["K", "pi", "lam"]
    assert all(p.default is inspect.Parameter.empty for p in params[:3])
    assert all(p.default is not inspect.Parameter.empty for p in params[3:])
    assert [type(v) for v in _fixed_point(10.0, 1.0, 2.0)] == [float, float]
    line = "L = log1p(t)"
    assert line in source
    assert _residual_lookups(source.replace(line, "L = math.log1p(t)")) == {"math", "math.log1p"}


def _unit_reads(source: str) -> list[str | None]:
    """For each r(1) in solvers._solve, the test of the nearest if whose body holds it."""
    solve = _function(ast.parse(source), "_solve")
    parent = {child: node for node in ast.walk(solve) for child in ast.iter_child_nodes(node)}
    guards = []
    for call in ast.walk(solve):
        if isinstance(call, ast.Call) and ast.unparse(call) == "_fixed_point(cap, pi, 1.0)":
            node, guard = call, None
            while guard is None and node in parent:
                branch, node = node, parent[node]
                if isinstance(node, ast.If) and branch in node.body:
                    guard = ast.unparse(node.test)
            guards.append(guard)
    return guards


def test_solve_reads_r_at_1_only_where_no_proof_holds():
    # The slope floor and the probe certify a Newton root without r(1), so
    # _solve evaluates it once, only where they settle nothing.  Reading it
    # up front, with the upper end, as the solve once did, trips the check.
    from macgain.core import _lambda_bound

    source = (ROOT / "src" / "macgain" / "solvers.py").read_text(encoding="utf-8")
    assert _unit_reads(source) == ["lam is None"]
    read = "    if lam is None:\n        f_lo = _fixed_point(cap, pi, 1.0)[0]\n"
    assert read in source
    up_front = source.replace(read, "    f_lo = _fixed_point(cap, pi, 1.0)[0]\n    if lam is None:\n")
    assert _unit_reads(up_front) == [None]
    # verify's batch starts from 2 + 2a and takes nothing from the bound,
    # which has lost its array path: its one default is math.log1p.
    verify = ast.parse((ROOT / "src" / "macgain" / "verify.py").read_text(encoding="utf-8"))
    imported = {alias.name for node in ast.walk(verify) if isinstance(node, ast.ImportFrom)
                for alias in node.names}
    assert "_lambda_bound" not in imported and "_fixed_point_many" in imported
    assert list(inspect.signature(_lambda_bound).parameters) == ["pi", "a", "log1p"]
    assert _lambda_bound.__defaults__ == (math.log1p,)
