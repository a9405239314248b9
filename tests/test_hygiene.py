"""Static checks on the package source, using only the standard library.

No linter is a dependency, so the stale imports and ``__all__`` entries that
removals tend to leave behind are caught here, and so are names the
benchmark harness in ``bench/`` or the README's examples reach that no
longer exist (those files are only read) and command-line options that no
subcommand reads.
"""

import ast
import importlib
import inspect
import json
import re
from pathlib import Path

import pytest

from spinbattery.cli import _COMMANDS

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "spinbattery"
MODULES = sorted(path.stem for path in PACKAGE.glob("*.py"))
BENCH = ROOT / "bench"


def _tree(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text())


def _imported_names(tree):
    """Names bound at module level by import statements (``__future__`` aside)."""
    names = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            names += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names += [alias.asname or alias.name for alias in node.names]
    return names


def test_all_eight_modules_are_checked():
    assert MODULES == ["__init__", "cli", "ed", "ising", "quench", "regimes", "sums", "xy"]


@pytest.mark.parametrize("module", [m for m in MODULES if m != "__init__"])
def test_no_unused_imports(module):
    # the package __init__ imports only to re-export, so it is left out
    tree = _tree(module)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [name for name in _imported_names(tree) if name not in used]
    assert unused == []


@pytest.mark.parametrize("module", MODULES)
def test_all_entries_resolve(module):
    mod = importlib.import_module("spinbattery" if module == "__init__" else f"spinbattery.{module}")
    missing = [name for name in getattr(mod, "__all__", ()) if not hasattr(mod, name)]
    assert missing == []


def test_package_all_is_the_modules_all():
    # each module's __all__ is its one list of public names; the package republishes them
    import spinbattery
    from spinbattery import RecurrenceWindowWarning, check_oracle_size, ising_resolution_bound

    names = ("ed", "ising", "quench", "regimes", "xy")
    modules = [importlib.import_module(f"spinbattery.{name}") for name in names]
    assert spinbattery.__all__ == [name for mod in modules for name in mod.__all__]
    assert RecurrenceWindowWarning is spinbattery.regimes.RecurrenceWindowWarning
    assert check_oracle_size is spinbattery.ed.check_oracle_size
    assert ising_resolution_bound is spinbattery.ising.ising_resolution_bound


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    target = "spinbattery" if module == "__init__" else f"spinbattery.{module}"
    namespace = {}
    exec(f"from {target} import *", namespace)
    assert len(namespace) > 1


# ----------------------------------------------------------------------
# one home per rule
# ----------------------------------------------------------------------

WINDOW_FUNCTIONS = {"default_recurrence_window", "ising_recurrence_window"}


def _names(node):
    """Every name ``node`` mentions: variables, attributes and imported names."""
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def test_cli_keeps_no_window_rule():
    # the default recurrence windows are the library's per-model rule
    banned = WINDOW_FUNCTIONS | {"XY_WINDOW_FACTORS", "ISING_WINDOW_FACTORS"}
    assert sorted(set(_names(_tree("cli"))) & banned) == []


def test_only_the_engine_dispatch_calls_the_window_functions():
    callers = set()
    for module in MODULES:
        for func in ast.walk(_tree(module)):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                called = {
                    name for call in ast.walk(func) if isinstance(call, ast.Call)
                    for name in _names(call.func)
                }
                if called & WINDOW_FUNCTIONS:
                    callers.add(f"{module}.{func.name}")
    assert callers == {"regimes._engine"}


# ----------------------------------------------------------------------
# the benchmark's view of the library
# ----------------------------------------------------------------------

def _assigned(tree, name):
    """The value node of the module-level assignment ``name = ...``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value
    raise LookupError(name)


def _functions(layer):
    """Plain functions defined in ``spinbattery.<layer>``: what the tracer can wrap."""
    mod = importlib.import_module(f"spinbattery.{layer}")
    return {
        name for name, obj in vars(mod).items()
        if inspect.isfunction(obj) and obj.__module__ == mod.__name__
    }


def _mods_layer(node):
    """``layer`` if ``node`` is the expression ``mods["layer"]``, else None."""
    if (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == "mods"
        and isinstance(node.slice, ast.Constant)
    ):
        return node.slice.value
    return None


def _missing_imports(source):
    """``module.name`` for each name ``source`` imports from spinbattery that does not exist.

    A spinbattery module that does not exist raises ImportError.
    """
    missing = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "spinbattery":
                    importlib.import_module(alias.name)
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("spinbattery"):
            mod = importlib.import_module(node.module)
            missing += [f"{node.module}.{a.name}" for a in node.names if not hasattr(mod, a.name)]
    return missing


@pytest.mark.parametrize("script", sorted(path.name for path in BENCH.glob("*.py")))
def test_bench_imports_resolve(script):
    assert _missing_imports((BENCH / script).read_text()) == []


def test_readme_imports_resolve():
    # the README's python examples import only names the package still has
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert blocks
    assert [name for block in blocks for name in _missing_imports(block)] == []


def test_traced_span_names_are_module_functions():
    # Every "<layer>.<name>" string in traced.py names a span, so a function
    # defined in that module: HOOKS keys, engine names, the spans summed into
    # metrics.  Metric names are left out.  SOURCES values and "layer."
    # strings are span-name prefixes, which must each start a function's name.
    tree = ast.parse((BENCH / "traced.py").read_text())
    layers = ast.literal_eval(_assigned(tree, "LAYERS"))
    config = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"] for key in ("end_to_end", "per_layer") for m in config[key]}
    sources = _assigned(tree, "SOURCES")
    prefixes = {id(node) for node in sources.values}
    skipped = {id(node) for node in sources.keys}
    hooked = [node.value for node in _assigned(tree, "HOOKS").keys]
    assert "quench.energy_at_times" in hooked and "ising.ising_energy_at_times" in hooked
    checked, broken = [], []
    for node in ast.walk(tree):
        if not (isinstance(node, ast.Constant) and isinstance(node.value, str)):
            continue
        layer, dot, name = node.value.partition(".")
        if layer not in layers or not dot or node.value in metrics or id(node) in skipped:
            continue
        functions = _functions(layer)
        if id(node) in prefixes or not name:  # "layer." prefixes sum a whole layer
            ok = any(f.startswith(name) for f in functions)
        else:
            ok = name in functions
        checked.append(node.value)
        if not ok:
            broken.append(node.value)
    assert set(hooked) <= set(checked)
    assert broken == []


def test_traced_module_attributes_resolve():
    # mods["layer"].name and the probe's local aliases (quench = mods["quench"], ...)
    tree = ast.parse((BENCH / "traced.py").read_text())
    aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            pairs = (
                zip(target.elts, value.elts)
                if isinstance(target, ast.Tuple) and isinstance(value, ast.Tuple)
                else [(target, value)]
            )
            for name, expr in pairs:
                if isinstance(name, ast.Name) and _mods_layer(expr):
                    aliases[name.id] = _mods_layer(expr)
    assert {"quench", "ising", "regimes", "ed"} <= set(aliases)
    missing = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        layer = _mods_layer(node.value)
        if layer is None and isinstance(node.value, ast.Name):
            layer = aliases.get(node.value.id)
        if layer and not hasattr(importlib.import_module(f"spinbattery.{layer}"), node.attr):
            missing.append(f"{layer}.{node.attr}")
    assert missing == []


# ----------------------------------------------------------------------
# the command line's options
# ----------------------------------------------------------------------

def _opts_keys(function):
    """The keys ``opts["name"]`` that ``function`` reads."""
    return {
        node.slice.value
        for node in ast.walk(function)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == "opts"
        and isinstance(node.slice, ast.Constant)
    }


def test_every_cli_option_is_read():
    # An option a subcommand declares must be read by its cmd_* function or by
    # a cli function it passes ``opts`` to (such as _emit); otherwise it
    # changes nothing.  --config is read by the parser itself.
    functions = {
        node.name: node for node in _tree("cli").body if isinstance(node, ast.FunctionDef)
    }
    unread = []
    for command, (func, _, defaults) in _COMMANDS.items():
        body = functions[func.__name__]
        helpers = {
            call.func.id
            for call in ast.walk(body)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id in functions
            and any(isinstance(arg, ast.Name) and arg.id == "opts" for arg in call.args)
        }
        read = set().union(*(_opts_keys(functions[name]) for name in helpers | {func.__name__}))
        unread += [f"{command} --{name}" for name in defaults or () if name not in read]
    assert unread == []


def test_readme_option_table_lists_each_commands_options():
    # the README's "| subcommand | options |" table names exactly the long
    # options of each subcommand (--config aside, which every one but phase takes)
    text = (ROOT / "README.md").read_text()
    table = text.split("| subcommand | options |", 1)[1].split("\n\n", 1)[0]
    listed = {}
    for line in table.splitlines()[2:]:
        command, options = re.match(r"\| `([a-z-]+)` \| (.*) \|$", line).groups()
        listed[command] = set(re.findall(r"`(--[a-z0-9-]+)", options))
    expected = {
        command: {"--" + name.replace("_", "-") for name in defaults or ()}
        for command, (_, _, defaults) in _COMMANDS.items()
    }
    assert listed == expected
