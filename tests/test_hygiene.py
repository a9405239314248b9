"""Static checks on the package source, using only the standard library.

No linter is a dependency, so the stale imports and ``__all__`` entries that
removals tend to leave behind are caught here, and so are names the
benchmark harness in ``bench/`` reaches that no longer exist (those files
are only read), README examples that no longer run, command-line options
that no subcommand reads, and thread or process machinery no engine needs.
"""

import ast
import dataclasses
import importlib
import inspect
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from spinbattery.cli import _CHOICES, _COMMANDS, _MODELS

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


def test_ising_publishes_only_its_supplier_and_two_benchmark_entries():
    # the shared engines take IsingParams directly; ising_energy_at_times and
    # ising_resolution_bound stay because bench/ calls them, and no other
    # ising_* alias of an engine comes back
    from spinbattery import ising

    assert ising.__all__ == ["IsingParams", "ising_energy_at_times", "ising_resolution_bound"]


@pytest.mark.parametrize("module", MODULES)
def test_star_import(module):
    target = "spinbattery" if module == "__init__" else f"spinbattery.{module}"
    namespace = {}
    exec(f"from {target} import *", namespace)
    assert len(namespace) > 1


def test_a_sweep_loads_no_process_machinery(tmp_path):
    # sweeps and scaling runs compute their rows in the calling process
    path = os.pathsep.join(os.path.abspath(p) for p in sys.path if p)
    script = (
        "import sys\n"
        "from spinbattery.cli import main\n"
        "assert main(['sweep', '--n-dimers', '20', '--param-min', '0.15',\n"
        "             '--param-max', '0.25', '--param-step', '0.05', '--workers', '2']) == 0\n"
        "print(sorted(m for m in sys.modules\n"
        "             if m.split('.')[0] in ('multiprocessing', 'concurrent')))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"
    assert (tmp_path / "sweep.csv").read_text().count("\n") == 4


def test_writing_a_trace_loads_no_fractions_or_decimal(tmp_path):
    # the float cells build 10**k from integer ratios; either module would add
    # its import to the start-up of every CLI run
    path = os.pathsep.join(os.path.abspath(p) for p in sys.path if p)
    script = (
        "import sys\n"
        "import spinbattery.cli\n"
        "loaded = [m for m in ('fractions', 'decimal') if m in sys.modules]\n"
        "assert spinbattery.cli.main(['trace']) == 0\n"
        "assert spinbattery.cli.main(['trace', '--format', 'json']) == 0\n"
        "print(loaded, [m for m in ('fractions', 'decimal') if m in sys.modules])\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=tmp_path, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[] []\n"
    assert (tmp_path / "trace.csv").exists() and (tmp_path / "trace.json").exists()


CONCURRENCY_MODULES = {"threading", "contextvars", "concurrent", "multiprocessing"}


@pytest.mark.parametrize("module", MODULES)
def test_no_module_imports_thread_or_process_machinery(module):
    # every engine runs in the calling thread, so none needs threads, context
    # copies for them, or pools
    imported = set()
    for node in ast.walk(_tree(module)):
        if isinstance(node, ast.Import):
            imported |= {alias.name.split(".")[0] for alias in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module.split(".")[0])
    assert imported & CONCURRENCY_MODULES == set()


def test_a_trace_and_a_sweep_start_no_thread(tmp_path, monkeypatch):
    # the default trace and a two-point sweep with two workers run in the
    # calling thread
    import threading

    from spinbattery.cli import main

    started = []
    monkeypatch.setattr(threading.Thread, "start", lambda self: started.append(self))
    monkeypatch.chdir(tmp_path)
    assert main(["trace", "--out", "trace.csv"]) == 0
    assert main(["sweep", "--n-dimers", "20", "--param-min", "0.15", "--param-max", "0.2",
                 "--param-step", "0.05", "--workers", "2", "--out", "sweep.csv"]) == 0
    assert started == []
    assert (tmp_path / "sweep.csv").read_text().count("\n") == 3


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
    # the default recurrence windows, the trace's defaults and checks and the
    # trace itself are the library's per-model rules
    banned = WINDOW_FUNCTIONS | {
        "XY_WINDOW_FACTORS", "ISING_WINDOW_FACTORS", "window_factors", "_default_window",
        "DT_SAFETY", "_recurrence_window", "EnergyTrace", "_window_span",
    }
    assert sorted(set(_names(_tree("cli"))) & banned) == []


def _is_window_item(node):
    """True if ``node`` is ``window[...]``."""
    return (
        isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == "window"
    )


def test_only_the_window_span_puts_times_against_the_window():
    # regimes._window_span's searchsorted is the one rule for which samples
    # lie in a window; no comparison of a times array with window[...] repeats it
    compares = [
        ast.unparse(node)
        for node in ast.walk(_tree("regimes"))
        if isinstance(node, ast.Compare)
        and any(_is_window_item(op) for op in [node.left, *node.comparators])
        and any(name.endswith("times") for name in _names(node))
    ]
    assert compares == []


def test_no_grid_is_shifted_by_the_window():
    # a window grid starts at window-min inside quench._uniform_times(start, end, ...)
    shifted = [
        f"{module}: {ast.unparse(node)}"
        for module in MODULES
        for node in ast.walk(_tree(module))
        if isinstance(node, ast.BinOp)
        and isinstance(node.op, ast.Add)
        and (_is_window_item(node.left) or _is_window_item(node.right))
    ]
    assert shifted == []


def test_only_the_default_window_forms_a_default_window():
    # the suppliers' window factors become a window in regimes._default_window
    # alone; the public window functions serve callers outside the package,
    # so no library function calls them
    readers, callers = set(), set()
    for module in MODULES:
        for func in ast.walk(_tree(module)):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                called = {
                    name for call in ast.walk(func) if isinstance(call, ast.Call)
                    for name in _names(call.func)
                }
                if called & WINDOW_FUNCTIONS:
                    callers.add(f"{module}.{func.name}")
                if "window_factors" in set(_names(func)):
                    readers.add(f"{module}.{func.name}")
    assert readers == {"regimes._default_window"}
    assert callers == set()


PARAMETER_CLASSES = {"QuenchProtocol", "IsingParams"}


def test_no_isinstance_on_a_parameter_class():
    # each parameter class supplies what the engines need, so no code tells
    # the models apart by their class
    checks = [
        f"{module}: {ast.unparse(node)}"
        for module in MODULES
        for node in ast.walk(_tree(module))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("isinstance", "issubclass")
        and set(_names(node.args[1])) & PARAMETER_CLASSES
    ]
    assert checks == []


# what the engines read off a model: a parameter class offers its dataclass
# fields and these names, nothing else
SUPPLIER_CONTRACT = {
    "size", "size_name", "window_factors", "chain_modes", "kernel_tables", "ed_kinds",
}


@pytest.mark.parametrize("name", sorted(PARAMETER_CLASSES))
def test_each_parameter_class_is_exactly_the_supplier_contract(name):
    import spinbattery

    cls = getattr(spinbattery, name)
    public = {attr for attr in dir(cls) if not attr.startswith("_")}
    assert public - {field.name for field in dataclasses.fields(cls)} == SUPPLIER_CONTRACT


def test_regimes_calls_no_model_specific_kernel():
    # a sweep row of either model runs the shared kernels over its supplier's
    # tables; no function of xy or ising, and no XY table or band builder
    called = {
        name for call in ast.walk(_tree("regimes")) if isinstance(call, ast.Call)
        for name in _names(call.func)
    }
    model_specific = _functions("xy") | _functions("ising") | {"_bloch_bands"}
    assert called & model_specific == set()
    assert {"_phase_block_sum", "_exact_energy", "kernel_tables"} <= called


EIGENSOLVERS = {"eig", "eigh", "eigvals", "eigvalsh"}


def test_only_the_bloch_helper_and_the_oracle_call_eigensolvers():
    # the chain picture needs no eigensolver: besides the ED oracle, only the
    # XY time kernel's charger bands call one
    callers = set()
    for module in MODULES:
        for node in _tree(module).body:
            for call in ast.walk(node):
                if isinstance(call, ast.Call) and set(_names(call.func)) & EIGENSOLVERS:
                    callers.add(f"{module}.{getattr(node, 'name', '<module>')}")
    assert {c for c in callers if not c.startswith("ed.")} == {"quench._bloch_bands"}
    assert any(c.startswith("ed.") for c in callers)


def test_only_the_couplings_tell_the_ed_kinds_apart():
    # a kind's spin chain is written in ed._couplings alone, so a new kind is
    # one branch there and no other ED function asks which kind it holds
    callers = [
        getattr(node, "name", "<module>")
        for node in _tree("ed").body
        for call in ast.walk(node)
        if isinstance(call, ast.Call) and set(_names(call.func)) & {"isinstance", "issubclass"}
    ]
    assert set(callers) == {"_couplings"}


def test_the_ed_reference_imports_only_the_kinds_from_the_oracle():
    # the judge of the oracle's sectors shares no code with spinbattery.ed
    from_package = set()
    for node in ast.walk(ast.parse((ROOT / "tests" / "ed_reference.py").read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("spinbattery"):
            from_package |= {alias.name for alias in node.names}
        elif isinstance(node, ast.Import):
            from_package |= {a.name for a in node.names if a.name.startswith("spinbattery")}
    assert from_package <= {"DimerizedXY", "TransverseIsing"}


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


def test_readme_examples_run():
    # each python example of the README runs as written, so one that names a
    # retired function or passes a rejected argument fails here
    blocks = re.findall(r"^```python\n(.*?)^```", (ROOT / "README.md").read_text(), re.M | re.S)
    assert blocks
    for block in blocks:
        exec(compile(block, "README.md", "exec"), {})


@pytest.mark.filterwarnings("ignore::spinbattery.regimes.RecurrenceWindowWarning")
def test_readme_command_lines_run(tmp_path, monkeypatch):
    # each `spinbattery ...` line of the README's sh blocks exits 0 and writes
    # its --out file, and the ini block is a config file that trace accepts
    from spinbattery.cli import main

    text = (ROOT / "README.md").read_text()
    lines = [
        line.split("#", 1)[0].split()[1:]
        for block in re.findall(r"^```sh\n(.*?)^```", text, re.M | re.S)
        for line in block.splitlines() if line.startswith("spinbattery ")
    ]
    assert len(lines) >= 5
    monkeypatch.chdir(tmp_path)
    for args in lines:
        assert main(args) == 0, args
        if "--out" in args:
            assert (tmp_path / args[args.index("--out") + 1]).is_file(), args
    (config,) = re.findall(r"^```ini\n(.*?)^```", text, re.M | re.S)
    (tmp_path / "run.cfg").write_text(config)
    assert main(["trace", "--config", "run.cfg", "--n-dimers", "20", "--out", "cfg.csv"]) == 0
    assert (tmp_path / "cfg.csv").is_file()


def _bench_value(script, name):
    """The literal value of ``name = ...`` in ``bench/<script>``, read without importing it."""
    return ast.literal_eval(_assigned(ast.parse((BENCH / script).read_text()), name))


@pytest.mark.filterwarnings("ignore::spinbattery.regimes.RecurrenceWindowWarning")
def test_bench_copies_of_library_constants_match(tmp_path, monkeypatch):
    # bench/ repeats these values instead of importing them, so a library
    # change that leaves the benchmark's copy behind fails here
    from spinbattery import IsingParams, QuenchProtocol, regimes
    from spinbattery.cli import main

    assert _bench_value("workloads.py", "T_SHORT") == regimes.DEFAULT_SHORT_SPAN
    per_mode = _bench_value("check.py", "NOISE_PER_MODE")
    assert regimes._noise_floor(QuenchProtocol(1.25, 0.3, 0.6, 300)) == per_mode * 300
    assert regimes._noise_floor(IsingParams(0.8, 0.7, 600)) == per_mode * 600
    assert _bench_value("check.py", "ORACLE_TOL") == _COMMANDS["oracle-check"][2]["tol"]
    monkeypatch.chdir(tmp_path)
    assert main(["trace", "--n-dimers", "4", "--out", "t.csv"]) == 0
    assert main(["sweep", "--n-dimers", "4", "--param-min", "0.2", "--param-max", "0.2",
                 "--out", "s.csv"]) == 0
    for name, out in (("TRACE_HEADER", "t.csv"), ("SWEEP_HEADER", "s.csv")):
        header = (tmp_path / out).read_text().split("\n", 1)[0]
        assert _bench_value("check.py", name) == header


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


def _passes_opts(node):
    """Whether the call ``node`` has ``opts`` itself among its arguments."""
    return any(isinstance(arg, ast.Name) and arg.id == "opts" for arg in node.args)


def _model_reads(function):
    """The options ``function`` reads through ``cli._MODELS``.

    For each ``_supplier_args`` call on ``opts`` (or on ``{**opts, ...}``)
    these are the fields of every supplier in the table, less the keys the
    call sets itself and, where it omits one, each entry's swept field.
    """
    read = set()
    for call in ast.walk(function):
        if not (isinstance(call, ast.Call) and getattr(call.func, "id", None) == "_supplier_args"
                and len(call.args) >= 2):
            continue
        given, set_here = call.args[1], set()
        if isinstance(given, ast.Dict) and None in given.keys:  # {**opts, key: ...}
            set_here = {k.value for k in given.keys if k is not None}
        elif not (isinstance(given, ast.Name) and given.id == "opts"):
            continue
        omits = len(call.args) > 2 or any(k.arg == "omit" for k in call.keywords)
        read |= {
            f.name
            for supplier, swept, _ in _MODELS.values()
            for f in dataclasses.fields(supplier)
            if f.name not in set_here and not (omits and f.name == swept)
        }
    return read


def test_every_cli_option_is_read():
    # An option a subcommand declares must be read by its cmd_* function or by
    # a cli function it passes ``opts`` to (such as _emit), directly or
    # through the model table (see _model_reads); otherwise it changes
    # nothing.  --config is read by the parser itself.
    tree = _tree("cli")
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    unread = []
    for command, (func, _, defaults) in _COMMANDS.items():
        body = functions[func.__name__]
        helpers = {
            call.func.id
            for call in ast.walk(body)
            if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Name)
            and call.func.id in functions
            and _passes_opts(call)
        }
        read = set().union(*(
            _opts_keys(functions[name]) | _model_reads(functions[name])
            for name in helpers | {func.__name__}
        ))
        unread += [f"{command} --{name}" for name in defaults or () if name not in read]
    assert unread == []


def test_the_model_table_is_the_only_model_dispatch():
    # trace, sweep and oracle-check take everything model specific from
    # cli._MODELS, whose rows name a supplier, its swept field and its sweep,
    # and from the supplier itself (oracle-check's ED chains: ed_kinds)
    assert _CHOICES["model"] == tuple(_MODELS)
    assert {len(row) for row in _MODELS.values()} == {3}
    functions = {node.name: node for node in _tree("cli").body if isinstance(node, ast.FunctionDef)}
    compares = {
        name: sum(
            isinstance(side, ast.Constant) and side.value in _MODELS
            for node in ast.walk(functions[name]) if isinstance(node, ast.Compare)
            for side in (node.left, *node.comparators)
        )
        for name in ("cmd_trace", "cmd_sweep", "cmd_oracle_check")
    }
    assert compares == {"cmd_trace": 0, "cmd_sweep": 0, "cmd_oracle_check": 0}


def test_each_model_sweep_takes_its_suppliers_other_fields():
    # cmd_sweep passes the supplier's fields, the swept one left out, in
    # order and then the grid
    from spinbattery import regimes

    for supplier, swept, sweep in _MODELS.values():
        fixed = [f.name for f in dataclasses.fields(supplier) if f.name != swept]
        names = list(inspect.signature(getattr(regimes, sweep)).parameters)
        assert names[:len(fixed) + 1] == [*fixed, f"{swept}_grid"]


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
