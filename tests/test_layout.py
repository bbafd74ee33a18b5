"""The package carries no code that only the tests use, one output format,
no import inside a function, and no costly standard module at import.

Every public function, method and property defined in ``src/spsqkd``, and
every private module-level function, must be referenced by the package
itself, the scripts or the benchmark harness, somewhere other than its own
definition: by name, by attribute, or as a string naming it (the harness
patches functions by name).  Listing a name in ``__all__`` is not a use.
So no scalar twin of a vectorized path survives as a test-only oracle in
the package; such oracles live in the tests.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# public names kept although no program calls them, each for a stated reason
ALLOWED = {
    # the closed-form threshold acceptance criterion 3 is anchored on
    "critical_efficiency",
}


def _definitions(tree):
    """(qualified name, bare name) of the public module-level functions and
    class members, and of the private module-level functions."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            yield node.name, node.name
        elif isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not item.name.startswith("_"):
                        yield f"{node.name}.{item.name}", item.name


def _references(tree):
    """Names a module uses, outside ``__all__`` and outside their own def."""
    used = set()

    def visit(node, enclosing):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            name = None
        if name is not None and name not in enclosing:
            used.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(tree, frozenset())
    return used


def _program_files():
    for folder in ("src", "scripts", "perfbench"):
        for path in sorted((ROOT / folder).rglob("*.py")):
            if not path.name.startswith("test_"):
                yield path


def _scan():
    """Checked definitions in the package, and every name the programs use."""
    used = set()
    defined = {}
    for path in _program_files():
        tree = ast.parse(path.read_text(), filename=str(path))
        used |= _references(tree)
        if (ROOT / "src" / "spsqkd") in path.parents:
            defined.update(_definitions(tree))
    return defined, used


def _uncalled(private):
    defined, used = _scan()
    checked = {q: bare for q, bare in defined.items() if bare.startswith("_") == private}
    assert checked
    return sorted(q for q, bare in checked.items() if bare not in used and q not in ALLOWED)


def test_every_public_definition_has_a_caller():
    unused = _uncalled(private=False)
    assert unused == [], f"public but only tests call: {unused}"


def test_every_private_function_has_a_caller():
    unused = _uncalled(private=True)
    assert unused == [], f"private helpers only tests call: {unused}"


def test_allowlist_holds_only_uncalled_definitions():
    defined, used = _scan()
    for qualified in ALLOWED:
        assert qualified in defined
        assert defined[qualified] not in used, f"{qualified} has a caller now"


def _header_line_sites(path):
    """Line numbers of f-strings that open with "# ", an output header line."""
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.JoinedStr)
        and node.values
        and isinstance(node.values[0], ast.Constant)
        and node.values[0].value.startswith("# ")
    ]


def test_only_config_lays_out_output_headers():
    # config.format_report and config.format_csv own the `# key=value` header
    package = ROOT / "src" / "spsqkd"
    sites = {
        path.name: lines
        for path in sorted(package.glob("*.py"))
        if (lines := _header_line_sites(path))
    }
    assert sites.keys() <= {"config.py"}, f"header lines built outside config: {sites}"
    assert "config.py" in sites


def test_no_imports_inside_functions():
    # every module imports at its top, so the package's import graph is the
    # one its module headers show
    package = ROOT / "src" / "spsqkd"
    sites = set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                sites |= {
                    f"{path.name}:{node.lineno}"
                    for node in ast.walk(func)
                    if isinstance(node, (ast.Import, ast.ImportFrom))
                }
    assert not sites, f"imports inside functions: {sorted(sites)}"


def test_importing_the_cli_loads_no_thread_pool_or_logging():
    # every command pays for its imports first: concurrent.futures, with the
    # logging it imports, would add about 7 ms to a 0.12 s start.  numpy
    # already loads threading, which is all the package's one thread needs
    code = ("import sys, spsqkd.cli; "
            "print(sorted({'concurrent.futures', 'logging'} & sys.modules.keys()))")
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


def test_only_the_thread_helper_starts_threads():
    # _threads._in_order starts, joins and re-raises the package's one
    # worker thread, and holds its only lock; any other module goes through
    # it and imports no threading of its own
    package = ROOT / "src" / "spsqkd"
    sites, importers = set(), set()
    for path in sorted(package.glob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        sites |= {
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Call)
            and (getattr(node.func, "attr", None) == "Thread"
                 or getattr(node.func, "id", None) == "Thread")
        }
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = {a.name.split(".")[0] for a in node.names}
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = {(node.module or "").split(".")[0]}
            else:
                continue
            if names & {"threading", "_thread", "concurrent"}:
                importers.add(f"{path.name}:{node.lineno}")
    assert sites and {site.split(":")[0] for site in sites} == {"_threads.py"}, sites
    assert {site.split(":")[0] for site in importers} == {"_threads.py"}, importers


def test_front_ends_leave_run_sizing_to_the_library():
    # run_experiment_detailed and simulate_hbt refuse their own sizes, so the
    # CLI and the scripts need nothing of the channel model but the link
    files = [ROOT / "src" / "spsqkd" / "cli.py", *sorted((ROOT / "scripts").glob("*.py"))]
    sites = set()
    for path in files:
        tree = ast.parse(path.read_text(), filename=str(path))
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                base = ".".join(filter(None, ["spsqkd" if node.level else "", node.module]))
                names = [f"{base}.{a.name}" for a in node.names]
            else:
                continue
            sites |= {
                f"{path.name}:{name}"
                for name in names
                if name.startswith("spsqkd.channel") and name != "spsqkd.channel.LinkSpec"
            }
    assert not sites, f"channel imports in the front ends: {sorted(sites)}"


def test_the_cli_only_resolves_and_writes():
    # each command is one library call: cli.py starts no thread, draws no
    # random number, and runs no estimator and no CASCADE of its own.  It
    # may bind an estimator only while the benchmark's tracer patches that
    # name on spsqkd.cli, and even then never calls it
    library = {"cascade", "simulate_hbt", "correlation_histogram", "fit_lifetime",
               "g2_at_zero", "binary_entropy", "derive_seed", "_in_order", "_on_two_threads",
               "default_rng", "SeedSequence", "Thread"}
    spans = ast.parse((ROOT / "perfbench" / "spans.py").read_text())
    traced = {
        node.elts[1].value
        for node in ast.walk(spans)
        if isinstance(node, ast.Tuple) and len(node.elts) == 3
        and all(isinstance(e, ast.Constant) for e in node.elts)
        and node.elts[0].value == "spsqkd.cli"
    }
    tree = ast.parse((ROOT / "src" / "spsqkd" / "cli.py").read_text())
    imported, called = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported |= {node.module or ""} | {a.name for a in node.names}
        elif isinstance(node, ast.Import):
            imported |= {a.name for a in node.names}
        elif isinstance(node, ast.Call):
            called.add(getattr(node.func, "id", None) or getattr(node.func, "attr", None))
    assert "_threads" not in imported and "threading" not in imported
    assert not (imported & library) - traced, sorted((imported & library) - traced)
    assert not called & library, sorted(called & library)
