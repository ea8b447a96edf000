"""Static checks over the package source, with the standard library's ast."""

import ast
from collections import Counter
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "stein_icp"
MODULES = sorted(PACKAGE.glob("*.py"))


def _unused_imports(tree: ast.Module) -> list:
    """Names bound by an import and never read: not as a name, not as the
    root of an attribute chain, and not re-exported through __all__."""
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(f"line {line}: {name}" for name, line in imported.items() if name not in used)


def _names_read(tree: ast.AST) -> Counter:
    """Every name read, as a name, an attribute or an imported alias."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.asname or node.name] += 1
    return names


def _dead_helpers(trees: dict) -> list:
    """Private (_name, not dunder) functions and classes, at any depth, that
    no module reads outside the helper's own body."""
    read = sum((_names_read(tree) for tree in trees.values()), Counter())
    dead = []
    for name, tree in trees.items():
        for node in ast.walk(tree):
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")
                    and read[node.name] == _names_read(node)[node.name]):
                dead.append(f"{name}:{node.lineno}: {node.name}")
    return sorted(dead)


def test_package_has_modules():
    assert PACKAGE / "__init__.py" in MODULES


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(ast.parse(path.read_text(), filename=str(path))) == []


def test_detects_an_unused_import():
    tree = ast.parse("import os\nfrom math import pi, tau\nimport numpy as np\n"
                     "__all__ = ['tau']\nprint(np.pi, pi)\n")
    assert _unused_imports(tree) == ["line 1: os"]


def test_no_private_helper_without_a_caller():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    assert _dead_helpers(trees) == []


def test_detects_a_private_helper_without_a_caller():
    trees = {
        "a.py": ast.parse("def _used():\n    pass\n\ndef _self_only(n):\n"
                          "    return _self_only(n - 1)\n\nclass C:\n"
                          "    def _method(self):\n        pass\n\n"
                          "    def __len__(self):\n        return 0\n"),
        "b.py": ast.parse("from a import _used\n_used()\n"),
    }
    assert _dead_helpers(trees) == ["a.py:4: _self_only", "a.py:8: _method"]


def _deferred_package_imports(trees: dict) -> list:
    """Imports of a package module below module level, in a function, a
    class or a block: relative ones, and absolute ones of the package.
    Deferred third-party imports stay allowed."""
    bad = []
    for name, tree in trees.items():
        top = {id(node) for node in tree.body}
        for node in ast.walk(tree):
            if id(node) in top:
                continue
            if isinstance(node, ast.ImportFrom):
                modules = [node.module or ""] if node.level == 0 else [PACKAGE.name]
            elif isinstance(node, ast.Import):
                modules = [alias.name for alias in node.names]
            else:
                continue
            if any(m.split(".")[0] == PACKAGE.name for m in modules):
                bad.append((name, node.lineno))
    return [f"{name}:{line}" for name, line in sorted(bad)]


def test_no_package_import_inside_a_function():
    """Package modules import each other at module level only, so the
    import graph is what the module headers say. The engine imports
    evaluation and sgd there, so neither can import the engine back."""
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    assert _deferred_package_imports(trees) == []


def test_detects_a_package_import_inside_a_function():
    trees = {"a.py": ast.parse(
        "from .b import x\nimport stein_icp.c\n\n"
        "def f():\n    from .b import y\n    import stein_icp.c\n"
        "    from stein_icp import d\n    from scipy import ndimage\n"
        "    import numpy\n    return y\n\n"
        "class C:\n    from . import b\n")}
    assert _deferred_package_imports(trees) == ["a.py:5", "a.py:6", "a.py:7", "a.py:13"]


def _raises_in_loops(tree: ast.Module, function: str) -> list | None:
    """Lines of the raise statements inside a for or while loop of the
    named module-level function, or None when the module has no such
    function."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and node.name == function:
            return sorted({inner.lineno for loop in ast.walk(node)
                           if isinstance(loop, (ast.For, ast.While))
                           for inner in ast.walk(loop) if isinstance(inner, ast.Raise)})
    return None


def test_the_engine_loop_raises_nothing():
    """The engine freezes a particle that fails and records its iteration
    and cause; only the front ends raise. Its input checks come before its
    loop."""
    path = PACKAGE / "stein.py"
    assert _raises_in_loops(ast.parse(path.read_text(), filename=str(path)),
                            "run_particle_engine") == []


def test_detects_a_raise_in_a_loop():
    tree = ast.parse("def run(xs):\n    if not xs:\n        raise ValueError\n"
                     "    for x in xs:\n        while x:\n            if x < 0:\n"
                     "                raise RuntimeError(x)\n            x -= 1\n"
                     "    return xs\n\n\ndef other():\n    for _ in ():\n"
                     "        raise KeyError\n")
    assert _raises_in_loops(tree, "run") == [7]
    assert _raises_in_loops(tree, "missing") is None


def _module_all(tree: ast.Module) -> list:
    """The literal __all__ of a module, or [] when it declares none."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            return list(ast.literal_eval(node.value))
    return []


def _api_mismatches(trees: dict) -> list:
    """Names on which the package and its modules disagree: re-exported by
    __init__.py but missing from the defining module's __all__, or in a
    module's __all__ but not re-exported. cli.main is the console entry
    point, not a re-export."""
    init = trees["__init__.py"]
    exported = set(_module_all(init))
    source = {}
    for node in init.body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            for alias in node.names:
                source[alias.asname or alias.name] = f"{node.module}.py"
    bad = []
    for name in sorted(exported):
        module = source.get(name)
        if module is None or name not in _module_all(trees[module]):
            bad.append(f"{name}: re-exported but not in the __all__ of {module}")
    for module, tree in sorted(trees.items()):
        if module == "__init__.py":
            continue
        for name in _module_all(tree):
            if name not in exported and (module, name) != ("cli.py", "main"):
                bad.append(f"{name}: in the __all__ of {module} but not re-exported")
    return bad


def test_package_and_modules_agree_on_the_public_api():
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    assert _api_mismatches(trees) == []


def test_detects_public_api_mismatches():
    trees = {
        "__init__.py": ast.parse("from .a import kept, hidden\nfrom .b import X\n"
                                 "__all__ = ['kept', 'hidden', 'X']\n"),
        "a.py": ast.parse("__all__ = ['kept', 'orphan']\n"),
        "b.py": ast.parse("X = 1\n"),
        "cli.py": ast.parse("__all__ = ['main']\n"),
    }
    assert _api_mismatches(trees) == [
        "X: re-exported but not in the __all__ of b.py",
        "hidden: re-exported but not in the __all__ of a.py",
        "orphan: in the __all__ of a.py but not re-exported",
    ]


PERFBENCH = PACKAGE.parents[1] / "perfbench"

# Public names with no reader in the package or the benchmark, kept on purpose.
UNREAD_ON_PURPOSE = {
    "median_bandwidth",     # perfbench/tracing.py wraps it by its name as a string
    "run_sgd_icp",          # the K=1 reference the one-particle engine run must reproduce
    "ovl_coefficient",      # the whole-pose OVL that acceptance criterion 8 grades
    "relative_pose_error",  # the odometry error that acceptance criterion 8 grades
}


def _loads(tree: ast.AST) -> Counter:
    """Names loaded, as a name or an attribute, and names imported."""
    names = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names[node.id] += 1
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names[node.attr] += 1
        elif isinstance(node, ast.alias):
            names[node.asname or node.name] += 1
    return names


def _unread_public_names(init: ast.Module, readers: dict) -> list:
    """Names in __init__'s __all__ that no reader module loads or imports
    outside the name's own def or class body. __init__ itself, which
    re-exports every name, is not a reader."""
    read = sum((_loads(tree) for tree in readers.values()), Counter())
    for tree in readers.values():
        for node in ast.walk(tree):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                read[node.name] -= _loads(node)[node.name]
    return sorted(name for name in _module_all(init) if read[name] <= 0)


def test_every_public_name_has_a_reader():
    readers = {p: ast.parse(p.read_text(), filename=str(p))
               for p in [*MODULES, *PERFBENCH.glob("*.py")]
               if p.name != "__init__.py" and not p.name.startswith("test_")}
    init = ast.parse((PACKAGE / "__init__.py").read_text())
    assert set(_unread_public_names(init, readers)) == UNREAD_ON_PURPOSE


def test_detects_a_public_name_without_a_reader():
    init = ast.parse("from .a import used, self_only, imported, unread, Const\n"
                     "__all__ = ['used', 'self_only', 'imported', 'unread', 'Const']\n")
    readers = {
        "a.py": ast.parse("Const = 1\n\ndef used():\n    pass\n\n"
                          "def self_only(n):\n    return self_only(n - 1)\n\n"
                          "def imported():\n    pass\n\ndef unread():\n    pass\n"),
        "b.py": ast.parse("from a import imported\nused()\n"),
    }
    assert _unread_public_names(init, readers) == ["Const", "self_only", "unread"]


# The one float text of the package: cloud.format_table's %r template.
TABLE_WRITER = ("cloud.py", "format_table")


def _codec_breaches(trees: dict) -> list:
    """Every reference to csv.writer (as an attribute or an import), and every
    repr( call or '%r' template outside the table writer."""
    bad = []
    for name, tree in trees.items():
        allowed = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and (name, node.name) == TABLE_WRITER:
                allowed.update(id(n) for n in ast.walk(node))
        for node in ast.walk(tree):
            where = f"{name}:{getattr(node, 'lineno', '?')}"
            if (isinstance(node, ast.Attribute) and node.attr == "writer"
                    and isinstance(node.value, ast.Name) and node.value.id == "csv"):
                bad.append(f"{where}: csv.writer")
            elif isinstance(node, ast.ImportFrom) and node.module == "csv":
                bad += [f"{where}: csv.writer" for a in node.names if a.name == "writer"]
            elif id(node) in allowed:
                continue
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                    and node.func.id == "repr"):
                bad.append(f"{where}: repr(")
            elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                    and "%r" in node.value):
                bad.append(f"{where}: %r")
    return bad


def test_one_text_codec():
    """Tables are written only by cloud.format_table: no csv.writer, and no
    other float-to-text formatting, anywhere in the package."""
    trees = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    assert _codec_breaches(trees) == []


def test_detects_a_second_text_codec():
    trees = {
        "cloud.py": ast.parse("def format_table(v):\n    return '%r' % v + repr(v)\n"),
        "cli.py": ast.parse("import csv\nfrom csv import writer\n"
                            "w = csv.writer(fh)\ns = repr(1.0) + ('%r,%r' % (a, b))\n"
                            "ok = f'{s!r}' + '%d' % 3\n"),
    }
    assert _codec_breaches(trees) == ["cli.py:2: csv.writer", "cli.py:3: csv.writer",
                                      "cli.py:4: repr(", "cli.py:4: %r"]


def _declared_commands(tree: ast.Module) -> set:
    """The keys of the cli module's _COMMANDS table: the parser adds one
    subcommand per key."""
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "_COMMANDS" for t in node.targets)):
            return {key.value for key in node.value.keys}
    return set()


def _command_list_mismatches(cli_tree: ast.Module, readme: str) -> list:
    """Commands on which the parser, the Subcommands: line of the cli
    docstring and README's `stein-icp <cmd>` lines disagree."""
    commands = _declared_commands(cli_tree)
    line = next((line for line in ast.get_docstring(cli_tree).splitlines()
                 if line.startswith("Subcommands:")), "")
    listed = {
        "cli docstring": {n.strip(" .") for n in line.removeprefix("Subcommands:").split(",")
                          if n.strip(" .")},
        "README": {line.split()[1] for line in readme.splitlines()
                   if line.startswith("stein-icp ")},
    }
    bad = []
    for where, names in listed.items():
        bad += [f"{where}: {n} is not a command" for n in sorted(names - commands)]
        bad += [f"{where}: {n} is missing" for n in sorted(commands - names)]
    return bad


def test_one_list_of_commands():
    cli = PACKAGE / "cli.py"
    readme = (PACKAGE.parents[1] / "README.md").read_text()
    assert _command_list_mismatches(ast.parse(cli.read_text(), filename=str(cli)), readme) == []


def test_detects_a_command_list_mismatch():
    tree = ast.parse('"""Tool.\n\nSubcommands: run, bench.\n"""\n'
                     "_COMMANDS = {'run': (run, {}), 'synth': (synth, {})}\n")
    readme = "# tool\n\n```bash\nstein-icp run --x 1\nstein-icp bench\n```\n"
    assert _command_list_mismatches(tree, readme) == [
        "cli docstring: bench is not a command", "cli docstring: synth is missing",
        "README: bench is not a command", "README: synth is missing",
    ]


TRACING = PERFBENCH / "tracing.py"

# Wrapped names that no caller reaches through the wrapped module, kept on
# purpose.
UNCALLED_ON_PURPOSE = {
    # The engine computes its bandwidths inside stein_direction, so this
    # wrapper never fires and stein.bandwidth_s reads 0; the benchmark is to
    # drop or redefine that metric at its next change (ROADMAP item 1).
    "stein.median_bandwidth: no call through stein",
}


def _wrapped_attributes(tracing: ast.Module) -> list:
    """(owner, attr) of every w(owner, "attr", ...) call in tracing's
    install(), the owner as source text: "stein", "correspondence.NeighborIndex"."""
    install = next(node for node in tracing.body
                   if isinstance(node, ast.FunctionDef) and node.name == "install")
    return [(ast.unparse(node.args[0]), node.args[1].value) for node in ast.walk(install)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
            and node.func.id == "w"]


def _bound_names(body: list) -> set:
    """Names a module or class body binds: defs, classes, imports and
    assignments."""
    names = set()
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            names.update(a.asname or a.name.split(".")[0] for a in node.names)
        elif isinstance(node, ast.Assign):
            names.update(t.id for t in node.targets if isinstance(t, ast.Name))
    return names


def _called(tree: ast.AST, attr: str, owner: str | None) -> bool:
    """Whether tree calls attr as a bare name (owner None), as owner.attr,
    or, for owner "*", as an attribute of anything."""
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        f = node.func
        if owner is None and isinstance(f, ast.Name) and f.id == attr:
            return True
        if (isinstance(f, ast.Attribute) and f.attr == attr
                and owner in ("*", ast.unparse(f.value))):
            return True
    return False


def _tracing_breaches(tracing: ast.Module, modules: dict, callers: dict) -> list:
    """Every attribute tracing's install() wraps must exist on its owner, a
    package module or a class in one. A module attribute must be called
    where the wrapper replaces it: by its module as a bare name, or by a
    caller module as module.attr. A method must be called as x.attr by some
    package module."""
    bad = []
    for owner, attr in _wrapped_attributes(tracing):
        module, *classes = owner.split(".")
        tree = modules.get(f"{module}.py")
        body = tree.body if tree is not None else []
        for name in classes:
            body = next((node.body for node in body
                         if isinstance(node, ast.ClassDef) and node.name == name), [])
        if attr not in _bound_names(body):
            bad.append(f"{owner}.{attr}: no such attribute")
        elif classes:
            if not any(_called(t, attr, "*") for t in modules.values()):
                bad.append(f"{owner}.{attr}: no call")
        elif not (_called(tree, attr, None)
                  or any(_called(t, attr, module) for t in callers.values())):
            bad.append(f"{owner}.{attr}: no call through {module}")
    return bad


def test_tracing_wraps_names_the_program_calls():
    """perfbench/tracing.py times layers by replacing module attributes;
    a wrapper on a missing or uncalled name would read 0 without failing.
    The file is read, never imported or edited."""
    modules = {p.name: ast.parse(p.read_text(), filename=str(p)) for p in MODULES}
    callers = {p.name: ast.parse(p.read_text(), filename=str(p))
               for p in PERFBENCH.glob("*.py") if not p.name.startswith("test_")}
    tracing = ast.parse(TRACING.read_text(), filename=str(TRACING))
    wrapped = _wrapped_attributes(tracing)
    assert ("stein", "build_index") in wrapped
    assert ("correspondence.NeighborIndex", "query") in wrapped
    assert set(_tracing_breaches(tracing, modules, callers)) == UNCALLED_ON_PURPOSE


def test_detects_a_wrapper_that_cannot_fire():
    tracing = ast.parse(
        "def install(tracer):\n    w = tracer.wrap\n"
        "    w(a, 'inner', 'a.inner')\n    w(a, 'entry', 'a.entry')\n"
        "    w(a, 'idle', 'a.idle')\n    w(a, 'gone', 'a.gone')\n"
        "    w(a.Index, 'query', 'a.query')\n    w(a.Index, 'fill', 'a.fill')\n"
        "    w(a.Gone, 'query', 'a.gone_query')\n    w(b, 'x', 'b.x')\n")
    modules = {"a.py": ast.parse("from m import inner\n\ndef entry():\n    return inner()\n\n"
                                 "def idle():\n    pass\n\nclass Index:\n"
                                 "    def query(self):\n        pass\n\n"
                                 "    def fill(self):\n        pass\n\n"
                                 "def use(index):\n    return index.query()\n")}
    callers = {"run.py": ast.parse("import a\na.entry()\nidle()\n")}
    assert _tracing_breaches(tracing, modules, callers) == [
        "a.idle: no call through a", "a.gone: no such attribute",
        "a.Index.fill: no call", "a.Gone.query: no such attribute",
        "b.x: no such attribute",
    ]
