"""Every name a module imports is used in it, so a deletion leaves no dead
import behind.  ``__init__.py`` is skipped: it imports to re-export.  And
every private top-level function or class of the package is named in it
outside its own definition, so no helper outlives its last reader.  Only
the generator builds a shape without the constructor's structure checks,
only the model raises ``NonPositiveWcet``, when a DAG is built, only the
decomposition runs its stages after the segmentation, and only the
``TaskSet`` view summarizes or classifies a task set."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted(ROOT.glob("src/parasched/*.py"))
FILES = sorted(p for p in [*SRC, *ROOT.glob("tests/*.py")]
               if p.name != "__init__.py")


def unused_imports(source: str) -> list:
    """The names bound by the module's imports that nothing else names."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                name = alias.asname or alias.name.partition(".")[0]
                imported[name] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items()
                  if name not in used)


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom a import b, c\n"
                          "sys.exit(c)\n") == [(1, "os"), (3, "b")]


@pytest.mark.parametrize("path", FILES,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def _names(node) -> set:
    """Every name ``node`` reads, binds, imports or looks up as an
    attribute."""
    names = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            names.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            names.add(sub.attr)
        elif isinstance(sub, ast.alias):
            names.update(filter(None, (sub.name, sub.asname)))
    return names


def unread_private_defs(sources: dict) -> list:
    """(module, line, name) of each private top-level function or class
    that no module names outside the definition itself."""
    defs, named = [], []
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and node.name.startswith("_") \
                    and not node.name.endswith("__"):
                defs.append((module, node))
            named.append((node, _names(node)))
    return [(module, node.lineno, node.name) for module, node in defs
            if not any(node.name in names
                       for other, names in named if other is not node)]


def test_the_check_sees_an_unread_private_def():
    sources = {"a": "def _used():\n    pass\n"
                    "def _recursive():\n    return _recursive()\n"
                    "class _Imported:\n    pass\n"
                    "class _Unread:\n    pass\n"
                    "x = _used()\n",
               "b": "from a import _Imported\n"}
    assert unread_private_defs(sources) \
        == [("a", 3, "_recursive"), ("a", 7, "_Unread")]


def test_every_private_def_has_a_reader():
    assert unread_private_defs(
        {path.name: path.read_text() for path in SRC}) == []


def modules_naming(sources: dict, name: str) -> set:
    """The modules that name ``name`` outside a top-level definition of
    it."""
    return {module for module, source in sources.items()
            for node in ast.parse(source).body
            if getattr(node, "name", None) != name and name in _names(node)}


def test_the_check_sees_every_module_naming_a_def():
    sources = {"a": "def _f():\n    return _f()\n",
               "b": "from a import _f as g\n",
               "c": "import a\na._f()\n",
               "d": "def f():\n    return '_f'\n"}
    assert modules_naming(sources, "_f") == {"b", "c"}


def test_only_the_generator_builds_unchecked_shapes():
    # load_taskset, task_from_dict, the CLI and a user's DagTask(...) all
    # take the checked constructor
    sources = {path.name: path.read_text()
               for path in [*SRC, *ROOT.glob("tests/*.py")]}
    assert modules_naming(sources, "_drawn_shape") == {"gen.py"}
    assert modules_naming(sources, "_set_core") == {"model.py"}


def functions_naming(source: str, name: str) -> set:
    """The functions and methods in ``source`` that name ``name``."""
    return {node.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.FunctionDef) and name in _names(node)}


def test_the_check_sees_a_module_raising_an_error_it_does_not_define():
    sources = {"errors.py": "class E(Exception):\n    pass\n",
               "model.py": "from .errors import E\nraise E('x')\n",
               "sim.py": "from . import errors\n"
                         "def f():\n    raise errors.E('x')\n",
               "gen.py": "def g():\n    return 'E'\n"}
    assert modules_naming(sources, "E") == {"model.py", "sim.py"}
    assert functions_naming(sources["sim.py"], "E") == {"f"}


def test_only_the_model_checks_wcets():
    # errors.py defines the error, and only DagTask._set_core, which every
    # shape passes through, raises it: no simulator, analysis or second
    # helper checks WCETs
    sources = {path.name: path.read_text() for path in SRC}
    assert modules_naming(sources, "NonPositiveWcet") == {"model.py"}
    assert functions_naming(sources["model.py"], "NonPositiveWcet") \
        == {"_set_core"}


def modules_calling(sources: dict, name: str) -> set:
    """The modules that call ``name``, by its bare name or as an
    attribute."""
    return {module for module, source in sources.items()
            for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.Call) and name in (
                getattr(node.func, "id", None),
                getattr(node.func, "attr", None))}


def test_the_check_sees_every_module_calling_a_function():
    sources = {"decomposition.py": "def f():\n    pass\nx = f()\n",
               "analysis.py": "from .decomposition import f\n"
                              "def g():\n    return f()\n",
               "sim.py": "from . import decomposition\n"
                         "y = decomposition.f(1)\n",
               "__init__.py": "from .decomposition import f\n"}
    assert modules_calling(sources, "f") \
        == {"decomposition.py", "analysis.py", "sim.py"}


def test_only_decompose_runs_the_stages_after_the_segmentation():
    # every reader of subtasks or loads goes through ``decompose``, whose
    # result runs each later stage once, when first read
    sources = {path.name: path.read_text() for path in SRC}
    for name in ("distribute_laxity", "reassemble", "dbf_and_load"):
        assert modules_calling(sources, name) == {"decomposition.py"}, name


def test_the_check_sees_a_second_summarizer():
    sources = {"model.py": "def summarize(ts):\n    pass\n"
                           "class TaskSet(tuple):\n"
                           "    def summary(self):\n"
                           "        return summarize(self)\n",
               "analysis.py": "from .model import summarize\n"
                              "def g(ts):\n    return summarize(ts)\n",
               "gen.py": "from .model import summarize\n"}
    assert modules_calling(sources, "summarize") == {"model.py",
                                                     "analysis.py"}
    assert functions_naming(sources["model.py"], "summarize") == {"summary"}


def test_only_the_view_summarizes_and_classifies():
    # the five tests read one raw-set summary and one classification per
    # TaskSet, so no test builds its own
    sources = {path.name: path.read_text() for path in SRC}
    assert modules_calling(sources, "summarize") == {"model.py"}
    assert functions_naming(sources["model.py"], "summarize") == {"summary"}
    assert modules_calling(sources, "_classify") == {"model.py"}
    assert functions_naming(sources["model.py"], "_classify") \
        == {"classification"}
