"""Static guards, all read from one index per module (see ``index``):

- each name a module of the package, the tests or the benchmark imports
  is read in it as a bare name, so a deletion leaves no dead import
  behind (``__init__.py`` imports to re-export and is skipped);
- each private top-level function or class of the package is referenced
  outside its own definition, so no helper outlives its last reader;
- each name in ``ONLY`` is read by exactly the functions its row lists:
  only the generator builds a shape without the constructor's structure
  checks, only ``DagTask._set_core`` checks WCETs, only the checked
  constructor scales a DAG's WCETs to ints, only ``with_period``
  validates, ``decompose`` is the one decomposition entry, only the
  ``TaskSet`` view summarizes or classifies a task set, and only
  ``model`` names the summary record."""

import ast
from collections import defaultdict, namedtuple
from functools import cache
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SRC = sorted(ROOT.glob("src/parasched/*.py"))
TESTS = sorted(ROOT.glob("tests/*.py"))
FILES = sorted(p for p in [*SRC, *TESTS, *ROOT.glob("perfbench/*.py")]
               if p.name != "__init__.py")


Index = namedtuple("Index", "imports refs defs")


def _bindings(node) -> list:
    """(name bound, name imported) of each alias of an import ``node``."""
    if not isinstance(node, (ast.Import, ast.ImportFrom)) \
            or getattr(node, "module", None) == "__future__":
        return []
    return [(alias.asname, alias.name.rpartition(".")[2]) if alias.asname
            else (alias.name.partition(".")[0],) * 2 for alias in node.names]


@cache
def index(source: str) -> Index:
    """A module's ``imports``, each name an import binds mapped to (line,
    name imported); its ``refs``, each name it references mapped to
    (function, kind) pairs, the function the qualified name of the
    innermost enclosing def (None at module level), the kind "name",
    "attr" or "import"; and its top-level ``defs``, mapped to their lines.
    A bare name an import binds reads itself and the name it imports, and
    no def references itself.  Cached: a source is parsed once per run."""
    tree = ast.parse(source)
    imports = {bound: (node.lineno, name) for node in ast.walk(tree)
               for bound, name in _bindings(node)}
    refs = defaultdict(set)

    def visit(node, scope: tuple) -> None:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            scope = (*scope, node.name)
        found = [(name, "import") for _, name in _bindings(node)]
        if isinstance(node, ast.Name):
            found = [(node.id, "name"),
                     (imports.get(node.id, (0, node.id))[1], "name")]
        elif isinstance(node, ast.Attribute):
            found = [(node.attr, "attr")]
        for name, kind in found:
            if name not in scope:
                refs[name].add((".".join(scope) or None, kind))
        for child in ast.iter_child_nodes(node):
            visit(child, scope)

    visit(tree, ())
    return Index(imports, dict(refs),
                 {node.name: node.lineno for node in tree.body
                  if isinstance(node, (ast.FunctionDef, ast.ClassDef))})


def unused_imports(source: str) -> list:
    """(line, name) of each name the module's imports bind and nothing
    reads as a bare name."""
    imports, refs, _ = index(source)
    return sorted((line, name) for name, (line, _) in imports.items()
                  if all(kind != "name" for _, kind in refs.get(name, ())))


def unread_private_defs(sources: dict) -> list:
    """(module, line, name) of each private top-level function or class
    that no module references outside the definition itself."""
    return [(module, line, name) for module, source in sources.items()
            for name, line in index(source).defs.items()
            if name.startswith("_") and not name.endswith("__")
            and not any(name in index(other).refs
                        for other in sources.values())]


def referrers(sources: dict, name: str) -> set:
    """The (module, function) pairs that read ``name``, as a bare name or
    an attribute; an import alone reads nothing."""
    return {(module, function) for module, source in sources.items()
            for function, kind in index(source).refs.get(name, ())
            if kind != "import"}


TOY = """\
import os
import sys
import foo
import m as q
from m import f as g
def f(x):
    return f(x.foo)
def h():
    return g() + q.f()
def k():
    sys.exit("f")
y = f(1)
"""


def test_the_index_reads_aliases_as_what_they_import():
    refs = index(TOY).refs
    assert refs["f"] == {("h", "name"), ("h", "attr"), (None, "name"),
                         (None, "import")}
    assert refs["m"] == {("h", "name"), (None, "import")}
    assert refs["foo"] == {("f", "attr"), (None, "import")}
    assert referrers({"toy.py": TOY}, "f") == {("toy.py", "h"),
                                               ("toy.py", None)}
    # an attribute x.foo does not use ``import foo``
    assert unused_imports(TOY) == [(1, "os"), (3, "foo")]


def test_the_check_sees_an_unused_import():
    assert unused_imports("import os\nimport sys\nfrom a import b, c\n"
                          "sys.exit(c)\n") == [(1, "os"), (3, "b")]


@pytest.mark.parametrize("path", FILES,
                         ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


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


def test_the_check_sees_every_module_naming_a_def():
    sources = {"a": "def _f():\n    return _f()\n",
               "b": "from a import _f as g\ndef h():\n    return g()\n",
               "c": "import a\na._f()\n",
               "d": "def f():\n    return '_f'\n",
               "e": "from a import _f\n"}
    assert referrers(sources, "_f") == {("b", "h"), ("c", None)}


def test_the_check_sees_a_module_raising_an_error_it_does_not_define():
    sources = {"errors.py": "class E(Exception):\n    pass\n",
               "model.py": "from .errors import E\nraise E('x')\n",
               "sim.py": "from . import errors\n"
                         "def f():\n    raise errors.E('x')\n",
               "gen.py": "def g():\n    return 'E'\n"}
    assert referrers(sources, "E") == {("model.py", None), ("sim.py", "f")}


def test_the_check_sees_every_module_calling_a_function():
    sources = {"decomposition.py": "def f():\n    pass\nx = f()\n",
               "analysis.py": "from .decomposition import f\n"
                              "def g():\n    return f()\n",
               "sim.py": "from . import decomposition\n"
                         "y = decomposition.f(1)\n",
               "__init__.py": "from .decomposition import f\n"}
    assert referrers(sources, "f") == {("decomposition.py", None),
                                       ("analysis.py", "g"),
                                       ("sim.py", None)}


def test_the_check_sees_a_second_summarizer():
    # a call through an aliased import is read as the name it imports
    sources = {"model.py": "def summarize(ts):\n    pass\n"
                           "class TaskSet(tuple):\n"
                           "    def summary(self):\n"
                           "        return summarize(self)\n",
               "analysis.py": "from .model import summarize as _s\n"
                              "def g(ts):\n    return _s(ts)\n",
               "gen.py": "from .model import summarize\n"}
    assert referrers(sources, "summarize") \
        == {("model.py", "TaskSet.summary"), ("analysis.py", "g")}


def test_the_check_sees_a_second_wcet_scaler():
    # a drawn shape's WCETs are ints already, so a scaling in the
    # generator's path is a second one
    sources = {"model.py": "def scale_to_ints(values):\n    pass\n"
                           "class DagTask:\n"
                           "    def __init__(self, wcets):\n"
                           "        self.den = scale_to_ints(wcets)\n"
                           "def _drawn_shape(wcets):\n"
                           "    return scale_to_ints(wcets)\n",
               "gen.py": "from . import model\n"
                         "def gen_structure(wcets):\n"
                         "    return model.scale_to_ints(wcets)\n"}
    assert referrers(sources, "scale_to_ints") \
        == {("model.py", "DagTask.__init__"), ("model.py", "_drawn_shape"),
            ("gen.py", "gen_structure")}


# Each restricted name and the (module, function) pairs that may read it,
# in the package and, for a private name, in the tests too.
ONLY = {
    # load_taskset, task_from_dict, the CLI and a user's DagTask(...) all
    # take the checked constructor
    "_drawn_shape": {("gen.py", "gen_structure")},
    "_set_core": {("model.py", "DagTask.__init__"),
                  ("model.py", "_drawn_shape")},
    # every shape passes through _set_core: no simulator, analysis or
    # second helper checks WCETs
    "NonPositiveWcet": {("model.py", "DagTask._set_core")},
    # a DAG's WCETs are scaled once, by the checked constructor, before its
    # Kahn walk finds the ready times; a drawn shape's WCETs are ints, and
    # the other two readers scale speeds and utilizations
    "scale_to_ints": {("model.py", "DagTask.__init__"),
                      ("model.py", "scale_speeds"),
                      ("model.py", "summarize")},
    "validate": {("model.py", "DagTask.with_period")},
    # every reader of subtasks or loads goes through ``decompose``, whose
    # result runs each later stage once, when first read
    "timing_diagram": {("decomposition.py", "decompose")},
    "segment_workload": {("decomposition.py", "decompose")},
    "distribute_laxity": {("decomposition.py", "Decomposition.laxity")},
    "reassemble": {("decomposition.py", "Decomposition.decomposed")},
    "dbf_and_load": {("decomposition.py", "decompose")},
    # the five tests read one raw-set summary and one classification per
    # TaskSet, so no test builds its own
    "summarize": {("model.py", "TaskSet.summary")},
    "_classify": {("model.py", "TaskSet.classification")},
    # D-OUR's test takes the three numbers it reads, so no analysis builds
    # a summary record; only the view and its builder name the type
    "TaskSetSummary": {("model.py", "summarize"),
                       ("model.py", "TaskSet.summary")},
}


@pytest.mark.parametrize("name", ONLY)
def test_only_its_owners_read(name):
    paths = [*SRC, *TESTS] if name.startswith("_") else SRC
    assert referrers({path.name: path.read_text() for path in paths},
                     name) == ONLY[name]
