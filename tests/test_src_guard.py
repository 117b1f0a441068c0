"""A guard against code in src that only the tests call.

A module-level function of src/chainext counts as used when its own module
names it outside its own body, when another src module imports it from its
module, or when some src code reaches it as an attribute (`brst_mod.f`).
So a function is flagged even when a function of the same name in another
module is called.  A public method or property of a module-level class
counts as used when src/chainext loads an attribute of its name outside its
own body (`x.name`): the scan does not know the types of the objects a
method is called on.  A bare `Name` never reaches a method, and neither
does a store (`self.name = ...`), so neither counts.  A module-level alias
`NAME = other` (each target of a chained one) counts as used when src
loads NAME, as a name in its own module or as an attribute anywhere, or
when another src module imports it.  It never flags a function that src
does call.  A function kept for another reason is listed in ALLOWED, with one of two
reasons: WRAP_POINT, when perfbench/tracer.py's WRAP_POINTS lists it (read
from that file, which the tests never change), or LIBRARY_API.  Every entry
must still be flagged, so the list holds no stale names.

A second scan refuses an import of an underscore-prefixed name from another
src module: a private helper is used only in its own module.  A third
refuses a name that a src module imports and never loads: a second name
for a class, kept only by its import, is still a second name.  A fourth
keeps the dense reads of a matrix at the file boundary: only `formats`,
which writes matrices as dense text, may load the attribute `rows`, and no
src module loads `mat_vec`, so exactla hands out sparse matrices and
columns and no dense vector.

A last check reads the docs: every backticked dotted name in README.md and
the src/chainext sources that names src code must still exist.  A name
names src code when its first part is a chainext module (`superalg.mul`),
or when that part is capitalised and so taken for a class that some
module must define with the later parts as attributes
(`RatMatrix.diagonal`).  ROADMAP.md is not read, since it names planned
code, and neither is perfbench/README.md, whose dotted names are metric
names (`superalg.mul.calls`).
"""

import ast
import importlib.util
import os
import re
from collections import Counter

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "chainext")

WRAP_POINT = ("a wrap point of perfbench/tracer.py (WRAP_POINTS): "
              "Tracer.install raises 'wrap point ... not found' without it")
LIBRARY_API = ("library API: an entry point of chainext for its users that "
               "the CLI does not call")

ALLOWED = {
    "exactla.RatMatrix.mat_vec": WRAP_POINT,
    "superalg.left_deriv": WRAP_POINT,
    # the inverse of load_extend: it wrote perfbench/inputs/
    "formats.dump_extend": LIBRARY_API,
    # perfbench/sample.py calls it to pick each input's loader
    "formats.read_kind": LIBRARY_API,
}

TRACER = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "perfbench", "tracer.py")


def _definitions(tree):
    """(qualified name, node) of each module-level function and each public
    method of a module-level class."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield node.name, node
        elif isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) \
                        and not sub.name.startswith("_"):
                    yield "%s.%s" % (node.name, sub.name), sub


def _aliases(tree):
    """Each name that a module-level `NAME = other` binds, with each target
    of a chained assignment."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and isinstance(node.value, ast.Name):
            for target in node.targets:
                if isinstance(target, ast.Name):
                    yield target.id


def _name_loads(tree):
    """How often each bare name is loaded in the subtree."""
    return Counter(n.id for n in ast.walk(tree)
                   if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load))


def _names(node):
    """How often each name or attribute is used in the subtree node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _attributes(node, ctx=ast.expr_context):
    """How often each attribute is used in the subtree node, in the given
    context (any by default, ast.Load for the loads alone)."""
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute) and isinstance(n.ctx, ctx))


def _imports(tree):
    """(module, name) of each name the module imports from another one."""
    return {(node.module.rsplit(".", 1)[-1], alias.name)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.module
            for alias in node.names}


def unreferenced(trees):
    """module.qualname of each definition in trees, a {module: ast} dict,
    that nothing in trees uses outside its own body, by the rules above."""
    names = {module: _names(tree) for module, tree in trees.items()}
    attributes = {module: _attributes(tree) for module, tree in trees.items()}
    every_attribute = sum(attributes.values(), Counter())
    every_load = sum((_attributes(tree, ast.Load) for tree in trees.values()),
                     Counter())
    imported = set().union(*map(_imports, trees.values()))
    flagged = set()
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            if "." in qualname:
                used = every_load[name] > _attributes(node, ast.Load)[name]
            else:
                used = (names[module][name] > _names(node)[name]
                        or (module, name) in imported
                        or every_attribute[name] > attributes[module][name])
            if not used:
                flagged.add("%s.%s" % (module, qualname))
        loads = _name_loads(tree)
        for name in _aliases(tree):
            if not (loads[name] or every_load[name]
                    or (module, name) in imported):
                flagged.add("%s.%s" % (module, name))
    return flagged


def _bound_imports(tree):
    """Each name that an import of the module binds, but __future__'s."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import) or (
                isinstance(node, ast.ImportFrom)
                and node.module != "__future__"):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0]


def unloaded_imports(trees):
    """'module imports name' for each name that a module of trees imports
    and never loads."""
    return {"%s imports %s" % (module, name)
            for module, tree in trees.items()
            for name in _bound_imports(tree)
            if not _name_loads(tree)[name]}


def private_imports(trees):
    """'module imports other._name' for each underscore-prefixed name that a
    module of trees imports from another one of them."""
    return {"%s imports %s.%s" % (module, other, name)
            for module, tree in trees.items()
            for other, name in _imports(tree)
            if other in trees and other != module and name.startswith("_")}


DENSE_READER = "formats"


def dense_reads(trees):
    """'module loads .rows' and 'module calls mat_vec' for each module of
    trees but DENSE_READER that loads the attribute rows, or the name or
    attribute mat_vec."""
    out = set()
    for module, tree in trees.items():
        if module == DENSE_READER:
            continue
        loads = _attributes(tree, ast.Load)
        if loads["rows"]:
            out.add("%s loads .rows" % module)
        if loads["mat_vec"] or _name_loads(tree)["mat_vec"]:
            out.add("%s calls mat_vec" % module)
    return out


def misfiled(allowed, wrap_points):
    """Entries of allowed that claim WRAP_POINT but are not in wrap_points
    (module.path strings), and entries with any reason but those two."""
    return {name for name, reason in allowed.items()
            if (name not in wrap_points if reason == WRAP_POINT
                else reason != LIBRARY_API)}


def _wrap_points():
    """module.path of each entry of WRAP_POINTS in perfbench/tracer.py,
    loaded as a module of its own, without putting perfbench on the path."""
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return {"%s.%s" % (module, path)
            for _, module, path, _ in tracer.WRAP_POINTS}


def _src_trees():
    trees = {}
    for fname in sorted(os.listdir(SRC)):
        if fname.endswith(".py"):
            with open(os.path.join(SRC, fname)) as fh:
                trees[fname[:-3]] = ast.parse(fh.read(), fname)
    return trees


def test_no_src_module_imports_a_private_name_of_another():
    assert sorted(private_imports(_src_trees())) == [], \
        "a private helper is used outside its module; make it public or " \
        "move the use"


def test_no_src_module_imports_a_name_it_never_loads():
    assert sorted(unloaded_imports(_src_trees())) == [], \
        "an import that nothing in its module reads; delete it"


def test_only_formats_reads_a_matrix_dense():
    assert sorted(dense_reads(_src_trees())) == [], \
        "a dense read of a matrix outside formats; read it sparse " \
        "(columns, entry) or move it to the file boundary"


def test_the_dense_read_scan_flags_rows_and_mat_vec():
    """A load of .rows and a call of mat_vec, as a method or as a bare
    name, are flagged outside formats; a store to .rows, a rows parameter
    and formats' own load of .rows are not."""
    trees = {"a": ast.parse("def f(m):\n    return m.rows[0]\n"),
             "b": ast.parse("def g(m, v):\n    return m.mat_vec(v)\n"),
             "c": ast.parse("from exactla import mat_vec\n"
                            "def h(m, v):\n    return mat_vec(m, v)\n"),
             "d": ast.parse("class K:\n    def __init__(self, rows):\n"
                            "        self.rows = rows\n"),
             "formats": ast.parse("def dump(m):\n"
                                  "    return [list(r) for r in m.rows]\n")}
    assert dense_reads(trees) == {"a loads .rows", "b calls mat_vec",
                                  "c calls mat_vec"}


def test_every_function_in_src_is_used_by_src():
    flagged = unreferenced(_src_trees())
    assert sorted(flagged - set(ALLOWED)) == [], \
        "only the tests call these; move them into the tests or delete them"
    assert sorted(set(ALLOWED) - flagged) == [], \
        "src now uses these; drop them from ALLOWED"
    assert all(reason.strip() for reason in ALLOWED.values())


def test_each_allowed_entry_is_a_wrap_point_or_library_api():
    assert sorted(misfiled(ALLOWED, _wrap_points())) == [], \
        "a WRAP_POINT entry that perfbench no longer wraps, or another reason"


def test_the_reason_check_flags_a_stale_wrap_point():
    """A WRAP_POINT entry that WRAP_POINTS does not list is flagged, and so
    is an entry with a reason of its own; a listed wrap point and a library
    API entry are not."""
    allowed = {"exactla.RatMatrix.mat_vec": WRAP_POINT,
               "brst.gone": WRAP_POINT,
               "formats.dump_extend": LIBRARY_API,
               "lie.helper": "the tests' reference for something"}
    assert misfiled(allowed, {"exactla.RatMatrix.mat_vec", "exactla.rref"}) \
        == {"brst.gone", "lie.helper"}
    assert "exactla.RatMatrix.mat_vec" in _wrap_points()


def test_the_scan_flags_a_function_only_its_own_body_names():
    """A recursive function that nothing else calls is flagged, and so is a
    public method nothing calls, and a function whose name only a
    same-named function of another module uses; a method called through an
    attribute, a private method, a function imported by another module and
    one reached as a module attribute are not."""
    trees = {"a": ast.parse(
        "def lonely(n):\n    return lonely(n - 1) if n else 0\n\n"
        "def shared():\n    return 0\n\n"
        "def hidden():\n    return 0\n\n"
        "def reached():\n    return 0\n\n"
        "class K:\n    def used(self):\n        return 1\n"
        "    def unused(self):\n        return self.used()\n"
        "    def _private(self):\n        return 2\n"),
        "b": ast.parse("from a import shared\nX = shared()\n\n"
                       "def hidden():\n    return 1\n\nY = hidden()\n"),
        "c": ast.parse("import a\nZ = a.reached()\n"),
        "d": ast.parse("from __future__ import annotations\n"
                       "from a import _helper, shared\n"
                       "from os import _exit\n")}
    assert unreferenced(trees) == {"a.lonely", "a.hidden", "a.K.unused"}
    assert private_imports(trees) == {"d imports a._helper"}


def test_the_scan_counts_only_attribute_loads_for_a_method():
    """A method whose name src uses elsewhere only as a local name, or only
    in an attribute store, is flagged, and so is a property read nowhere; a
    method loaded as an attribute is not."""
    trees = {"a": ast.parse(
        "class K:\n"
        "    def value(self):\n        return 1\n"
        "    @property\n    def antighost(self):\n        return 2\n"
        "    def used(self):\n        return 3\n\n"
        "def f(k):\n    value = 4\n    return value + k.used()\n\n"
        "class G:\n"
        "    def __init__(self):\n        self.antighost = 0\n"),
        "b": ast.parse("from a import f\nX = f(None)\n")}
    assert unreferenced(trees) == {"a.K.value", "a.K.antighost"}


def test_the_scan_flags_an_alias_only_the_tests_read():
    """Both targets of a chained alias that nothing in src reads are
    flagged; an alias loaded in its own module, one imported by another
    module and one reached as a module attribute are not."""
    trees = {"a": ast.parse("class K:\n    pass\n\n"
                            "T = S = K\nU = K\nV = K\nW = V\n"),
             "b": ast.parse("from a import U\nimport a\nX = a.W\n")}
    assert unreferenced(trees) == {"a.T", "a.S"}


def test_the_import_scan_flags_a_name_never_loaded():
    """A name that a from-import, an aliased import or a plain import binds
    and the module never loads is flagged; one loaded in a body, in an
    annotation or as the base of an attribute is not, and neither is a
    __future__ feature."""
    trees = {"a": ast.parse(
        "from __future__ import annotations\n"
        "from os import path, sep\nfrom b import K as L, M\n"
        "import re\nimport json\nimport os.path\n\n"
        "def f(x: L) -> None:\n    return path.join(x, re.escape(sep))\n"),
        "b": ast.parse("class K:\n    pass\n\nM = K\n")}
    assert unloaded_imports(trees) == {"a imports M", "a imports json",
                                       "a imports os"}


# -- backticked names in the docs ---------------------------------------------

README = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                      "README.md")

DOTTED = re.compile(r"`([A-Za-z_]\w*(?:\.[A-Za-z_]\w*)+)`")


def _resolves(obj, parts):
    for part in parts:
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def doc_names(text, modules):
    """{name: whether it exists} for each backticked dotted name of text
    that names src code, by the rules above; modules is {name: module}."""
    out = {}
    for name in DOTTED.findall(text):
        first, *rest = name.split(".")
        if first in modules:
            out[name] = _resolves(modules[first], rest)
        elif first[0].isupper():
            out[name] = any(
                isinstance(getattr(m, first, None), type)
                and _resolves(getattr(m, first), rest)
                for m in modules.values())
    return out


def _src_modules():
    return {name: importlib.import_module("chainext." + name)
            for name in _src_trees() if name != "__init__"}


def test_every_src_name_the_docs_backtick_exists():
    modules = _src_modules()
    paths = [README] + [os.path.join(SRC, fname)
                        for fname in sorted(os.listdir(SRC))
                        if fname.endswith(".py")]
    names = {}
    for path in paths:
        with open(path) as fh:
            names.update(doc_names(fh.read(), modules))
    assert names, "the scan found no name to check"
    assert sorted(name for name, ok in names.items() if not ok) == [], \
        "the docs name src code that no longer exists; rename or delete it"


def test_the_docs_scan_flags_a_stale_name():
    """A deleted function, an attribute of a deleted class and a missing
    attribute of a kept class are flagged; a module-qualified and a
    class-qualified name that exist are not, and a lowercase first part
    that is not a chainext module (a stdlib module, a local variable, a
    file name) is not read."""
    text = ("`superalg.Derivation.image` and `superalg._derivatives`; "
            "`GradedMap.total_matrix`, `RatMatrix.diagonal` and "
            "`ChainExtension.rank_of`; `fractions.Fraction`, `x.name` and "
            "`test_output.txt`")
    assert doc_names(text, _src_modules()) == {
        "superalg.Derivation.image": True, "superalg._derivatives": False,
        "GradedMap.total_matrix": False, "RatMatrix.diagonal": True,
        "ChainExtension.rank_of": False}
