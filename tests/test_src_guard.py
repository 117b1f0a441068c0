"""A guard against code in src that only the tests call.

A module-level function of src/chainext counts as used when its own module
names it outside its own body, when another src module imports it from its
module, or when some src code reaches it as an attribute (`brst_mod.f`).
So a function is flagged even when a function of the same name in another
module is called.  A public method of a module-level class counts as used
when its name occurs anywhere in src/chainext outside its own body (a
`Name` or an attribute): the scan does not know the types of the objects a
method is called on.  It never flags a function that src does call.  A
function kept for another reason is listed in ALLOWED, with that reason;
every entry must still be flagged, so the list holds no stale names.

A second scan refuses an import of an underscore-prefixed name from another
src module: a private helper is used only in its own module.
"""

import ast
import os
from collections import Counter

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir,
                   "src", "chainext")

WRAP_POINT = ("a wrap point of perfbench/tracer.py (WRAP_POINTS): "
              "Tracer.install raises 'wrap point ... not found' without it")

ALLOWED = {
    "exactla.RatMatrix.mat_vec": WRAP_POINT,
    "superalg.left_deriv": WRAP_POINT,
    "brst.longitudinal_d": "the SuperPoly operator d: the tests' reference "
                           "for the d blocks and the l2 rule",
    "brst.nbar": "the SuperPoly operator Nbar: the tests' reference for the "
                 "diagonal in verify_brst_resolution",
    "brst.lambda_tilde": "lambda~ = 1 + delta s on SuperPoly: the tests' "
                         "reference for the degree-0 homotopy identity",
    "brst.eta_project": "the SuperPoly operator eta: the tests' reference "
                        "for the projection in verify_per_monomial and for "
                        "the eta matrix of export_to_complexes",
    "brst.export_to_complexes": "the engine data of a system: the tests and "
                                "the acceptance criteria run chain_extend on "
                                "it against build_brst, and the frozen bench "
                                "inputs are its dumps",
    "bv.Theorem8Maps.apply_S": "S = l1 + l2 + l3 on a (degree-0, degree-1) "
                               "pair: the tests' reference for S^2 = 0",
    "formats.dump_extend": "library API, the inverse of load_extend: it "
                           "wrote perfbench/inputs/",
    "lie.Cochain.eval": "dense evaluation: the tests' instrument for "
                        "checking the sparse cochain layer",
    "series.Series.tshift": "multiplication by t^k: the tests' instrument "
                            "for t-linearity",
    "shlie.to_homotopy_data": "the engine data of an sh-Lie structure, as "
                              "bv.to_homotopy_data is of a BV model: the "
                              "tests verify it and round-trip it through "
                              "dump_extend; crosscheck_with_engine builds "
                              "it inline to keep its two bases",
}


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


def _names(node):
    """How often each name or attribute is used in the subtree node."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def _attributes(node):
    """How often each attribute is used in the subtree node."""
    return Counter(n.attr for n in ast.walk(node)
                   if isinstance(n, ast.Attribute))


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
    every_name = sum(names.values(), Counter())
    every_attribute = sum(attributes.values(), Counter())
    imported = set().union(*map(_imports, trees.values()))
    flagged = set()
    for module, tree in trees.items():
        for qualname, node in _definitions(tree):
            name = qualname.rsplit(".", 1)[-1]
            inside = _names(node)[name]
            if "." in qualname:
                used = every_name[name] > inside
            else:
                used = (names[module][name] > inside
                        or (module, name) in imported
                        or every_attribute[name] > attributes[module][name])
            if not used:
                flagged.add("%s.%s" % (module, qualname))
    return flagged


def private_imports(trees):
    """'module imports other._name' for each underscore-prefixed name that a
    module of trees imports from another one of them."""
    return {"%s imports %s.%s" % (module, other, name)
            for module, tree in trees.items()
            for other, name in _imports(tree)
            if other in trees and other != module and name.startswith("_")}


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


def test_every_function_in_src_is_used_by_src():
    flagged = unreferenced(_src_trees())
    assert sorted(flagged - set(ALLOWED)) == [], \
        "only the tests call these; move them into the tests or delete them"
    assert sorted(set(ALLOWED) - flagged) == [], \
        "src now uses these; drop them from ALLOWED"
    assert all(reason.strip() for reason in ALLOWED.values())


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
