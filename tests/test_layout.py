"""The library keeps only code the system runs, and one copy of each kernel.

Every top-level def and class under src/polycrep must be named (as a Name
or an Attribute) somewhere in the package outside its own body: a function
whose only callers are tests belongs in the tests (second routes live in
tests/routes.py).  One function drives the double-description step, and
one walks an S_n-orbit of family masks.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "polycrep"

EXCEPTIONS = {
    # the console entry point: pyproject's [project.scripts] calls it
    ("cli", "main"),
    # the validating public entry over the unchecked _psi_member, which
    # crosscheck runs directly; folding the two slows psi_suite by a third
    ("hyper_cones", "psi_membership"),
}


def _modules() -> dict:
    return {p.stem: ast.parse(p.read_text(), str(p))
            for p in sorted(SRC.glob("*.py"))}


def _references(tree, skip=None) -> set:
    """Every Name id and Attribute attr in tree, outside the node skip."""
    out = set()
    todo = [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        todo.extend(ast.iter_child_nodes(node))
    return out


def _definitions(modules: dict):
    for mod, tree in modules.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                 ast.ClassDef)):
                yield mod, node


def test_every_definition_has_a_library_reference():
    modules = _modules()
    defined = set()
    unreferenced = []
    for mod, node in _definitions(modules):
        defined.add((mod, node.name))
        if (mod, node.name) in EXCEPTIONS:
            continue
        if not any(node.name in _references(tree, node)
                   for tree in modules.values()):
            unreferenced.append(f"{mod}.{node.name}")
    assert not unreferenced, unreferenced
    assert EXCEPTIONS <= defined, EXCEPTIONS - defined


def _called_names(tree) -> list:
    """The name of every function called in tree, bare or as an attribute."""
    return [node.func.id if isinstance(node.func, ast.Name)
            else node.func.attr
            for node in ast.walk(tree) if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))]


def test_one_double_description_driver():
    """dd_cut has one caller, ratgeom.dd_regions, which h_to_v and every
    region split share: arrangements splits a cone from its facets and
    never converts it to rays first.  Every run starts from one
    elimination, dd_start's, and arrangements makes none of its own."""
    modules = _modules()
    callers = [f"{mod}.{node.name}" for mod, node in _definitions(modules)
               if "dd_cut" in _called_names(node)]
    assert callers == ["ratgeom.dd_regions"]
    assert "h_to_v" not in _called_names(modules["arrangements"])
    assert "row_reduce" not in _called_names(modules["arrangements"])
    start, = (node for mod, node in _definitions(modules)
              if (mod, node.name) == ("ratgeom", "dd_start"))
    assert _called_names(start).count("row_reduce") == 1
    names = set().union(*map(_references, modules.values()))
    names |= {node.name for _, node in _definitions(modules)}
    assert not names & {"independent_rows", "simplicial_rays"}


def test_one_orbit_walk():
    """complexes._orbits is the one walk over an S_n-orbit of family
    masks: the λ orbit sum, the census witness bank and `bunches classify`
    share it, and only chamber_orbits, which reads stabilisers off runs,
    exchanges elements itself."""
    modules = _modules()
    callers = sorted(f"{mod}.{node.name}"
                     for mod, node in _definitions(modules)
                     if "_swap_adjacent" in _called_names(node))
    assert callers == ["arrangements.chamber_orbits", "complexes._orbits"]
    defined = {node.name for _, node in _definitions(modules)}
    assert "enumerate_max_biconnected" not in defined
