"""The library keeps only code the system runs, and one copy of each kernel.

Every top-level def and class under src/polycrep must be named (as a Name
or an Attribute) somewhere in the package outside its own body, and every
method of a top-level class but a dunder as an Attribute: a function whose
only callers are tests belongs in the tests (second routes live in
tests/routes.py).  One function drives the double-description step, one
walks an S_n-orbit of family masks, and one finds the maximal faces of a
family mask.  Inside the library a subset is a subset mask, and one row
builder writes the H-form θ >= 0, v_I >= 0 of the paper's cones.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "polycrep"

EXCEPTIONS = {
    # the element-set reader interface of Complex: how a reader names a
    # complex by its faces, which the library itself reads as masks
    ("complexes", "Complex.from_faces"),
    ("complexes", "Complex.maximal_faces"),
    ("complexes", "Complex.member"),
}


def _modules() -> dict:
    return {p.stem: ast.parse(p.read_text(), str(p))
            for p in sorted(SRC.glob("*.py"))}


def _references(tree, skip=None, names=True) -> set:
    """Every Name id (unless not names) and Attribute attr in tree, outside
    the node skip."""
    out = set()
    todo = [tree]
    while todo:
        node = todo.pop()
        if node is skip:
            continue
        if names and isinstance(node, ast.Name):
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


def _methods(cls: ast.ClassDef):
    """The methods of a class but its dunders."""
    return (m for m in cls.body if isinstance(m, ast.FunctionDef)
            and not (m.name.startswith("__") and m.name.endswith("__")))


def test_every_definition_has_a_library_reference():
    modules = _modules()
    defined = set()
    unreferenced = []
    for mod, node in _definitions(modules):
        entries = [(node.name, node, True)]
        if isinstance(node, ast.ClassDef):
            entries += [(f"{node.name}.{m.name}", m, False)
                        for m in _methods(node)]
        for name, defn, names in entries:
            defined.add((mod, name))
            if (mod, name) in EXCEPTIONS:
                continue
            if not any(defn.name in _references(tree, defn, names)
                       for tree in modules.values()):
                unreferenced.append(f"{mod}.{name}")
    assert not unreferenced, unreferenced
    assert EXCEPTIONS <= defined, EXCEPTIONS - defined


def _functions(modules: dict) -> dict:
    """Every top-level definition as module.name, and every method of a
    top-level class as module.Class.name."""
    functions = {}
    for mod, node in _definitions(modules):
        functions[f"{mod}.{node.name}"] = node
        if isinstance(node, ast.ClassDef):
            functions.update((f"{mod}.{node.name}.{m.name}", m)
                             for m in node.body
                             if isinstance(m, ast.FunctionDef))
    return functions


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
    share it.  Besides _swap_adjacent, the walk, which reads the swap
    tables once, and arrangements._sorted_pieces, which reads stabilisers
    off runs, are the only ones that exchange elements."""
    modules = _modules()
    callers = sorted(f"{mod}.{node.name}"
                     for mod, node in _definitions(modules)
                     if {"_swap_adjacent", "_swap_tables"}
                     & set(_called_names(node)))
    assert callers == ["arrangements._sorted_pieces", "complexes._orbits",
                       "complexes._swap_adjacent"]
    defined = {node.name for _, node in _definitions(modules)}
    assert "enumerate_max_biconnected" not in defined


def test_census_runs_no_projectivity_certificate():
    """The census bank assembles each witness from the rays of the
    chamber-orbit split: hyper_cones converts no cone to rays and runs no
    projectivity certificate, which stays the independent route."""
    called = set(_called_names(_modules()["hyper_cones"]))
    assert not called & {"h_to_v", "projectivity_witness"}


def test_one_maximal_face_kernel():
    """complexes._maximal_face_ranks is the one maximal-face kernel, and
    complexes the one module that knows the member-tuple order of faces:
    no other module reads the _lacking masks, _maximal_faces_of_mask maps
    the kernel's ranks to masks, and the NDJSON writer, Complex's two face
    methods and projectivity_witness reach faces through the kernel, with
    no sort of their own."""
    modules = _modules()
    readers = sorted(mod for mod, tree in modules.items()
                     if "_lacking" in _references(tree))
    assert readers == ["complexes"]
    functions = _functions(modules)
    users = sorted(name for name, node in functions.items()
                   if "_maximal_face_ranks" in _references(node))
    assert users == ["cli._write_ndjson", "complexes._maximal_faces_of_mask"]
    for name in ("cli._write_ndjson", "complexes.Complex.maximal_faces",
                 "complexes.Complex.from_faces",
                 "bunches.projectivity_witness"):
        node = functions[name]
        assert _references(node) & {"_maximal_face_ranks",
                                    "_maximal_faces_of_mask"}, name
        assert not {"sort", "sorted"} & set(_called_names(node)), name


def test_subsets_are_masks():
    """A subset inside the library is a subset mask.  Only complexes reads
    element sets (mask_of), for Complex's face interface; frozensets are
    built only by Complex.maximal_faces, which names faces for a reader (a
    Bunch, a frozenset of partitions, is a value of the tests' second
    routes).  v_I is defined once, and _pair_reps takes its order from
    _face_order instead of sorting."""
    modules = _modules()
    readers = sorted(mod for mod, tree in modules.items()
                     if "mask_of" in _called_names(tree))
    assert readers == ["complexes"]
    functions = _functions(modules)
    builders = sorted(name for name, node in functions.items()
                      if isinstance(node, ast.FunctionDef)
                      and "frozenset" in _called_names(node))
    assert builders == ["complexes.Complex.maximal_faces"]
    v_defs = [mod for mod, tree in modules.items() for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and node.name == "v_I"]
    assert v_defs == ["complexes"]
    assert not {"sort", "sorted"} & set(
        _called_names(functions["complexes._pair_reps"]))


def test_one_cone_row_builder():
    """complexes.cone_rows writes θ >= 0 and v_I >= 0 for the orthant, C_0,
    ω_P, A(n) and Φ_Δ's common part; only arrangements._sorted_pieces,
    whose sorted cone has rows θ_i − θ_{i+1} of another form, calls v_I
    besides it.  The per-module row builders and the unchecked Ψ test are
    gone."""
    modules = _modules()
    callers = sorted(name for name, node in _functions(modules).items()
                     if "v_I" in _called_names(node))
    assert callers == ["arrangements._sorted_pieces", "complexes.cone_rows"]
    defined = {node.name for _, node in _definitions(modules)}
    assert not defined & {"_cone_rows", "_psi_member"}


def test_no_generated_code():
    """The library runs only the code it is written in: no module calls
    exec, eval or compile, by name or as an attribute (builtins.exec)."""
    calls = {mod: sorted({"exec", "eval", "compile"}
                         & set(_called_names(tree)))
             for mod, tree in _modules().items()}
    assert not any(calls.values()), calls
