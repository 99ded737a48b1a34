"""Every function and method in `src/rootfold` is reached from `src/`.

A def that no other code in the package names is either dead or reached
only by tests, and belongs beside those tests.  The scan is by name: a def
counts as referenced when some `Name` or `Attribute` outside its own body
carries its name, so a name shared with another def or a builtin method
hides it, and the check errs towards passing.  Dunder methods are reached
by the language, and the allowlist names what the package keeps for
callers outside it.
"""

import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rootfold"

# qualified name -> why it stays although nothing in src/ calls it
ALLOWED = {
    "hecke.HeckeAlgebra.bar_basis": "benchmarks/tracer.py wraps it by name",
    "rootdata.BasedRootDatum.two_rho_pairing": "benchmarks/workloads.py calls it",
    "rootdata.classify_cartan": "library API: the Cartan type of a matrix",
    "lattice.CoinvariantLattice.section_vector": "README: a Fraction view",
    "folding.RootSystemV.positive_roots": "README: a Fraction view",
    "lattice.action_to_json": "README: the lattice action JSON schema",
    "lattice.action_from_json": "README: the lattice action JSON schema",
    # the ring arithmetic of LaurentPoly, which only the dict references of
    # the tests use; whether it stays depends on ROADMAP item 10
    "ring.LaurentPoly.bar": "ring arithmetic (ROADMAP item 10)",
    "ring.LaurentPoly.negative_part": "ring arithmetic (ROADMAP item 10)",
    "ring.LaurentPoly.constant_term": "ring arithmetic (ROADMAP item 10)",
    "ring.LaurentPoly.is_zero": "ring arithmetic (ROADMAP item 10)",
    "ring.LaurentPoly.v_power": "ring arithmetic (ROADMAP item 10)",
}


def unreferenced_defs(sources):
    """The qualified names ("module.f", "module.Class.f") of the module-level
    functions and methods in `sources` ({module name: source text}) whose
    name no `Name` or `Attribute` outside their own body carries; dunder
    methods are skipped."""
    defs = []
    refs = []
    for module, text in sorted(sources.items()):
        tree = ast.parse(text)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                defs.append((module + "." + node.name, node))
            elif isinstance(node, ast.ClassDef):
                defs.extend(("%s.%s.%s" % (module, node.name, item.name), item)
                            for item in node.body if isinstance(item, ast.FunctionDef))
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                refs.append((n.id, n))
            elif isinstance(n, ast.Attribute):
                refs.append((n.attr, n))
    out = set()
    for qual, node in defs:
        name = node.name
        if name.startswith("__") and name.endswith("__"):
            continue
        inside = {id(n) for n in ast.walk(node)}
        if not any(r == name and id(n) not in inside for r, n in refs):
            out.add(qual)
    return out


def package_sources():
    return {path.stem: path.read_text() for path in SRC.glob("*.py")}


def test_every_def_in_src_is_reached_from_src():
    found = unreferenced_defs(package_sources())
    assert found - set(ALLOWED) == set(), sorted(found - set(ALLOWED))


def test_allowlist_names_only_unreferenced_defs():
    """An allowlisted name that src/ now calls, or that is gone, leaves the
    list."""
    assert set(ALLOWED) <= unreferenced_defs(package_sources())


def test_scan_flags_an_unreferenced_def():
    """Negative control: a module with one unreferenced function and one
    unreferenced method, beside the package, is flagged for those two only;
    recursion and a call from the same module's other def do not hide or
    flag anything."""
    sources = package_sources()
    sources["synthetic"] = (
        "def orphan(n):\n"
        "    return orphan(n - 1) if n else helper()\n\n\n"
        "def helper():\n"
        "    return 0\n\n\n"
        "class Box:\n"
        "    def __eq__(self, other):\n"
        "        return True\n\n"
        "    def lonely_method(self):\n"
        "        return 1\n")
    found = {q for q in unreferenced_defs(sources) if q.startswith("synthetic.")}
    assert found == {"synthetic.orphan", "synthetic.Box.lonely_method"}
