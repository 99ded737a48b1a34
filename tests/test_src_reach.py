"""Every def in `src/rootfold` runs on a product path: the command line.

The guard runs the golden cases of `tests/test_golden.py`, and two exit-2
cases that raise the library's input-error types (a `--tau` that is not a
permutation, a `--datum` file with a malformed value), through `cli.main` in
this process under `sys.setprofile`, and records every code object called.
The process-wide tables are emptied first (`conftest.empty_tables`), so no
build is skipped because an earlier test cached its result, and every module
is imported first, so what runs at import time counts the same in any test
order.

The defs are the code objects of functions and methods at any depth, nested
defs and dunders included, found by compiling each module; a call matches a
def by file, first line and name, so two defs that share a bare name are
told apart.  A def that no case calls is dead, or reached only by tests and
belongs beside them, unless `ALLOWED` names it with its reason.  A reason
starts with its kind:

* "README": API that README.md documents for library users;
* "contract": the value contract (equality, hashing, pickling) or a repr;
* "benchmarks": a name that a file under `benchmarks/` uses, or read only
  by the backquoted def that is such a name; these leave with ROADMAP
  item 1;
* "fault path": code that runs only when a check fails, which tests drive
  by patching the library.
"""

import contextlib
import importlib
import importlib.util
import inspect
import io
import json
import os
import pathlib
import re
import sys
import types

import pytest

from rootfold import cli

from conftest import empty_tables
from test_golden import CASES

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "rootfold"
ROOT = SRC.parent.parent

# qualified name -> why it stays although no command-line case calls it
ALLOWED = {
    "folding.RootSystemV.roots": "README: a Fraction view",
    "folding.RootSystemV.coords": "README: a Fraction view",
    "folding.RootSystemV.gram": "README: a Fraction view",
    "folding.RootSystemV.positive_roots": "README: a Fraction view",
    "lattice.CoinvariantLattice.section_vector": "README: a Fraction view",
    "rootdata.BasedRootDatum.gram": "README: the invariant form, a Fraction view",
    "rootdata.BasedRootDatum.gram_star": "README: the dual form, a Fraction view",
    "rootdata.BasedRootDatum.dual": "README: the dual datum",
    "rootdata.BasedRootDatum.to_json": "README: the datum JSON schema",
    "lattice.action_to_json": "README: the lattice action JSON schema",
    "lattice.action_from_json": "README: the lattice action JSON schema",
    "rootdata.classify_cartan": "README: the Cartan type of a matrix",
    "rootdata.BasedRootDatum.__reduce__":
        "contract: copies and unpickling return the interned datum",
    "ring.LaurentPoly.__eq__": "contract: a polynomial equals its value",
    "ring.LaurentPoly.__hash__": "contract: a polynomial hashes like its value",
    "ring.LaurentPoly.__repr__": "contract: a readable repr",
    "folding.RootSystemV.__repr__": "contract: a readable repr",
    "hecke.BernsteinElement.__repr__": "contract: a readable repr",
    "lattice.CoinvariantElement.__repr__": "contract: a readable repr",
    "folding.RootSystemV.__init__": "benchmarks: tracer.py wraps it",
    "hecke.HeckeAlgebra.bar_basis": "benchmarks: tracer.py wraps it",
    "hecke._PackedRows.row":
        "benchmarks: read only by `hecke.HeckeAlgebra.bar_basis`",
    "rootdata.BasedRootDatum.two_rho_pairing": "benchmarks: workloads.py calls it",
    "hecke._PackedRows.tighten":
        "fault path: a row bound near the digit size, driven by patching "
        "KL_DIGIT_BITS",
    "verify._fmt_mu": "fault path: a FAIL line, driven by patching a check",
}

KINDS = ("README", "contract", "benchmarks", "fault path")


def code_key(code):
    return (os.path.realpath(code.co_filename), code.co_firstlineno,
            code.co_name)


def defs_in(path, module):
    """{code_key: qualified name} of every function and method, at any
    depth, in the module file at `path`; lambdas and comprehensions are
    not defs, but defs inside them are found under their enclosing name."""
    found = {}

    def walk(code, prefix):
        for c in code.co_consts:
            if isinstance(c, types.CodeType):
                named = not c.co_name.startswith("<")
                qual = prefix + "." + c.co_name if named else prefix
                if named and c.co_flags & inspect.CO_OPTIMIZED:
                    found[code_key(c)] = qual
                walk(c, qual)

    path = os.path.realpath(path)
    with open(path) as fh:
        walk(compile(fh.read(), path, "exec"), module)
    return found


def package_defs():
    out = {}
    for path in sorted(SRC.glob("*.py")):
        out.update(defs_in(path, path.stem))
    return out


def called_during(run):
    """The code keys of every Python function called while run() runs."""
    codes = set()

    def profile(frame, event, _arg):
        if event == "call":
            codes.add(frame.f_code)

    previous = sys.getprofile()
    sys.setprofile(profile)
    try:
        run()
    finally:
        sys.setprofile(previous)
    return {code_key(c) for c in codes}


def unreached(defs, reached):
    return {qual for key, qual in defs.items() if key not in reached}


def cli_cases(tmp_path):
    """(expected exit code, argv): the golden cases, then the exit-2 cases."""
    datum = tmp_path / "malformed-datum.json"
    datum.write_text(json.dumps({"rank": 2, "simple_roots": 5,
                                 "simple_coroots": [[2, -1], [-1, 2]]}))
    return ([(0, CASES[name]) for name in sorted(CASES)]
            + [(2, ["fold", "--type", "A2", "--tau", "0,0"]),
               (2, ["fold", "--datum", str(datum)])])


@pytest.fixture(scope="module")
def cli_unreached(tmp_path_factory):
    """The qualified names of the package's defs that no case calls."""
    cases = cli_cases(tmp_path_factory.mktemp("reach"))
    for path in SRC.glob("*.py"):
        if path.stem != "__init__":
            importlib.import_module("rootfold." + path.stem)
    codes = []

    def run():
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            for _code, argv in cases:
                codes.append(cli.main(list(argv)))

    with pytest.MonkeyPatch.context() as mp:
        empty_tables(mp)
        reached = called_during(run)
    assert codes == [code for code, _argv in cases]
    return unreached(package_defs(), reached)


def test_every_def_in_src_is_reached_from_src(cli_unreached):
    assert cli_unreached - set(ALLOWED) == set(), sorted(cli_unreached - set(ALLOWED))


def test_allowlist_names_only_unreached_defs(cli_unreached):
    """An allowlisted def that a case now calls, or that is gone, leaves the
    list."""
    assert set(ALLOWED) - cli_unreached == set()


def _mentions(text, name):
    return re.search(r"(?<!\w)%s(?!\w)" % re.escape(name), text) is not None


def _resolve(qual):
    module, *attrs = qual.split(".")
    obj = importlib.import_module("rootfold." + module)
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_allowlist_reasons_hold():
    """A README reason names a def that README.md mentions; a benchmarks
    reason names one that a file under benchmarks/ mentions (a dunder as
    Class.__name__), or a backquoted allowlisted def that reads it and is
    such a name."""
    readme = (ROOT / "README.md").read_text()
    bench = "\n".join(p.read_text() for p in sorted((ROOT / "benchmarks").iterdir())
                      if p.is_file())
    for qual, reason in ALLOWED.items():
        kind, _sep, _why = reason.partition(":")
        assert kind in KINDS, (qual, reason)
        name = qual.rsplit(".", 1)[1]
        if kind == "README":
            assert _mentions(readme, name), qual
        elif kind == "benchmarks":
            reader = re.search(r"`([\w.]+)`", reason)
            if reader:
                reader = reader.group(1)
                assert ALLOWED.get(reader, "").startswith("benchmarks:"), qual
                source = inspect.getsource(_resolve(reader))
                assert re.search(r"\.%s(?!\w)" % name, source), qual
                qual = reader
                name = qual.rsplit(".", 1)[1]
            if name.startswith("__"):
                name = qual.split(".", 1)[1]
            assert _mentions(bench, name), qual


SYNTHETIC = '''
class Box:
    def __init__(self, n):
        self.n = n

    def scale(self, k):
        return Box(self.n * k)

    def __add__(self, other):
        return Box(self.n + other.n)


class Bag:
    def __init__(self, items):
        self.items = items

    def scale(self, k):
        return Bag([x * k for x in self.items])


def run():
    return Bag([Box(1).n]).scale(2)
'''


def test_trace_flags_an_unreached_def(tmp_path):
    """Negative control: a module whose run() calls Bag.scale is flagged for
    Box.scale, which shares that bare name, and for the dunder Box.__add__:
    the two shapes that a scan by bare name, skipping dunders, let pass."""
    path = tmp_path / "synthetic.py"
    path.write_text(SYNTHETIC)
    spec = importlib.util.spec_from_file_location("synthetic", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    reached = called_during(module.run)
    assert unreached(defs_in(path, "synthetic"), reached) == {
        "synthetic.Box.scale", "synthetic.Box.__add__"}
