"""In-memory tracing of rootfold's layers, installed from outside the library.

`Tracer.install()` replaces public functions and methods of rootfold's
modules with timing wrappers:

* a method is wrapped on its class (so subclasses and `super()` calls see
  the wrapper);
* a module function is wrapped in every rootfold module whose namespace
  holds it, because `from .x import f` copies the binding.

Every wrapped call pushes a frame, so each name gets a call count, an
inclusive time (outermost call only, so recursion is not counted twice) and
a self time (inclusive minus the time of wrapped calls nested inside it).
Most names also record a span (name, start, end, parent span, op); the hot
engine calls (marked in `TARGETS`) record no span, only the count and times.  Spans stay
in memory; `dump()` returns them for writing out when the run ends.
"""

from __future__ import annotations

import importlib
import time

MODULES = ("linalg", "lattice", "rootdata", "folding", "echelonnage",
           "affine", "characters", "hecke", "testfn", "ring", "presets",
           "verify", "cli")

# (name, module, attribute path, hot).  A dotted attribute is Class.method.
TARGETS = (
    ("folding.closure", "folding", "RootSystemV.__init__", False),
    ("folding.verify_duality", "folding", "verify_duality", False),
    ("folding.fold", "folding", "fold", False),
    ("echelonnage.build", "echelonnage", "EchelonnageData.__init__", False),
    ("echelonnage.parameter_function", "echelonnage",
     "EchelonnageData.parameter_function", False),
    ("affine.build_affine", "affine", "build_affine", False),
    ("affine.build_tau_fixed", "affine", "build_tau_fixed", False),
    ("affine.length", "affine", "ExtendedAffineWeyl.length", True),
    ("affine.multiply", "affine", "ExtendedAffineWeyl.multiply", True),
    ("affine.normal_form", "affine", "ExtendedAffineWeyl.normal_form", True),
    ("affine.lower_interval", "affine", "ExtendedAffineWeyl.lower_interval",
     False),
    ("affine.verify_extremal", "affine", "verify_extremal", False),
    ("hecke.center_build", "hecke", "CenterContext.__init__", False),
    ("hecke.bar_basis", "hecke", "HeckeAlgebra.bar_basis", True),
    ("hecke.kl_table", "hecke", "HeckeAlgebra.kl_table", False),
    ("hecke.kl_route", "hecke", "CenterContext.geometric_basis_kl", False),
    ("characters.freudenthal", "characters", "freudenthal", False),
    ("characters.context_build", "characters", "CharacterContext.__init__",
     False),
    ("characters.twining_route", "hecke", "CenterContext.geometric_basis",
     False),
    ("characters.branching", "characters", "CharacterContext.branching",
     False),
    ("testfn.z_v_star", "testfn", "z_v_star_1j", False),
    ("testfn.descent", "testfn", "ramified_descent_check", False),
    ("testfn.test_function", "testfn", "test_function", False),
    ("lattice.group_closure", "lattice", "group_closure", False),
    ("lattice.coinvariants", "lattice", "coinvariants", False),
    ("presets.build", "presets", "Preset.__init__", False),
)


def _closure_key(self, base, gram, label=""):
    return (tuple(tuple(b) for b in base), tuple(tuple(r) for r in gram))


def _bar_basis_key(self, x):
    return (self.engine.label, tuple(sorted(self.weights.items())), x)


# name -> function of the call's arguments giving the identity of its work
DISTINCT = {
    "folding.closure": _closure_key,
    "hecke.bar_basis": _bar_basis_key,
}


class Tracer:
    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.incl_s = {}
        self.distinct = {name: set() for name in DISTINCT}
        self.interval_size_max = 0
        self.op_interval_max = {}
        self.spans = []
        self.op = None
        self.children = empty_summary()
        self._stack = []
        self._depth = {}

    # -- installation ----------------------------------------------------

    def install(self):
        mods = {m: importlib.import_module("rootfold." + m) for m in MODULES}
        for name, mod, attr, hot in TARGETS:
            owner_name, _, meth = attr.rpartition(".")
            if owner_name:
                owner = getattr(mods[mod], owner_name)
                orig = owner.__dict__[meth]
                setattr(owner, meth, self._wrap(name, orig, hot))
            else:
                orig = getattr(mods[mod], attr)
                wrapper = self._wrap(name, orig, hot)
                for m in mods.values():
                    if m.__dict__.get(attr) is orig:
                        setattr(m, attr, wrapper)


    def _wrap(self, name, fn, hot):
        self.calls[name] = 0
        self.self_s[name] = 0.0
        self.incl_s[name] = 0.0
        self._depth[name] = 0
        stack = self._stack
        depth = self._depth
        calls = self.calls
        self_s = self.self_s
        incl_s = self.incl_s
        spans = self.spans
        keyfn = DISTINCT.get(name)
        seen = self.distinct.get(name)
        is_interval = name == "affine.lower_interval"
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if keyfn is not None:
                seen.add(keyfn(*args, **kwargs))
            parent = stack[-1] if stack else None
            # frame: [nested wrapped time, span index of this frame or the
            # nearest enclosing span]
            if hot:
                frame = [0.0, parent[1] if parent else None]
            else:
                frame = [0.0, len(spans)]
                spans.append([name, 0.0, 0.0,
                              parent[1] if parent else None, self.op])
            stack.append(frame)
            depth[name] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                depth[name] -= 1
                dur = t1 - t0
                calls[name] += 1
                self_s[name] += dur - frame[0]
                if depth[name] == 0:
                    incl_s[name] += dur
                if parent is not None:
                    parent[0] += dur
                if not hot:
                    span = spans[frame[1]]
                    span[1] = t0
                    span[2] = t1
            if is_interval:
                size = len(out)
                self.interval_size_max = max(self.interval_size_max, size)
                if size > self.op_interval_max.get(self.op, 0):
                    self.op_interval_max[self.op] = size
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- results ---------------------------------------------------------

    def summary(self):
        """Counts and times, additive across processes (see `merge`)."""
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "incl_s": dict(self.incl_s),
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "interval_size_max": self.interval_size_max,
        }

    def dump(self):
        return {"summary": self.summary(), "spans": self.spans}

    def add_child(self, op, dump):
        """Fold in the `dump()` of a traced child process that ran `op`."""
        merge(self.children, dump["summary"])
        base = len(self.spans)
        for name, t0, t1, parent, _op in dump["spans"]:
            self.spans.append([name, t0, t1,
                               None if parent is None else parent + base, op])

    def totals(self):
        """This process's summary plus those of its traced children."""
        return merge(merge(empty_summary(), self.summary()), self.children)


def merge(total, part):
    """Add one process's `Tracer.summary()` into another (in place).

    Distinct counts add up: processes share no state, so work repeated in
    two of them is done twice."""
    for key in ("calls", "self_s", "incl_s", "distinct"):
        for name, val in part[key].items():
            total[key][name] = total[key].get(name, 0) + val
    total["interval_size_max"] = max(total["interval_size_max"],
                                     part["interval_size_max"])
    return total


def empty_summary():
    return {"calls": {}, "self_s": {}, "incl_s": {}, "distinct": {},
            "interval_size_max": 0}
