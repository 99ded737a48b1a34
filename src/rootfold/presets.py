"""Preset local group data, shipped as JSON files next to this module.

A preset names a based root datum, inertia generators, a Frobenius, optional
parameter overrides, and (for tower presets) the smaller inertia of the
totally ramified step.  Loading is deterministic and validated.
"""

from __future__ import annotations

import json
import os

from .echelonnage import LocalGroupDatum
from .rootdata import (
    BasedRootDatum,
    build_datum,
    diagram_automorphism,
    gl_datum,
    pinned_cochar,
    unitary_dual_action,
)

_PRESET_DIR = os.path.join(os.path.dirname(__file__), "presets")


class PresetError(ValueError):
    pass


def preset_names():
    return tuple(sorted(os.path.splitext(f)[0] for f in os.listdir(_PRESET_DIR)
                        if f.endswith(".json")))


def _load_raw(name):
    path = os.path.join(_PRESET_DIR, name + ".json")
    if not os.path.exists(path):
        raise PresetError("unknown preset %r (have: %s)"
                          % (name, ", ".join(preset_names())))
    with open(path) as fh:
        return json.load(fh)


def _build_base_datum(spec):
    if "cartan_type" in spec:
        return build_datum(spec["cartan_type"], spec.get("isogeny", "adjoint"))
    if "gl" in spec:
        return gl_datum(int(spec["gl"]))
    if "explicit" in spec:
        return BasedRootDatum.from_json(spec["explicit"])
    raise PresetError("datum spec must give cartan_type, gl, or explicit")


def _resolve_automorphism(datum, spec):
    if spec is None:
        return None
    if "perm" in spec:
        return diagram_automorphism(datum, tuple(int(i) for i in spec["perm"]))
    if "unitary_dual" in spec:
        return unitary_dual_action(datum.rank)
    if "matrix" in spec:
        m = tuple(tuple(int(x) for x in row) for row in spec["matrix"])
        pinned_cochar(datum, m)  # validate
        return m
    raise PresetError("automorphism spec must give perm, matrix, or unitary_dual")


def _parse_overrides(raw):
    out = {}
    for key, val in (raw or {}).items():
        kind, _, idx = key.partition(":")
        if kind not in ("fin", "aff"):
            raise PresetError("override keys look like fin:0 or aff:0")
        out[(kind, int(idx))] = int(val)
    return out


class Preset:
    def __init__(self, name, raw):
        self.name = name
        self.description = raw.get("description", "")
        self.datum = _build_base_datum(raw["datum"])
        gens = tuple(_resolve_automorphism(self.datum, g)
                     for g in raw.get("inertia", []))
        frob = _resolve_automorphism(self.datum, raw.get("frobenius"))
        self.lgd = LocalGroupDatum(self.datum, gens, frob, label=name)
        self.overrides = _parse_overrides(raw.get("overrides"))
        self.kl_check = bool(raw.get("kl_check", False))
        self.raw = raw
        if "tower_small_inertia" in raw:
            self.tower_small = tuple(_resolve_automorphism(self.datum, g)
                                     for g in raw["tower_small_inertia"])
        else:
            self.tower_small = None

    def tower_config(self, j=1, degenerate=False):
        """The tower configuration with Frobenius tau^j; with degenerate=True
        the ramified step collapses (E_j = E_j0) and one datum serves both
        levels.  At j = 1 the E_j0 level is the preset's own datum."""
        from .linalg import identity_matrix, mat_mul
        from .testfn import FieldTowerConfig
        if self.tower_small is None and not degenerate:
            raise PresetError("preset %s has no tower data" % self.name)
        label = "%s(j=%d)" % (self.name, j)
        gens = tuple(self.lgd.inertia.generators)
        if j == 1:
            big = self.lgd
        else:
            tj = identity_matrix(self.datum.rank)
            for _ in range(j):
                tj = mat_mul(tj, self.lgd.tau_char)
            big = LocalGroupDatum(self.datum, gens, tj, label=label + "/E_j0")
        small = big if degenerate else LocalGroupDatum(
            self.datum, self.tower_small, big.tau_char, label=label + "/E_j")
        return FieldTowerConfig(big, small, label=label)


_CACHE = {}


def load_preset(name):
    if name not in _CACHE:
        _CACHE[name] = Preset(name, _load_raw(name))
    return _CACHE[name]
