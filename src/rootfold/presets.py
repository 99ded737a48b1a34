"""Preset local group data, shipped as JSON files next to this module.

A preset names a based root datum, inertia generators, a Frobenius, optional
parameter overrides, and (for tower presets) the smaller inertia of the
totally ramified step.  Loading is deterministic and validated.
"""

from __future__ import annotations

import json
import os

from .echelonnage import LocalGroupDatum
from .jsoninput import MalformedInput, json_field, json_int_rows, json_ints
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


# The raw preset is JSON: every value read below is checked for its type
# and shape first (MalformedInput names the key).

def _build_base_datum(raw):
    spec = json_field(raw, "datum", dict)
    if "cartan_type" in spec:
        return build_datum(json_field(spec, "cartan_type", str),
                           json_field(spec, "isogeny", str, "adjoint"))
    if "gl" in spec:
        n = json_field(spec, "gl", int)
        if n < 1:
            raise MalformedInput("gl", "expected a positive integer, got %d" % n)
        return gl_datum(n)
    if "explicit" in spec:
        return BasedRootDatum.from_json(json_field(spec, "explicit", dict))
    raise PresetError("datum spec must give cartan_type, gl, or explicit")


def _resolve_automorphism(datum, spec, key):
    if spec is None:
        return None
    if not isinstance(spec, dict):
        raise MalformedInput(key, "expected an automorphism object, got %s"
                             % type(spec).__name__)
    if "perm" in spec:
        return diagram_automorphism(datum, json_ints(spec, "perm"))
    if "unitary_dual" in spec:
        return unitary_dual_action(datum.rank)
    if "matrix" in spec:
        m = json_int_rows(spec, "matrix", datum.rank, datum.rank)
        pinned_cochar(datum, m)  # validate
        return m
    raise PresetError("automorphism spec must give perm, matrix, or unitary_dual")


def _parse_overrides(raw):
    overrides = json_field(raw, "overrides", dict, {})
    out = {}
    for key in overrides:
        kind, _, idx = key.partition(":")
        if kind not in ("fin", "aff") or not idx.isdigit():
            raise PresetError("override keys look like fin:0 or aff:0")
        out[(kind, int(idx))] = json_field(overrides, key, int)
    return out


class Preset:
    def __init__(self, name, raw):
        self.name = name
        json_field(raw, "description", str, "")  # read by no code, but checked
        self.datum = _build_base_datum(raw)
        gens = tuple(_resolve_automorphism(self.datum, g, "inertia")
                     for g in json_field(raw, "inertia", list, []))
        frob = _resolve_automorphism(self.datum, raw.get("frobenius"), "frobenius")
        self.lgd = LocalGroupDatum(self.datum, gens, frob, label=name)
        self.overrides = _parse_overrides(raw)
        self.kl_check = json_field(raw, "kl_check", bool, False)
        if "tower_small_inertia" in raw:
            self.tower_small = tuple(
                _resolve_automorphism(self.datum, g, "tower_small_inertia")
                for g in json_field(raw, "tower_small_inertia", list))
        else:
            self.tower_small = None

    def tower_config(self, j=1, degenerate=False):
        """The tower configuration with Frobenius tau^j; with degenerate=True
        the ramified step collapses (E_j = E_j0) and one datum serves both
        levels.  At j = 1 the E_j0 level is the preset's own datum."""
        from .testfn import FieldTowerConfig
        if self.tower_small is None and not degenerate:
            raise PresetError("preset %s has no tower data" % self.name)
        label = "%s(j=%d)" % (self.name, j)
        if j == 1:
            big = self.lgd
        else:
            powers = self.lgd.frobenius.group
            big = LocalGroupDatum(self.datum, self.lgd.inertia.generators,
                                  powers[j % len(powers)], label=label + "/E_j0")
        small = big if degenerate else LocalGroupDatum(
            self.datum, self.tower_small, big.tau_char, label=label + "/E_j")
        return FieldTowerConfig(big, small)


_CACHE = {}


def load_preset(name):
    if name not in _CACHE:
        _CACHE[name] = Preset(name, _load_raw(name))
    return _CACHE[name]
