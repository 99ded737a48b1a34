import os
import sys

import pytest

sys.path.insert(0, os.path.dirname(__file__))


def empty_tables(monkeypatch):
    """Patch the process-wide tables (interned data, root closures, root
    systems, group closures, Freudenthal tables, loaded presets) to empty
    dicts until `monkeypatch` is undone."""
    from rootfold import characters, folding, lattice, presets, rootdata
    for module, name in ((rootdata, "_DATA"), (folding, "_CLOSURES"),
                         (folding, "_SYSTEMS"), (lattice, "_GROUPS"),
                         (characters, "_TABLES"), (presets, "_CACHE")):
        monkeypatch.setattr(module, name, {})


@pytest.fixture
def fresh_tables(monkeypatch):
    """Empty process-wide tables for one test.  A test that counts builds
    starts from them; a test that patches a datum or a system leaves its
    patched objects behind in tables that are dropped when it ends."""
    empty_tables(monkeypatch)
