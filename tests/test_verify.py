"""The verification driver: shared per-preset inputs."""

from rootfold import presets
from rootfold.echelonnage import LocalGroupDatum
from rootfold.hecke import CenterContext
from rootfold.rootdata import BasedRootDatum
from rootfold.verify import run_verify


def _count_cochar_calls(monkeypatch):
    calls = []
    orig = BasedRootDatum.dominant_cochars_up_to

    def counted(self, bound, central_box=1):
        calls.append(bound)
        return orig(self, bound, central_box)

    monkeypatch.setattr(BasedRootDatum, "dominant_cochars_up_to", counted)
    return calls


def test_dominant_cochars_enumerated_once_per_preset(monkeypatch):
    calls = _count_cochar_calls(monkeypatch)
    code, lines = run_verify(["su3-unramified"])
    assert code == 0
    assert "PASS theorem-D preset=su3-unramified checked 2 lambda" in lines
    assert calls == [4]


def test_distinct_kl_bound_enumerates_its_own_cochars(monkeypatch):
    calls = _count_cochar_calls(monkeypatch)
    code, lines = run_verify(["su3-unramified"], mu_bound=4, kl_bound=2)
    assert code == 0
    assert calls == [4, 2]
    # the default bounds check 2 lambda here
    assert "PASS theorem-D preset=su3-unramified checked 1 lambda" in lines


def test_tower_data_built_once_per_preset(monkeypatch):
    """tower-su3 checks two mu.  The preset builds one LocalGroupDatum and
    one CenterContext; the tower check builds the ramified and the
    degenerate configuration (two data each) and the degenerate centre
    once, and each of the four test_function calls builds the centres of
    its two levels."""
    monkeypatch.setattr(presets, "_CACHE", {})
    built = {LocalGroupDatum: 0, CenterContext: 0}
    for cls in built:
        def counted(self, *args, _cls=cls, _orig=cls.__init__, **kwargs):
            built[_cls] += 1
            _orig(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    code, lines = run_verify(["tower-su3"])
    assert code == 0
    assert "PASS test-function preset=tower-su3 checked 2 mu" in lines
    assert built == {LocalGroupDatum: 1 + 2 + 2, CenterContext: 1 + 1 + 4 * 2}
