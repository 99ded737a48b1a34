"""The verification driver: shared per-preset inputs."""

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
