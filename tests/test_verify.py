"""The verification driver: shared per-preset inputs."""

import hashlib
import time

from rootfold import characters, cli, folding, presets, rootdata
from rootfold.characters import DualGroup
from rootfold.echelonnage import EchelonnageData, LocalGroupDatum
from rootfold.folding import FoldedRootSystem
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
    one CenterContext.  The ramified configuration at j = 1 takes the
    preset's datum as its E_j0 level and builds one datum for E_j; the
    degenerate configuration passes the preset's datum for both levels,
    which share one centre.  Each configuration builds its centres once, on
    first use, for all four test_function calls; the degenerate
    z_v_star_1j reads the degenerate configuration's centre, and the
    descent check reads the dual group of the ramified E_j0 centre.  So
    every DualGroup is the one of a CenterContext."""
    monkeypatch.setattr(presets, "_CACHE", {})
    built = {LocalGroupDatum: 0, CenterContext: 0, DualGroup: 0}
    for cls in built:
        def counted(self, *args, _cls=cls, _orig=cls.__init__, **kwargs):
            built[_cls] += 1
            _orig(self, *args, **kwargs)
        monkeypatch.setattr(cls, "__init__", counted)
    code, lines = run_verify(["tower-su3"])
    assert code == 0
    assert "PASS test-function preset=tower-su3 checked 2 mu" in lines
    assert built == {LocalGroupDatum: 1 + 1, CenterContext: 1 + 2 + 1,
                     DualGroup: 1 + 2 + 1}


def _count_builds(monkeypatch):
    """Record every datum, fold, Freudenthal table, CenterContext and
    parameter function built from here on."""
    built = {"datum": [], "fold": [], "freudenthal": [], "center": [],
             "parameters": []}
    build, closed = BasedRootDatum._build, FoldedRootSystem._closed.__func__
    table = characters._freudenthal
    center_init = CenterContext.__init__
    parameters = EchelonnageData.parameter_function

    def counted_build(self, *args):
        built["datum"].append(args)
        build(self, *args)

    def counted_closed(cls, base, gram, label=""):
        out = closed(cls, base, gram, label)
        built["fold"].append(out)
        return out

    def counted_table(rs, mu, den):
        built["freudenthal"].append((rs._value, tuple(mu), den))
        return table(rs, mu, den)

    def counted_center(self, lgd, overrides=None):
        built["center"].append(lgd.label)
        center_init(self, lgd, overrides)

    def counted_parameters(self, overrides=None):
        built["parameters"].append(self.lgd.label)
        return parameters(self, overrides)

    monkeypatch.setattr(BasedRootDatum, "_build", counted_build)
    monkeypatch.setattr(CenterContext, "__init__", counted_center)
    monkeypatch.setattr(EchelonnageData, "parameter_function", counted_parameters)
    monkeypatch.setattr(FoldedRootSystem, "_closed", classmethod(counted_closed))
    monkeypatch.setattr(characters, "_freudenthal", counted_table)
    return built


def test_one_build_per_value(monkeypatch, fresh_tables):
    """One run_verify() from empty process-wide tables builds 15 data, 144
    folds and 61 Freudenthal tables: one per value.  Before data were
    interned and the fold and Freudenthal memos keyed by value, it built 19,
    199 and 176.  The parameter function is computed once per CenterContext
    (22: one per preset and three for the tower), not once more by theorem
    B (41)."""
    built = _count_builds(monkeypatch)
    code, lines = run_verify()
    assert code == 0
    assert hashlib.sha256("\n".join(lines).encode()).hexdigest().startswith(
        "3d4ee35357afd704")
    assert {k: len(v) for k, v in built.items()} == \
        {"datum": 15, "fold": 144, "freudenthal": 61, "center": 22,
         "parameters": 22}
    assert built["parameters"] == built["center"]
    assert len(set(built["datum"])) == 15  # 19 presets on 15 datum values
    assert len({(f._value, f.op, f.orbits) for f in built["fold"]}) == 144
    assert len(set(built["freudenthal"])) == 61
    assert [len(t) for t in (rootdata._DATA, folding._FOLDS, characters._TABLES)] \
        == [15, 144, 61]


def test_tower_nprime_fold_built_once(monkeypatch, fresh_tables):
    """In tower-su3, the N' fold of Phi^vee by tau (base (2,2)) is read by
    the trace tables of the dual group and is also the Knop system of the
    E_j level, Sigma_breve^vee folded by tau, whose inertia is trivial.  The
    two sources are value-equal, so the fold is built once and shared."""
    built = _count_builds(monkeypatch)
    code, _lines = run_verify(["tower-su3"])
    assert code == 0
    preset = presets.load_preset("tower-su3")
    form = preset.datum.coroot_system()._value[2:]
    nprime = [f for f in built["fold"] if f.op == "Nprime"
              and f._base_int == ((2, 2),) and f._value[2:] == form]
    assert len(nprime) == 1
    small = preset.tower_config().lgd_small
    assert small.echelonnage().sigma0_tilde.rs_co is folding.fold(
        preset.datum.coroot_system(), (preset.lgd.tau_cochar,), "Nprime") is nprime[0]


def test_verify_at_deeper_bounds(monkeypatch, capsys):
    """`rootfold verify e6-flip su7-ramified --mu-bound 12 --kl-bound 4` in
    process.  Enumerating the dominant cocharacters by a box took about 10 s
    here; the walk takes milliseconds, so a second is a wide margin."""
    spent = []
    orig = BasedRootDatum.dominant_cochars_up_to

    def timed(self, bound, central_box=1):
        t = time.perf_counter()
        out = orig(self, bound, central_box)
        spent.append(time.perf_counter() - t)
        return out

    monkeypatch.setattr(BasedRootDatum, "dominant_cochars_up_to", timed)
    code = cli.main(["verify", "e6-flip", "su7-ramified", "--mu-bound", "12",
                     "--kl-bound", "4"])
    out = capsys.readouterr().out
    assert code == 0
    assert "PASS theorem-C preset=su7-ramified checked 2 mu" in out.splitlines()
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fea600c14b47c8744067df5c84e48b82c23be2908f291b1fa0f6c0df39db9247")
    assert len(spent) == 2  # one per preset; neither runs theorem D
    assert sum(spent) < 1.0, spent


def test_fail_line_separates_count_from_details(monkeypatch):
    from rootfold import verify

    def failing(lgd, mu, engine):
        return ["maximal translations differ from the orbit"] if mu != (0,) else []

    monkeypatch.setattr(verify, "verify_extremal", failing)
    code, lines = run_verify(["split-a1"])
    assert code == 1
    assert "FAIL theorem-C preset=split-a1 checked 3 mu;" \
        "mu=1:['maximal translations differ from the orbit'];" \
        "mu=2:['maximal translations differ from the orbit']" in lines
    assert "PASS branching preset=split-a1 checked 3 mu" in lines
