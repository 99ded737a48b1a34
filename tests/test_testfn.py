"""Test-function expansions, ramified descent, towers."""

import pytest

from rootfold.echelonnage import LocalGroupDatum
from rootfold.hecke import BernsteinElement, CenterContext
from rootfold.lattice import MalformedAction
from rootfold.presets import load_preset
from rootfold.rootdata import build_datum, diagram_automorphism, gl_datum, unitary_dual_action
from rootfold.testfn import FieldTowerConfig, ramified_descent_check, z_v_star_1j
from rootfold.testfn import test_function as tower_expansion


def flip(r):
    return tuple(r - 1 - i for i in range(r))


def test_split_gaitsgory():
    # split: z_{V_mu} * 1_J = sum of m_mu(lambda) z_lambda
    d = build_datum("A2", "adjoint")
    lgd = LocalGroupDatum(d, (), None, label="split-a2")
    ctx = CenterContext(lgd)
    mu = (1, 1)
    z = z_v_star_1j(ctx, mu)
    L = lgd.coinv
    expected = {}
    for nu, m in ctx.chars.dual.weight_table(mu).items():
        cls = L.project(tuple(int(x) for x in nu))
        if ctx.chars.h.is_dominant(cls):
            expected[cls] = m
    assert z == BernsteinElement(expected)
    assert z.coeffs[L.project(mu)] == 1
    assert z.coeffs[L.zero()] == 2


def test_su3_z_equals_geometric_basis():
    d = build_datum("A2", "simply_connected")
    lgd = LocalGroupDatum(d, (), diagram_automorphism(d, flip(2)), label="su3")
    ctx = CenterContext(lgd)
    mu = (1, 1)
    z = z_v_star_1j(ctx, mu)
    assert z == ctx.geometric_basis(lgd.coinv.project(mu))
    assert z.coeffs[lgd.coinv.project(mu)] == 1


def test_top_coefficient_everywhere():
    for name, mu in [("su4-unramified", (1, 0, 1)), ("su3-ramified", (1, 0, -1)),
                     ("d4-triality", (1, 2, 1, 1))]:
        preset = load_preset(name)
        ctx = CenterContext(preset.lgd, preset.overrides)
        z = z_v_star_1j(ctx, mu)
        mubar = preset.lgd.coinv.project(mu)
        assert z.coeffs[mubar] == 1, name
        # support bound: everything below mu in the Sigma-order
        for nu in z.coeffs:
            assert ctx.chars.h.sigma.class_leq(nu, mubar)


def test_tower_config_validation():
    d = build_datum("A2", "simply_connected")
    m = diagram_automorphism(d, flip(2))
    with pytest.raises(MalformedAction):
        # small group not inside big
        FieldTowerConfig(LocalGroupDatum(d, (), m), LocalGroupDatum(d, (m,), m))
    with pytest.raises(MalformedAction):
        # the levels differ in the Frobenius
        FieldTowerConfig(LocalGroupDatum(d, (m,), m), LocalGroupDatum(d, (), None))


def test_ramified_descent():
    d = build_datum("A2", "simply_connected")
    m = diagram_automorphism(d, flip(2))
    big = LocalGroupDatum(d, (m,), m)
    cfg = FieldTowerConfig(big, LocalGroupDatum(d, (), m))
    for mu in [(0, 0), (1, 1), (2, 2)]:
        bad = ramified_descent_check(cfg, mu)
        assert not bad, bad
    # degenerate tower: identity check
    cfg0 = FieldTowerConfig(big, big)
    assert cfg0.center_small is cfg0.center_big
    assert not ramified_descent_check(cfg0, (1, 1))


def test_ramified_descent_u3():
    d = gl_datum(3)
    u = unitary_dual_action(3)
    cfg = FieldTowerConfig(LocalGroupDatum(d, (u,)), LocalGroupDatum(d, ()))
    for mu in [(1, 0, -1), (1, 0, 0)]:
        bad = ramified_descent_check(cfg, mu)
        assert not bad, bad


def test_test_function_routes_and_degeneration():
    preset = load_preset("tower-su3")
    cfg = preset.tower_config(j=1)
    tf = tower_expansion(cfg, (1, 1))  # internally cross-checked
    big = CenterContext(cfg.lgd_big)
    # degenerate tower equals z_{V} * 1_J over the E_j0 group
    cfg0 = preset.tower_config(j=1, degenerate=True)
    assert tower_expansion(cfg0, (1, 1)) == z_v_star_1j(big, (1, 1))
    # mu = 0 gives the unit z_0 in every mode
    zero = cfg.lgd_big.coinv.zero()
    assert tower_expansion(cfg, (0, 0)) == BernsteinElement({zero: 1})
    # top coefficient of the expansion is 1
    mubar_big = cfg.project(cfg.lgd_small.coinv.project((1, 1)))
    assert tf.coeffs[big.tau_engine.dominant_class(mubar_big)] == 1


def test_test_function_j2():
    # j = 2 squares the Frobenius: the flip disappears and the E_j-level
    # group is split; the expansion is still internally consistent
    preset = load_preset("tower-su3")
    cfg = preset.tower_config(j=2)
    tf = tower_expansion(cfg, (1, 1))
    assert sum(1 for _ in tf.coeffs) >= 1


def test_mu_must_be_rational():
    d = build_datum("A2", "simply_connected")
    lgd = LocalGroupDatum(d, (), diagram_automorphism(d, flip(2)), label="su3")
    ctx = CenterContext(lgd)
    with pytest.raises(ValueError):
        z_v_star_1j(ctx, (1, 0))  # not tau-fixed
