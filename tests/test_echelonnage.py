"""Echelonnage, Knop and Macdonald systems; special roots; parameters."""

from fractions import Fraction

import pytest
from hypothesis import given, settings

from rootfold.echelonnage import LocalGroupDatum
from rootfold.linalg import fraction_rows, identity_matrix, mat_mul, vec_scale
from rootfold.presets import load_preset, preset_names
from rootfold.rootdata import (
    build_datum,
    diagram_automorphism,
    gl_datum,
    pinned_cochar,
    unitary_dual_action,
)
from test_affine import _property_engines, local_data
from test_folding import from_datum
from test_lattice import combination


def flip(r):
    return tuple(r - 1 - i for i in range(r))


def _lgd(cartan, iso, inertia_perms=(), tau_perm=None, label=""):
    d = build_datum(cartan, iso)
    gens = tuple(diagram_automorphism(d, p) for p in inertia_perms)
    frob = diagram_automorphism(d, tau_perm) if tau_perm else None
    return LocalGroupDatum(d, gens, frob, label=label)


def test_split_prs():
    lgd = _lgd("B2", "simply_connected", label="split")
    ech = lgd.echelonnage()
    char = from_datum(lgd.datum)
    assert set(ech.sigma_breve.rs_root.roots) == set(char.roots)
    assert ech.special == frozenset()
    assert set(ech.parameter_function().values()) == {1}


def test_su3_unramified():
    lgd = _lgd("A2", "simply_connected", tau_perm=flip(2), label="su3")
    ech = lgd.echelonnage()
    assert ech.sigma_breve.type_label() == "A2"
    assert ech.sigma0.type_label() == "C1"
    assert ech.sigma0_tilde.type_label() == "B1"
    assert ech.sigma1_nonreduced
    assert ech.special == frozenset({0})
    # the paper's parameter values: L(s_a) = 3, L(s_0) = 1
    assert ech.parameter_function() == {("fin", 0): 3, ("aff", 0): 1}
    # Knop root is half the Sigma_0 root
    assert ech.sigma0_tilde.rs_root.base[0] == vec_scale(Fraction(1, 2),
                                                         ech.sigma0.rs_root.base[0])


def test_su5_unramified():
    lgd = _lgd("A4", "simply_connected", tau_perm=flip(4), label="su5")
    ech = lgd.echelonnage()
    assert ech.sigma0.type_label() == "C2"
    assert ech.sigma0_tilde.type_label() == "B2"
    assert ech.special == frozenset({1})
    p = ech.parameter_function()
    assert p[("aff", 0)] == 1
    assert p[("fin", 1)] == 3  # special node
    assert p[("fin", 0)] == 2  # folded middle node


def test_su4_and_su6():
    # 2A'_{2n-1}: no special roots, L(s_a) = 1 = L(s_0)
    lgd = _lgd("A3", "adjoint", tau_perm=flip(3), label="su4")
    ech = lgd.echelonnage()
    assert ech.sigma0.type_label() == "C2"
    assert ech.special == frozenset()
    assert not ech.sigma1_nonreduced
    p = ech.parameter_function()
    assert p[("aff", 0)] == 1 and sorted(p.values()) == [1, 1, 2]
    lgd6 = _lgd("A5", "simply_connected", tau_perm=flip(5), label="su6")
    ech6 = lgd6.echelonnage()
    assert ech6.sigma0.type_label() == "C3"
    assert ech6.special == frozenset()
    p6 = ech6.parameter_function()
    assert sorted(p6.values()) == [1, 1, 2, 2]


def test_ramified_su3():
    d = gl_datum(3)
    lgd = LocalGroupDatum(d, (unitary_dual_action(3),), None, label="u3")
    ech = lgd.echelonnage()
    assert ech.sigma_breve.type_label() == "C1"
    assert ech.special == frozenset()
    assert set(ech.parameter_function().values()) == {1}
    # tau trivial: Sigma_0 = Sigma_breve as sets
    assert set(ech.sigma0.rs_root.roots) == set(ech.sigma_breve.rs_root.roots)


def test_triality_and_e6():
    lgd = _lgd("D4", "simply_connected", tau_perm=(2, 1, 3, 0), label="3d4")
    ech = lgd.echelonnage()
    assert ech.sigma_breve.type_label() == "D4"
    assert ech.sigma0.type_label() == "G2"
    assert ech.sigma0_tilde.type_label() == "G2"
    p = ech.parameter_function()
    assert sorted(p.values()) == [1, 1, 3]
    lgd6 = _lgd("E6", "adjoint", tau_perm=(5, 1, 4, 3, 2, 0), label="2e6")
    ech6 = lgd6.echelonnage()
    assert ech6.sigma0.type_label() == "F4"
    p6 = ech6.parameter_function()
    assert sorted(p6.values()) == [1, 1, 1, 2, 2]


def test_inertia_and_tau_combined():
    # ramified step folds A2 -> C1, then trivial tau keeps it
    d = build_datum("A2", "simply_connected")
    m = diagram_automorphism(d, flip(2))
    lgd = LocalGroupDatum(d, (m,), m, label="tower-style")
    ech = lgd.echelonnage()
    assert ech.sigma_breve.type_label() == "C1"
    assert set(ech.parameter_function().values()) == {1}


def test_special_coincides_with_nonorthogonality():
    # the end of the Knop comparison proof: special iff the tau-orbit of the
    # preimage is not pairwise orthogonal (checked internally; verify the
    # reported sets on both a positive and a negative instance)
    lgd = _lgd("A6", "simply_connected", tau_perm=flip(6), label="su7")
    ech = lgd.echelonnage()
    orth_flags = [orth for _orb, orth in ech.sigma0.rs_root.orbits]
    assert {k for k, o in enumerate(orth_flags) if not o} == set(ech.special)
    assert ech.special == frozenset({2})


def test_macdonald_membership():
    # a/2 in Sigma_1 exactly for special simple roots a
    for args in (("A2", "simply_connected", (), flip(2)),
                 ("A4", "simply_connected", (), flip(4)),
                 ("A3", "adjoint", (), flip(3))):
        lgd = _lgd(args[0], args[1], args[2], args[3], label="m")
        ech = lgd.echelonnage()
        s1 = set(fraction_rows(*ech.sigma1))
        for k, a in enumerate(ech.sigma0.rs_root.base):
            assert ((tuple(vec_scale(Fraction(1, 2), a)) in s1)
                    == (k in ech.special))
    # reduced parts (paper convention): discarding doubles gives the Knop
    # system, discarding halves gives Sigma_0
    lgd = _lgd("A2", "simply_connected", (), flip(2), label="m2")
    ech = lgd.echelonnage()
    s1 = set(fraction_rows(*ech.sigma1))
    red_lower = {a for a in s1 if tuple(vec_scale(Fraction(1, 2), a)) not in s1}
    red_upper = {a for a in s1 if tuple(vec_scale(2, a)) not in s1}
    assert red_lower == set(ech.sigma0_tilde.rs_root.roots)
    assert red_upper == set(ech.sigma0.rs_root.roots)


def test_parameter_overrides():
    lgd = _lgd("A2", "simply_connected", tau_perm=flip(2), label="ov")
    ech = lgd.echelonnage()
    p = ech.parameter_function({("fin", 0): 5})
    assert p[("fin", 0)] == 5 and p[("aff", 0)] == 1
    with pytest.raises(ValueError):
        ech.parameter_function({("fin", 7): 2})
    with pytest.raises(ValueError):
        ech.parameter_function({("fin", 0): 0})


def test_frobenius_must_normalize():
    from rootfold.lattice import MalformedAction
    d = build_datum("A2xA2", "adjoint")
    swap = diagram_automorphism(d, (2, 3, 0, 1))
    flip_first = diagram_automorphism(d, (1, 0, 2, 3))
    # inertia = flip of the first factor only; tau = factor swap does not
    # normalize it
    with pytest.raises(MalformedAction):
        LocalGroupDatum(d, (flip_first,), swap)
    # but the swap as inertia with trivial tau is fine
    LocalGroupDatum(d, (swap,), None)


@pytest.mark.parametrize("name", preset_names())
def test_frobenius_group_lists_the_powers_of_tau(name):
    """`frobenius.group[k]` is tau^k, and the list ends before tau^k = 1
    repeats it; `cochar_group[k]` is the cocharacter matrix of tau^k."""
    lgd = load_preset(name).lgd
    act = lgd.frobenius
    power = identity_matrix(lgd.datum.rank)
    for k, g in enumerate(act.group):
        assert g == power, (name, k)
        assert act.cochar_group[k] == pinned_cochar(lgd.datum, g), (name, k)
        power = mat_mul(power, lgd.tau_char)
    assert power == identity_matrix(lgd.datum.rank), name
    assert len(act.cochar_group) == len(act.group)
    assert act.generators == (lgd.tau_char,)
    assert act.cochar_generators == (lgd.tau_cochar,)


def test_component_swap_with_flip_order_four():
    # two A2 components permuted by tau with tau^2 flipping each: criterion
    # (ii) fires through the stabilizer power, and the wall-orbit rule
    # doubles the SU(3) parameters (restriction through an unramified
    # quadratic step)
    d = build_datum("A2xA2", "simply_connected")
    tau4 = diagram_automorphism(d, (2, 3, 1, 0))
    lgd = LocalGroupDatum(d, (), tau4, label="res-su3")
    ech = lgd.echelonnage()
    assert ech.sigma_breve.type_label() == "A2xA2"
    assert ech.sigma0.type_label() == "C1"
    assert ech.sigma0_tilde.type_label() == "B1"
    assert ech.special == frozenset({0})
    assert ech.parameter_function() == {("fin", 0): 6, ("aff", 0): 2}
    # plain swap: the stabilizer acts trivially, nothing is special and the
    # parameters are uniformly 2
    tau2 = diagram_automorphism(d, (2, 3, 0, 1))
    lgd2 = LocalGroupDatum(d, (), tau2, label="res-sl3")
    ech2 = lgd2.echelonnage()
    assert ech2.sigma0.type_label() == "A2"
    assert ech2.special == frozenset()
    assert set(ech2.parameter_function().values()) == {2}


def test_report_shows_the_parameters_it_is_given():
    """Two centres on one datum share its echelonnage; each report shows the
    parameters it is handed, whichever centre was built last."""
    from rootfold.hecke import CenterContext
    lgd = _lgd("A2", "simply_connected", tau_perm=flip(2), label="su3")
    first = CenterContext(lgd, {("fin", 0): 5})
    second = CenterContext(lgd)
    ech = lgd.echelonnage()
    assert ech.report(first.parameters)["parameters"] == {"aff:0": 1, "fin:0": 5}
    assert ech.report(second.parameters)["parameters"] == {"aff:0": 1, "fin:0": 3}


def reference_orbit_classes(L, breve_classes, co_fold, double):
    """The classes of a fold of Sigma_breve^vee in L, each one integral
    combination: the orbit sum, and for the Knop system (`double`) twice
    that on a non-orthogonal orbit."""
    return tuple(combination(L, [2 if double and not orth else 1] * len(orb),
                             [breve_classes[i] for i in orb])
                 for orb, orth in co_fold.orbits)


@pytest.mark.parametrize("name", preset_names())
def test_folded_classes_match_orbit_loops(name):
    """Sigma_0 (the N fold) and the Knop system (the N' fold): their
    classes by the orbit rule equal the per-orbit loops'."""
    lgd = load_preset(name).lgd
    ech = lgd.echelonnage()
    breve = ech.sigma_breve.base_classes
    for sigma, double in ((ech.sigma0, False), (ech.sigma0_tilde, True)):
        assert sigma.base_classes == reference_orbit_classes(
            lgd.coinv, breve, sigma.rs_co, double)
    assert ech.sigma0.rs_co.op == "N" and ech.sigma0_tilde.rs_co.op == "Nprime"


def assert_parameters_are_breve_lengths(key):
    """L(s) = l(s) in W(Sigma_breve) for every wall s of the tau-fixed
    engine: s is the longest element of the parabolic its tau-orbit of
    affine walls generates, whose length is the default parameter."""
    lgd, beng, teng = _property_engines(key)
    assert lgd.echelonnage().parameter_function() == {
        wall: beng.length(s) for wall, s in teng.s_aff}, key


@pytest.mark.parametrize("name", preset_names())
def test_parameters_are_breve_lengths(name):
    assert_parameters_are_breve_lengths(name)


@settings(max_examples=60, deadline=None)
@given(local_data())
def test_parameters_are_breve_lengths_property(key):
    assert_parameters_are_breve_lengths(key)


@pytest.mark.parametrize("cartan,iso,tau,expected", [
    # tau swaps the first two A1 components: Sigma_0 has two components,
    # and the affine node of the unmoved A1 is the second
    ("A1xA1xA1", "adjoint", (1, 0, 2),
     {("fin", 0): 2, ("fin", 1): 1, ("aff", 0): 2, ("aff", 1): 1}),
    ("A2xA2xA2", "simply_connected", (3, 2, 1, 0, 4, 5),
     {("fin", 0): 2, ("fin", 1): 2, ("fin", 2): 1, ("fin", 3): 1,
      ("aff", 0): 2, ("aff", 1): 1}),
])
def test_affine_parameters_keyed_by_sigma0_components(cartan, iso, tau, expected):
    """Each affine wall is keyed by the component of Sigma_0 it belongs to,
    not by the lowest Sigma_breve component of its tau-orbit."""
    ech = _lgd(cartan, iso, tau_perm=tau, label=cartan).echelonnage()
    assert ech.parameter_function() == expected


def test_override_keys_follow_sigma0_components():
    ech = _lgd("A1xA1xA1", "adjoint", tau_perm=(1, 0, 2), label="a1^3").echelonnage()
    assert ech.parameter_function({("aff", 1): 4})[("aff", 1)] == 4
    with pytest.raises(ValueError, match="unknown override keys"):
        ech.parameter_function({("aff", 2): 4})
