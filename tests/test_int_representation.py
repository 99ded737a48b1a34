"""One int representation per Sigma system.

The int paths (the base and form of every system, the orbit average behind
the section, the weights of a trace table) against the Fraction routes
they replaced, kept in `fraction_linalg`; and the layers that build the
Sigma systems and their characters construct no Fraction at all.
"""

from contextlib import contextmanager
from fractions import Fraction

from hypothesis import given, settings

from rootfold.affine import build_affine, build_tau_fixed
from rootfold.characters import DualGroup, FixedGroup, freudenthal, graded_trace
from rootfold.folding import OP_TAGS, fold
from rootfold.lattice import average
from rootfold.linalg import identity_matrix, mat_mul, mat_vec
from rootfold.presets import Preset, _load_raw

import fraction_linalg
from test_affine import _property_engines, local_data
from test_folding import folding_data, pointwise_dual
from test_lattice import free_class


def assert_base_matches_reference(rs):
    """The int fields of rs equal those `RootSystemV` used to derive from
    its Fraction base and form."""
    got = (rs._den, rs._base_int, rs._gram_den, rs._gram_int, rs._base_gram,
           rs._cartan)
    assert got == fraction_linalg.reference_base(rs.base, rs.gram), rs


def assert_average_matches_reference(v, group):
    size, total = average(v, group)
    assert tuple(Fraction(x, size) for x in total) == \
        fraction_linalg.average(v, group), v


def assert_weights_match_reference(table, rs, mu):
    """The {weight: multiplicity} dict `table` of the irrep of rs with
    highest weight mu lists the weights of its Freudenthal table, in order,
    as the Fraction route computes them."""
    assert list(table.items()) == [(v, m) for _c, v, m in fraction_linalg.weight_items(
        rs.base, mu, freudenthal(rs, mu))]


@settings(max_examples=20, deadline=None)
@given(folding_data())
def test_folding_data_int_paths_match_fraction_routes(data):
    """Phi, Phi^vee, their duals, their four folds and the folds' duals;
    the orbit averages of the simple roots and coroots."""
    d, act = data
    for rs, group, simple in ((d.root_system(), act.group, d.simple_roots),
                              (d.coroot_system(), act.cochar_group, d.simple_coroots)):
        folds = [fold(rs, group, op).system for op in OP_TAGS]
        for s in [rs, pointwise_dual(rs)] + folds + [pointwise_dual(f) for f in folds]:
            assert_base_matches_reference(s)
        for v in simple + identity_matrix(d.rank):
            assert_average_matches_reference(v, group)


@settings(max_examples=20, deadline=None)
@given(local_data())
def test_local_data_int_paths_match_fraction_routes(key):
    """The Sigma systems of the echelonnage data, the section of each free
    basis class, and the weight tables of V_mu and of its tau-fold for
    <2rho, mu> <= 4."""
    lgd, _beng, _teng = _property_engines(key)
    ech = lgd.echelonnage()
    for rs in (ech.sigma_breve.rs_root, ech.sigma_breve.rs_co, ech.sigma0.rs_root,
               ech.sigma0.rs_co, ech.sigma0_tilde.rs_root, ech.sigma0_tilde.rs_co):
        assert_base_matches_reference(rs)
    L = lgd.coinv
    for e in identity_matrix(L.free_rank):
        lift = L.lift(free_class(L, e))
        assert_average_matches_reference(lift, L.group)
        assert L.section_vector(free_class(L, e)) == fraction_linalg.average(lift, L.group)
    dual = DualGroup(lgd.datum)
    tau = lgd.tau_cochar
    for mu in lgd.datum.dominant_cochars_up_to(4, central_box=0):
        assert_weights_match_reference(dual.weight_table(mu), dual.system, mu)
        if mat_vec(tau, mu) == mu:
            assert_weights_match_reference(dual.trace_table(tau, mu),
                                           fold(dual.system, (tau,), "Nprime").system, mu)


@contextmanager
def no_fraction(what):
    """Fail, naming `what`, if the block constructs a Fraction."""
    made = []
    orig = Fraction.__dict__["__new__"]

    def counted(cls, *args, **kwargs):
        made.append(args)
        return orig.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counted)
    try:
        yield
    finally:
        Fraction.__new__ = orig
    assert made == [], (what, len(made), made[:3])


def test_sigma_layers_construct_no_fraction():
    """fold, dual, EchelonnageData, the two engines, the weight tables of
    Phi^vee, freudenthal on the sections of classes, and graded_trace, on
    fresh presets with averaged, doubled and halved bases."""
    for name in ("su3-unramified", "su4-ramified", "su5-ramified", "d4-triality",
                 "tower-su3"):
        lgd = Preset(name, _load_raw(name)).lgd
        d = lgd.datum
        gens = lgd.inertia.generators + (lgd.tau_char,)
        cogens = lgd.inertia.cochar_generators + (lgd.tau_cochar,)
        with no_fraction("fold"):
            folds = [fold(rs, g, op).system for rs, g in ((d.root_system(), gens),
                                                          (d.coroot_system(), cogens))
                     for op in OP_TAGS]
        with no_fraction("dual"):
            for f in folds:
                pointwise_dual(f)
        with no_fraction("EchelonnageData"):
            lgd.echelonnage()
        with no_fraction("ExtendedAffineWeyl"):
            build_tau_fixed(lgd, build_affine(lgd))
        dual, h = DualGroup(d), FixedGroup(lgd)
        mus = [mu for mu in d.dominant_cochars_up_to(4) if not lgd.mu_defect(mu)]
        with no_fraction("freudenthal"):
            for mu in mus:
                dual.weight_table(mu)
                lam = lgd.coinv.project(mu)
                if h.is_dominant(lam):
                    den, v = lgd.coinv.section(lam)
                    freudenthal(h.sigma.rs_co, v, den)
        group = lgd.inertia.cochar_group
        with no_fraction("graded_trace"):
            for mu in mus:
                graded_trace(dual, mu, [mat_mul(lgd.tau_cochar, s) for s in group],
                             lgd.coinv, len(group))
        assert mus, name
