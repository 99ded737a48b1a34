"""The recursive Bruhat order, the subword intervals and the admissible-set
unions: the references for `rootfold.affine`.

The library reads the Bruhat order from one walk,
`ExtendedAffineWeyl.coset_walk`, which `lower_interval` reads with J = (),
and finds maximal elements by one pass in decreasing length against those
intervals.  `subword_interval` is the enumeration `lower_interval` ran
before: the subword products of a reduced word.  `bruhat_leq` is the
recursion that the engine ran before that, with its memo of Bruhat pairs
kept per engine here, and `pairwise_extremal_elements` the maximal elements
by it; the tests compare intervals, interval membership and the
length-ordered pass against them.

`verify_extremal` compares the two definitions of Adm(mu) through their
maximal translations.  `verify_extremal_by_union` is the check it replaced:
it builds both definitions as unions of lower intervals and compares the sets.

`tau_fixed_mismatches` checks the tau-fixed engine against its definition as
the tau-fixed subgroup of the Sigma_breve engine, element by element.
"""

import weakref

from rootfold.affine import admissible_set, build_affine, build_tau_fixed, extremal_elements
from rootfold.linalg import mat_integer_inverse, mat_mul

# engine -> {(u, v): u <= v} for affine parts u, v
_MEMO = weakref.WeakKeyDictionary()


def bruhat_leq(eng, x, y):
    """x <= y; elements in different Omega cosets are incomparable."""
    ox = eng.omega_part(x)
    oy = eng.omega_part(y)
    if ox != oy:
        return False
    oinv = eng.inverse(ox)
    return _leq_aff(eng, eng.multiply(x, oinv), eng.multiply(y, oinv))


def _leq_aff(eng, u, v):
    if u == v:
        return True
    lu, lv = eng.length(u), eng.length(v)
    if lu > lv or lv == 0:
        return False
    memo = _MEMO.setdefault(eng, {})
    key = (u, v)
    if key in memo:
        return memo[key]
    word, _ = eng.normal_form(v)
    s = eng._s_aff_map[word[0]]
    sv = eng.multiply(s, v)
    su = eng.multiply(s, u)
    if eng.length(su) < lu:
        out = _leq_aff(eng, su, sv)
    else:
        out = _leq_aff(eng, u, sv)
    memo[key] = out
    return out


def subword_interval(eng, y):
    """[e, y] as the subword products of a reduced word of y's affine part,
    each times the Omega part of y."""
    word, omega = eng.normal_form(y)
    elems = {eng.identity}
    for k in word:
        s = eng._s_aff_map[k]
        elems |= {eng.multiply(x, s) for x in elems}
    return frozenset(eng.multiply(x, omega) for x in elems)


def pairwise_extremal_elements(eng, elements):
    """Bruhat-maximal members of a finite set, by a test of every pair."""
    elems = list(elements)
    out = []
    for x in elems:
        if any(x != y and bruhat_leq(eng, x, y) for y in elems):
            continue
        out.append(x)
    return frozenset(out)


def downward_closure(eng, elements):
    """Everything Bruhat-below some member of a finite set: the union of the
    lower intervals."""
    out = set()
    for y in elements:
        out |= eng.lower_interval(y)
    return frozenset(out)


def relative_admissible_set(eng, cls):
    """Adm from the relative orbit (definition (adm)): the union of the lower
    intervals of the translations by the W-orbit of the class cls."""
    return downward_closure(
        eng, [eng.translation(c) for c in eng.weyl_orbit_class(cls)])


def verify_extremal_by_union(lgd, mu, engine):
    """`rootfold.affine.verify_extremal` with part (c) checked on the sets:
    Adm(mu) by the absolute orbit against Adm(mu) by the relative orbit.
    Returns the list of mismatches."""
    datum = lgd.datum
    coinv = lgd.coinv
    mubar = coinv.project(mu)
    mismatches = []
    images = sorted({coinv.project(lam) for lam in datum.weight_set(mu)},
                    key=lambda c: (c.free, c.tors))
    for lam in images:
        if not engine.sigma.class_leq(engine.dominant_class(lam), mubar):
            mismatches.append("dominance bridge fails at %r" % (lam,))
    maximal = extremal_elements(engine, {engine.translation(c) for c in images})
    expected = {engine.translation(c) for c in engine.weyl_orbit_class(mubar)}
    if maximal != expected:
        mismatches.append("maximal translations differ from the orbit")
    adm0 = admissible_set(lgd, mu, engine=engine)
    if adm0 != relative_admissible_set(engine, mubar):
        mismatches.append("the two admissible-set definitions differ")
    return mismatches


def tau_fixed_classes(lgd, bound):
    """The nonzero dominant tau-fixed classes lam in the image of a
    dominant mu with <2rho, mu> <= bound, sorted."""
    zero = lgd.coinv.zero()
    breve = lgd.echelonnage().sigma_breve
    return sorted({lam for lam in map(lgd.coinv.project,
                                      lgd.datum.dominant_cochars_up_to(bound))
                   if lam != zero and lgd.tau_endo(lam) == lam and breve.is_dominant(lam)})


def tau_fixed_mismatches(lgd, bound, tau_engine=None):
    """W~^tau inside W~: (number of elements checked, mismatches).

    For each class lam of `tau_fixed_classes(lgd, bound)`, and each x in
    [e, t_lam] of the tau-fixed
    engine (`build_tau_fixed(lgd, ...)`, or `tau_engine`):
    * the parameters summed over the tau-engine's reduced word of x equal
      the length of x in the Sigma_breve engine (Lusztig's weight function
      L = l_breve restricted to W^tau);
    * [e, t_lam] of the tau-engine is the set of x in the Sigma_breve
      interval with tau(x.lam) = x.lam and tau x.w tau^-1 = x.w, tau the
      Frobenius on X_* (the Bruhat order of W^tau is that of W restricted).
    Each engine keeps its own tables: their elements compare by value."""
    breve = build_affine(lgd)
    tau = tau_engine or build_tau_fixed(lgd, breve)
    params = lgd.echelonnage().parameter_function()
    t, t_inv = lgd.tau_cochar, mat_integer_inverse(lgd.tau_cochar)
    checked, bad = 0, []
    for lam in tau_fixed_classes(lgd, bound):
        interval = tau.lower_interval(tau.translation(lam))
        for x in sorted(interval):
            word, _omega = tau.normal_form(x)
            if sum(params[key] for key in word) != breve.length(x):
                bad.append("length at %r" % (x,))
        fixed = {x for x in breve.lower_interval(breve.translation(lam))
                 if lgd.tau_endo(x.lam) == x.lam and mat_mul(mat_mul(t, x.w), t_inv) == x.w}
        if fixed != interval:
            bad.append("interval at %r: %d tau-fixed in the breve interval, %d in "
                       "the tau interval" % (lam, len(fixed), len(interval)))
        checked += len(interval)
    return checked, bad
