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
"""

import weakref

from rootfold.affine import admissible_set, extremal_elements

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
    Adm(mu) by the absolute orbit against Adm(mu) by the relative orbit."""
    datum = lgd.datum
    coinv = lgd.coinv
    mubar = coinv.project(mu)
    report = {"mu": list(mu), "mismatches": []}
    images = sorted({coinv.project(lam) for lam in datum.weight_set(mu)},
                    key=lambda c: (c.free, c.tors))
    for lam in images:
        if not engine.sigma.class_leq(engine.dominant_class(lam), mubar):
            report["mismatches"].append("dominance bridge fails at %r" % (lam,))
    maximal = extremal_elements(engine, {engine.translation(c) for c in images})
    expected = {engine.translation(c) for c in engine.weyl_orbit_class(mubar)}
    if maximal != expected:
        report["mismatches"].append("maximal translations differ from the orbit")
    adm0 = admissible_set(lgd, mu, engine=engine)
    if adm0 != relative_admissible_set(engine, mubar):
        report["mismatches"].append("the two admissible-set definitions differ")
    report["ok"] = not report["mismatches"]
    report["extremal"] = len(maximal)
    return report
