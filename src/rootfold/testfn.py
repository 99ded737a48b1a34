"""Test-function expansions in the geometric basis, and ramified descent.

z_V_star_1j expands the central element attached to V_mu over the geometric
basis, with multiplicity-space traces as coefficients; the same element is
assembled directly from the tau-twisted character of V_mu^I and the two must
agree.  For a two-step field tower (totally ramified step E_j / E_j0) the
expansion descends through induction, which ramified_descent_check verifies
at the level of graded twisted characters.
"""

from __future__ import annotations

from fractions import Fraction

from .echelonnage import LocalGroupDatum, TheoremViolation
from .hecke import BernsteinElement, CenterContext
from .lattice import MalformedAction
from .linalg import identity_matrix, mat_integer_inverse, mat_mul, mat_vec
from .ring import Cyc


def z_v_star_1j(center, mu, cross_check=True):
    """Z_{V_mu} * 1_J = sum over tau-fixed dominant lambda of
    tr(tau | H_mu(lambda)) C_{lambda,J}.

    With cross_check the element is recomputed directly from the twisted
    character of V_mu^I (its dominant coefficients are the z-coordinates)
    and the two assemblies must agree."""
    chars = center.chars
    traces = chars.tau_traces_on_H(mu)
    total = BernsteinElement({})
    for lam in sorted(traces, key=lambda c: (c.free, c.tors)):
        t = traces[lam]
        if t:
            total = total + center.geometric_basis(lam).scale(t)
    if cross_check:
        tw = chars.twisted_invariants_character(mu)
        direct = {}
        h = chars.h
        for nu, val in tw.items():
            if h.is_dominant(nu):
                direct[nu] = Cyc.integer(val)
            else:
                dom = center.tau_engine.dominant_class(nu)
                if tw.get(dom, 0) != val:
                    raise TheoremViolation("twisted character is not "
                                           "Weyl-invariant")
        if total != BernsteinElement(direct):
            raise TheoremViolation("geometric-basis assembly disagrees with "
                                   "the direct twisted character")
    return total


class FieldTowerConfig:
    """Galois data for a tower: the E_j0-level group has inertia I and
    Frobenius tau, the totally ramified step E_j keeps tau and shrinks the
    inertia to a subgroup."""

    def __init__(self, datum, inertia_big, inertia_small, frobenius=None,
                 label="tower"):
        self.label = label
        self.lgd_big = LocalGroupDatum(datum, inertia_big, frobenius,
                                       label=label + "/E_j0")
        self.lgd_small = LocalGroupDatum(datum, inertia_small, frobenius,
                                         label=label + "/E_j")
        big = set(self.lgd_big.inertia.cochar_group)
        for g in self.lgd_small.inertia.cochar_group:
            if g not in big:
                raise MalformedAction("E_j inertia is not contained in the "
                                      "E_j0 inertia")

    def coset_representatives(self):
        """Representatives of I_big / I_small (cocharacter matrices),
        identity first."""
        small = set(self.lgd_small.inertia.cochar_group)
        reps = []
        seen = set()
        n = self.lgd_big.datum.rank
        for g in (identity_matrix(n),) + tuple(self.lgd_big.inertia.cochar_group):
            coset = frozenset(mat_mul(g, s) for s in small)
            if coset not in seen:
                seen.add(coset)
                reps.append(g)
        return tuple(reps)

    def project(self, nu_small):
        """X_*(T)_{I_Ej} -> X_*(T)_{I_Ej0}."""
        return self.lgd_big.coinv.project(self.lgd_small.coinv.lift(nu_small))


def _graded_twisted_character(lgd_grading, lgd_inertia, dual, g_outer, mu):
    """Trace of g_outer on V_mu^{I'} graded by the coarser lattice of
    lgd_grading: 1/|I'| sum_{s in I'} sum_{g s nu = nu} tr(g s | V_mu(nu)),
    keyed by the class of nu in X_*(T)_{I}."""
    group = lgd_inertia.inertia.cochar_group
    coinv = lgd_grading.coinv
    table = list(dual.weight_table(mu).items())
    acc = {}
    for s in group:
        h = mat_mul(g_outer, s)
        traces = dual.trace_table(h, mu)
        for _c, nu_vec, _m in table:
            nu = tuple(int(x) for x in nu_vec)
            if tuple(mat_vec(h, nu)) != nu:
                continue
            tr = traces.get(tuple(Fraction(x) for x in nu), 0)
            if tr:
                key = coinv.project(nu)
                acc[key] = acc.get(key, 0) + tr
    out = {}
    for key, val in acc.items():
        q = Fraction(val, len(group))
        if q.denominator != 1:
            raise TheoremViolation("non-integral graded trace")
        if q:
            out[key] = int(q)
    return out


def ramified_descent_check(cfg, mu):
    """V^{I_Ej} = Ind(V)^{I_Ej0} as graded modules under the Frobenius.

    Both sides are compared through their X_*(T)_{I_Ej0}-graded twisted
    characters at every power of the Frobenius: the left side restricts the
    inertia to I_Ej, the right side is the induced module, whose diagonal
    blocks contribute through conjugated operators h^{-1} tau^r s h running
    over coset representatives h of I_Ej0 / I_Ej."""
    lgd_big, lgd_small = cfg.lgd_big, cfg.lgd_small
    from .characters import DualGroup
    dual = DualGroup(lgd_big.datum)
    mu = tuple(mu)
    n = lgd_big.tau_order()
    reps = cfg.coset_representatives()
    small_set = set(lgd_small.inertia.cochar_group)
    mismatches = []
    for r in range(n):
        g = identity_matrix(lgd_big.datum.rank)
        for _ in range(r):
            g = mat_mul(g, lgd_big.tau_cochar)
        lhs = _graded_twisted_character(lgd_big, lgd_small, dual, g, mu)
        rhs = {}
        for h in reps:
            hinv = mat_integer_inverse(h)
            for s in lgd_big.inertia.cochar_group:
                m = mat_mul(hinv, mat_mul(mat_mul(g, s), h))
                # diagonal block: h^{-1} (g s) h must lie in tau^r I_Ej
                grp_elt = mat_mul(mat_integer_inverse(g), m)
                if grp_elt not in small_set:
                    continue
                traces = dual.trace_table(m, mu)
                for _c, nu_vec, _m2 in dual.weight_table(mu).items():
                    nu = tuple(int(x) for x in nu_vec)
                    if tuple(mat_vec(m, nu)) != nu:
                        continue
                    tr = traces.get(tuple(Fraction(x) for x in nu), 0)
                    if tr:
                        key = lgd_big.coinv.project(nu)
                        rhs[key] = rhs.get(key, 0) + tr
        denom = len(lgd_big.inertia.cochar_group)
        rhs_out = {}
        for key, val in rhs.items():
            q = Fraction(val, denom)
            if q.denominator != 1:
                raise TheoremViolation("non-integral induced trace")
            if q:
                rhs_out[key] = int(q)
        if lhs != rhs_out:
            mismatches.append("power %d: graded characters differ" % r)
    return {"label": cfg.label, "mu": list(mu), "mismatches": mismatches,
            "ok": not mismatches}


def test_function(cfg, mu, overrides_small=None, cross_check=True):
    """Expansion (test function) of Z_{V_mu,j} * 1_J over the E_j0-group.

    Route one follows the descent formula: E_j-level multiplicity traces and
    geometric-basis coefficients, with the inner sum over W_{E_j0}-classes
    inside each W_{E_j}-orbit contributing one Bernstein function each
    (dominant representatives).  Route two assembles the element directly
    from the E_j-level twisted character pushed down to the coarser lattice;
    the two must agree."""
    center_small = CenterContext(cfg.lgd_small, overrides_small)
    center_big = CenterContext(cfg.lgd_big)
    chars = center_small.chars
    mu = tuple(mu)
    traces = chars.tau_traces_on_H(mu)
    # W_{E_j0}-generators acting on the E_j-level lattice
    big_gens = center_big.tau_engine.simple_matrices
    small_coinv = cfg.lgd_small.coinv
    big_endos = [small_coinv.endo_from_matrix(m) for m in big_gens]

    def big_orbit_classes(small_orbit):
        pool = set(small_orbit)
        classes = []
        while pool:
            seed = sorted(pool, key=lambda c: (c.free, c.tors))[0]
            orb = {seed}
            frontier = [seed]
            while frontier:
                nxt = []
                for c in frontier:
                    for e in big_endos:
                        c2 = e(c)
                        if c2 not in orb:
                            orb.add(c2)
                            nxt.append(c2)
                frontier = nxt
            if not orb <= pool:
                raise TheoremViolation("W_{E_j0} does not preserve the "
                                       "W_{E_j}-orbit")
            pool -= orb
            classes.append(seed)
        return classes

    coeffs = {}
    for lam in sorted(traces, key=lambda c: (c.free, c.tors)):
        t = traces[lam]
        if not t:
            continue
        C = center_small.geometric_basis(lam)
        for nu, c_nu in C.coeffs.items():
            small_orbit = center_small.tau_engine.weyl_orbit_class(nu)
            for rep in big_orbit_classes(small_orbit):
                kbar = cfg.project(rep)
                kdom = center_big.tau_engine.dominant_class(kbar)
                val = coeffs.get(kdom, Cyc.integer(0)) + c_nu * t
                coeffs[kdom] = val
    route1 = BernsteinElement(coeffs)
    if cross_check:
        tw = chars.twisted_invariants_character(mu)
        direct = {}
        for nu, val in tw.items():
            kbar = cfg.project(nu)
            if center_big.tau_engine.is_dominant_class(kbar) and \
                    center_big.chars.h.is_tau_fixed(kbar):
                direct[kbar] = direct.get(kbar, 0) + val
        direct = {k: Cyc.integer(v) for k, v in direct.items() if v}
        if route1 != BernsteinElement(direct):
            raise TheoremViolation("test function: descent assembly "
                                   "disagrees with the direct character")
    return route1
