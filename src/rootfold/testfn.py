"""Test-function expansions in the geometric basis, and ramified descent.

z_V_star_1j expands the central element attached to V_mu over the geometric
basis, with multiplicity-space traces as coefficients; the same element is
assembled directly from the tau-twisted character of V_mu^I and the two must
agree.  For a two-step field tower (totally ramified step E_j / E_j0) the
expansion descends through induction, which ramified_descent_check verifies
at the level of graded twisted characters.
"""

from __future__ import annotations

from functools import cached_property

from .echelonnage import TheoremViolation
from .hecke import BernsteinElement, CenterContext
from .lattice import MalformedAction, closure
from .linalg import identity_matrix, mat_integer_inverse, mat_mul


def z_v_star_1j(center, mu):
    """Z_{V_mu} * 1_J = sum over tau-fixed dominant lambda of
    tr(tau | H_mu(lambda)) C_{lambda,J}.

    The element is recomputed directly from the twisted character of V_mu^I
    (its dominant coefficients are the z-coordinates) and the two assemblies
    must agree."""
    chars = center.chars
    traces = chars.tau_traces_on_H(mu)
    total = BernsteinElement({})
    for lam in sorted(traces):
        t = traces[lam]
        if t:
            total = total + center.geometric_basis(lam).scale(t)
    tw = chars.twisted_invariants_character(mu)
    direct = {}
    h = chars.h
    for nu, val in tw.items():
        if h.is_dominant(nu):
            direct[nu] = val
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
    """Galois data for a tower: the E_j0-level group `lgd_big` has inertia I
    and Frobenius tau, the totally ramified step E_j (`lgd_small`) keeps tau
    and shrinks the inertia to a subgroup.  Both levels share one datum.
    The centres of the two levels are built once, on first use; a
    degenerate tower passes one object for both levels, which then share
    one centre."""

    def __init__(self, lgd_big, lgd_small):
        self.lgd_big = lgd_big
        self.lgd_small = lgd_small
        if lgd_small.datum is not lgd_big.datum \
                or lgd_small.tau_char != lgd_big.tau_char:
            raise MalformedAction("the two levels of a tower must share the "
                                  "datum and the Frobenius")
        big = set(lgd_big.inertia.cochar_group)
        for g in lgd_small.inertia.cochar_group:
            if g not in big:
                raise MalformedAction("E_j inertia is not contained in the "
                                      "E_j0 inertia")

    @cached_property
    def center_small(self):
        if self.lgd_small is self.lgd_big:
            return self.center_big
        return CenterContext(self.lgd_small)

    @cached_property
    def center_big(self):
        return CenterContext(self.lgd_big)

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


def ramified_descent_check(cfg, mu):
    """V^{I_Ej} = Ind(V)^{I_Ej0} as graded modules under the Frobenius.

    Both sides are compared through their X_*(T)_{I_Ej0}-graded twisted
    characters at every power of the Frobenius: the left side restricts the
    inertia to I_Ej, the right side is the induced module, whose diagonal
    blocks contribute through conjugated operators h^{-1} tau^r s h running
    over coset representatives h of I_Ej0 / I_Ej.  Returns the list of
    mismatches, empty when the two sides agree."""
    lgd_big, lgd_small = cfg.lgd_big, cfg.lgd_small
    from .characters import graded_trace
    dual = cfg.center_big.chars.dual
    mu = tuple(mu)
    coinv = lgd_big.coinv
    reps = cfg.coset_representatives()
    big_group = lgd_big.inertia.cochar_group
    small_group = lgd_small.inertia.cochar_group
    small_set = set(small_group)
    mismatches = []
    for r, g in enumerate(lgd_big.frobenius.cochar_group):
        # left: trace of tau^r on V_mu^{I_Ej}, graded by X_*(T)_{I_Ej0}
        lhs = graded_trace(dual, mu, [mat_mul(g, s) for s in small_group],
                           coinv, len(small_group))
        ginv = mat_integer_inverse(g)
        ops = []
        for h in reps:
            hinv = mat_integer_inverse(h)
            for s in big_group:
                m = mat_mul(hinv, mat_mul(mat_mul(g, s), h))
                # diagonal block: h^{-1} (g s) h must lie in tau^r I_Ej
                if mat_mul(ginv, m) in small_set:
                    ops.append(m)
        rhs = graded_trace(dual, mu, ops, coinv, len(big_group))
        if lhs != rhs:
            mismatches.append("power %d: graded characters differ" % r)
    return mismatches


def test_function(cfg, mu):
    """Expansion (test function) of Z_{V_mu,j} * 1_J over the E_j0-group.

    Route one follows the descent formula: E_j-level multiplicity traces and
    geometric-basis coefficients, with the inner sum over W_{E_j0}-classes
    inside each W_{E_j}-orbit contributing one Bernstein function each
    (dominant representatives).  Route two assembles the element directly
    from the E_j-level twisted character pushed down to the coarser lattice;
    the two must agree."""
    center_small = cfg.center_small
    center_big = cfg.center_big
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
            seed = min(pool)
            orb = set(closure([seed], lambda c: (e(c) for e in big_endos)))
            if not orb <= pool:
                raise TheoremViolation("W_{E_j0} does not preserve the "
                                       "W_{E_j}-orbit")
            pool -= orb
            classes.append(seed)
        return classes

    coeffs = {}
    for lam in sorted(traces):
        t = traces[lam]
        if not t:
            continue
        C = center_small.geometric_basis(lam)
        for nu, c_nu in C.coeffs.items():
            small_orbit = center_small.tau_engine.weyl_orbit_class(nu)
            for rep in big_orbit_classes(small_orbit):
                kbar = cfg.project(rep)
                kdom = center_big.tau_engine.dominant_class(kbar)
                coeffs[kdom] = coeffs.get(kdom, 0) + c_nu * t
    route1 = BernsteinElement(coeffs)
    tw = chars.twisted_invariants_character(mu)
    direct = {}
    for nu, val in tw.items():
        kbar = cfg.project(nu)
        if center_big.tau_engine.sigma.is_dominant(kbar) and \
                center_big.chars.h.is_tau_fixed(kbar):
            direct[kbar] = direct.get(kbar, 0) + val
    if route1 != BernsteinElement(direct):
        raise TheoremViolation("test function: descent assembly "
                               "disagrees with the direct character")
    return route1
