"""Weight multiplicities, twining characters, and branching to fixed groups.

The dual group of the local datum has root system Phi^vee inside the
cocharacter space; its irreducible V_mu is handled by an exact Freudenthal
recursion.  Traces of pinned automorphisms on weight spaces are computed as
ordinary multiplicities of the folded group (twisted Weyl character
formula), the fixed subgroup H = G-hat^I gets its highest-weight theory
through the quotient lattice X_*(T)_I with a central-character gate, and
branching multiplicities / tau-traces on multiplicity spaces come from
peeling characters from the top.
"""

from __future__ import annotations

from fractions import Fraction

from .echelonnage import TheoremViolation
from .folding import fold, form_value
from .lattice import group_closure
from .linalg import (
    frac_vec,
    gauss_solve,
    identity_matrix,
    mat_transpose,
    mat_vec,
    vec_add,
    vec_dot,
    vec_scale,
    vec_sub,
)
from .ring import Cyc


def _reflect_to_dominant(base, gram, v, sign=1):
    v = frac_vec(v)
    while True:
        for b in base:
            if sign * form_value(gram, b, v) < 0:
                c = Fraction(2) * form_value(gram, b, v) / form_value(gram, b, b)
                v = vec_sub(v, vec_scale(c, b))
                break
        else:
            return v


def freudenthal(base, positives, gram, mu):
    """Weight multiplicities of the irrep with highest weight mu.

    Returns {c: multiplicity} over coefficient tuples c >= 0 with
    nu = mu - sum_i c_i base_i, listing exactly the weights (positive
    multiplicity).  All arithmetic is exact.
    """
    base = tuple(frac_vec(b) for b in base)
    mu = frac_vec(mu)
    A = mat_transpose(base)
    lowest = _reflect_to_dominant(base, gram, mu, sign=-1)
    bounds_sol = gauss_solve(A, vec_sub(mu, lowest))
    if bounds_sol is None:
        raise ValueError("mu - w0(mu) is not in the root span")
    bounds = []
    for c in bounds_sol:
        if Fraction(c).denominator != 1 or c < 0:
            raise ValueError("bad weight box")
        bounds.append(int(c))
    rho = (Fraction(0),) * len(mu)
    for p in positives:
        rho = vec_add(rho, frac_vec(p))
    rho = vec_scale(Fraction(1, 2), rho)

    def B(u, v):
        return form_value(gram, u, v)

    pos_coords = []
    for p in positives:
        cp = gauss_solve(A, frac_vec(p))
        pos_coords.append(tuple(int(x) for x in cp))

    def vec_of(c):
        v = mu
        for ci, b in zip(c, base):
            if ci:
                v = vec_sub(v, vec_scale(ci, b))
        return v

    # dominant weights by increasing height
    import itertools
    all_cs = sorted(itertools.product(*(range(b + 1) for b in bounds)),
                    key=lambda c: (sum(c), c))
    cs_index = {}
    dominant_mult = {}
    for c in all_cs:
        cs_index[c] = vec_of(c)

    def lookup(c):
        """Multiplicity at an arbitrary box point, via its dominant
        representative."""
        v = cs_index[c]
        dom = _reflect_to_dominant(base, gram, v)
        return dominant_mult.get(dom, 0)

    norm_mu = B(vec_add(mu, rho), vec_add(mu, rho))
    for c in all_cs:
        v = cs_index[c]
        dom = _reflect_to_dominant(base, gram, v)
        if dom != v or dom in dominant_mult:
            continue
        if sum(c) == 0:
            dominant_mult[v] = 1
            continue
        denom = norm_mu - B(vec_add(v, rho), vec_add(v, rho))
        total = Fraction(0)
        for p, cp in zip(positives, pos_coords):
            k = 1
            while True:
                c2 = tuple(ci - k * cpi for ci, cpi in zip(c, cp))
                if any(x < 0 for x in c2):
                    break
                m2 = lookup(c2)
                if m2:
                    total += B(vec_add(v, vec_scale(k, frac_vec(p))), frac_vec(p)) * m2
                k += 1
        if denom == 0:
            if total != 0:
                raise TheoremViolation("Freudenthal 0/0 with nonzero numerator")
            dominant_mult[v] = 0
            continue
        m = 2 * total / denom
        if m.denominator != 1 or m < 0:
            raise TheoremViolation("non-integral Freudenthal multiplicity")
        if m:
            dominant_mult[v] = int(m)

    out = {}
    for c in all_cs:
        m = lookup(c)
        if m:
            out[c] = m
    return out


class WeightTable:
    """Weights of one irrep: coefficient tuples, vectors, multiplicities."""

    def __init__(self, base, mu, table):
        self.base = base
        self.mu = frac_vec(mu)
        self.table = table  # c -> mult

    def items(self):
        for c, m in self.table.items():
            v = self.mu
            for ci, b in zip(c, self.base):
                if ci:
                    v = vec_sub(v, vec_scale(ci, b))
            yield c, v, m

    def dimension(self):
        return sum(self.table.values())


class DualGroup:
    """The dual group of the datum: root system Phi^vee in X_* (x) Q."""

    def __init__(self, datum):
        self.datum = datum
        self.system = datum.coroot_system()
        self.gram = datum.gram_star()
        self._positives = self.system.positive_roots()
        self._tables = {}
        self._folds = {}
        self._trace_tables = {}

    def weight_table(self, mu):
        mu = tuple(mu)
        if mu not in self._tables:
            if not self.datum.is_dominant_cochar(mu):
                raise ValueError("mu must be dominant")
            tbl = freudenthal(self.system.base, self._positives, self.gram, mu)
            self._tables[mu] = WeightTable(self.system.base, mu, tbl)
        return self._tables[mu]

    def weight_multiplicity(self, mu, nu):
        for _c, v, m in self.weight_table(mu).items():
            if v == frac_vec(nu):
                return m
        return 0

    def dimension(self, mu):
        return self.weight_table(mu).dimension()

    def _folded(self, matrices):
        key = tuple(sorted(matrices))
        if key not in self._folds:
            grp = group_closure(list(matrices))
            folded = fold(self.system, grp, "Nprime")
            self._folds[key] = (folded, folded.positive_roots())
        return self._folds[key]

    def trace_table(self, g_cochar, mu):
        """{nu: tr(g | V_mu(nu))} over the g-fixed weights nu, for a pinned
        automorphism g fixing mu, with the extension of V_mu acting
        trivially on the highest line.

        By the twisted Weyl character formula these traces are the weight
        multiplicities of the highest-weight module of the g-folded group;
        g-fixed weights outside its support have trace 0 and are omitted."""
        mu = tuple(mu)
        key = (g_cochar, mu)
        if key in self._trace_tables:
            return self._trace_tables[key]
        if tuple(mat_vec(g_cochar, mu)) != mu:
            raise ValueError("g does not fix mu")
        n = self.datum.rank
        if g_cochar == identity_matrix(n):
            out = {tuple(v): m for _c, v, m in self.weight_table(mu).items()}
        else:
            folded, pos = self._folded((g_cochar,))
            tbl = freudenthal(folded.base, pos, self.gram, mu)
            out = {}
            for c, m in tbl.items():
                v = frac_vec(mu)
                for ci, b in zip(c, folded.base):
                    if ci:
                        v = vec_sub(v, vec_scale(ci, b))
                out[tuple(v)] = m
        self._trace_tables[key] = out
        return out

    def trace(self, g_cochar, mu, nu):
        """tr(g | V_mu(nu)); nu must be fixed by g."""
        nu = frac_vec(nu)
        if tuple(frac_vec(mat_vec(g_cochar, nu))) != nu:
            raise ValueError("g does not fix nu")
        return self.trace_table(g_cochar, tuple(mu)).get(tuple(nu), 0)


class FixedGroup:
    """H = G-hat^I: lattice X_*(T)_I, root system Sigma_breve^vee.

    Irreducible characters of the possibly disconnected H are carried by the
    connected part's highest-weight theory plus the central-character gate
    nu - lambda in Z Sigma_breve^vee (torsion coordinates included)."""

    def __init__(self, lgd):
        self.lgd = lgd
        self.coinv = lgd.coinv
        ech = lgd.echelonnage()
        self.sigma = ech.sigma_breve
        self.system = ech.sigma_breve.rs_co
        self.gram = lgd.datum.gram_star()
        self._positives = self.system.positive_roots()
        # Knop-side fold for the tau-twisted character of V_{lambda,1}
        self.knop_co = ech.sigma0_tilde_co
        self._knop_positives = self.knop_co.positive_roots()
        self._knop_classes = []
        for (orb, orth) in self.knop_co.orbits:
            total = None
            for i in orb:
                c = self.sigma.base_classes[i]
                total = c if total is None else total + c
            if not orth:
                total = total.scale(2)
            self._knop_classes.append(total)
        self._hw_cache = {}
        self._tw_cache = {}

    def section(self, lam):
        return self.coinv.section_vector(lam)

    def is_dominant(self, lam):
        sec = self.section(lam)
        return all(vec_dot(b, sec) >= 0 for b in self.sigma.base)

    def is_tau_fixed(self, lam):
        return self.lgd.tau_endo(lam) == lam

    def hw_character(self, lam):
        """T-hat^I-character of the irreducible V_lambda of H: maps weight
        classes to dimensions."""
        if lam in self._hw_cache:
            return self._hw_cache[lam]
        if not self.is_dominant(lam):
            raise ValueError("lambda must be dominant")
        tbl = freudenthal(self.system.base, self._positives, self.gram,
                          self.section(lam))
        out = {}
        for c, m in tbl.items():
            nu = lam
            for ci, cls in zip(c, self.sigma.base_classes):
                if ci:
                    nu = nu - cls.scale(ci)
            out[nu] = m
        self._hw_cache[lam] = out
        return out

    def twisted_hw_character(self, lam):
        """tau-twisted character of V_{lambda,1}: maps tau-fixed weight
        classes to tr(tau | V_lambda(nu)), via the twisted Weyl character
        formula for the Knop-folded group."""
        if lam in self._tw_cache:
            return self._tw_cache[lam]
        if not self.is_dominant(lam):
            raise ValueError("lambda must be dominant")
        if not self.is_tau_fixed(lam):
            raise ValueError("lambda must be tau-fixed")
        tbl = freudenthal(self.knop_co.base, self._knop_positives, self.gram,
                          self.section(lam))
        out = {}
        for c, m in tbl.items():
            nu = lam
            for ci, cls in zip(c, self._knop_classes):
                if ci:
                    nu = nu - cls.scale(ci)
            if not self.is_tau_fixed(nu):
                raise TheoremViolation("twisted character hit a non-fixed weight")
            out[nu] = m
        self._tw_cache[lam] = out
        return out

    def weight_set(self, lam):
        """Wt(lambda) for the disconnected group (the gate-lifted support)."""
        return frozenset(self.hw_character(lam))

    def class_leq(self, lam, mu):
        """lam <= mu in the Sigma_breve^vee cone inside X_*(T)_I."""
        diff = mu - lam
        cols = tuple(frac_vec(c.free) for c in self.sigma.base_classes)
        if not cols:
            return diff.is_zero()
        sol = gauss_solve(mat_transpose(cols), frac_vec(diff.free))
        if sol is None or any(c.denominator != 1 or c < 0 for c in sol):
            return False
        acc = self.coinv.zero()
        for c, cls in zip(sol, self.sigma.base_classes):
            acc = acc + cls.scale(int(c))
        return acc == diff


class CharacterContext:
    """All character-level computations attached to one local datum."""

    def __init__(self, lgd):
        self.lgd = lgd
        self.dual = DualGroup(lgd.datum)
        self.h = FixedGroup(lgd)
        self._inv_cache = {}
        self._br_cache = {}
        self._tau_cache = {}

    # -- characters of invariants -------------------------------------------

    def _check_mu(self, mu):
        mu = tuple(mu)
        if not self.lgd.datum.is_dominant_cochar(mu):
            raise ValueError("mu must be dominant")
        for g in self.lgd.inertia.cochar_group:
            if mat_vec(g, mu) != mu:
                raise ValueError("mu must be fixed by the inertia action")
        if tuple(mat_vec(self.lgd.tau_cochar, mu)) != mu:
            raise ValueError("mu must be fixed by the Frobenius")
        return mu

    def twisted_invariants_character(self, mu, outer=None):
        """T-hat^I-graded trace of `outer` (default tau) on V_mu^I:

            TW(nu-bar) = 1/|I| sum_{s in I} sum_{nu -> nu-bar, g s nu = nu}
                         tr(g s | V_mu(nu)).
        """
        mu = self._check_mu(mu)
        g = outer if outer is not None else self.lgd.tau_cochar
        key = (mu, g)
        if key in self._inv_cache:
            return self._inv_cache[key]
        coinv = self.lgd.coinv
        acc = {}
        group = self.lgd.inertia.cochar_group
        table = list(self.dual.weight_table(mu).items())
        from .linalg import mat_mul
        for s in group:
            h = mat_mul(g, s)
            traces = self.dual.trace_table(h, mu)
            for _c, nu_vec, _m in table:
                nu = tuple(int(x) for x in nu_vec)
                if tuple(mat_vec(h, nu)) != nu:
                    continue
                tr = traces.get(tuple(frac_vec(nu)), 0)
                if tr:
                    nub = coinv.project(nu)
                    acc[nub] = acc.get(nub, 0) + tr
        out = {}
        for nub, val in acc.items():
            q = Fraction(val, len(group))
            if q.denominator != 1:
                raise TheoremViolation("non-integral invariants trace")
            if q:
                out[nub] = int(q)
        self._inv_cache[key] = out
        return out

    def invariants_character(self, mu):
        """Dimensions of the T-hat^I-weight spaces of V_mu^I."""
        n = self.lgd.datum.rank
        return self.twisted_invariants_character(mu, outer=identity_matrix(n))

    # -- peel-offs -------------------------------------------------------------

    def _peel(self, char, table_fn, require_nonneg):
        remaining = {k: v for k, v in char.items() if v}
        out = {}
        guard = 0
        while remaining:
            guard += 1
            if guard > 10000:
                raise TheoremViolation("peel-off failed to terminate")
            support = list(remaining)
            maximal = [k for k in support
                       if not any(k2 != k and self.h.class_leq(k, k2) for k2 in support)]
            for k in sorted(maximal, key=lambda c: (c.free, c.tors)):
                a = remaining.get(k, 0)
                if not a:
                    continue
                if require_nonneg and a < 0:
                    raise TheoremViolation("negative branching multiplicity")
                if not self.h.is_dominant(k):
                    raise TheoremViolation("maximal weight is not dominant")
                out[k] = a
                for nu, m in table_fn(k).items():
                    val = remaining.get(nu, 0) - a * m
                    if val:
                        remaining[nu] = val
                    else:
                        remaining.pop(nu, None)
        return out

    def branching(self, mu):
        """a_{lambda, mu}: multiplicities of V_mu^I as a sum of H-irreps."""
        mu = tuple(mu)
        if mu not in self._br_cache:
            self._br_cache[mu] = self._peel(self.invariants_character(mu),
                                            self.h.hw_character, True)
        return self._br_cache[mu]

    def tau_traces_on_H(self, mu):
        """tr(tau | H_mu(lambda)) for every tau-fixed dominant lambda, by
        peeling the tau-twisted character of V_mu^I."""
        mu = tuple(mu)
        if mu not in self._tau_cache:
            self._tau_cache[mu] = self._peel(self.twisted_invariants_character(mu),
                                             self.h.twisted_hw_character, False)
        return self._tau_cache[mu]

    def tau_trace_on_H(self, mu, lam):
        if not self.h.is_tau_fixed(lam):
            raise ValueError("lambda must be tau-fixed")
        return Cyc.integer(self.tau_traces_on_H(mu).get(lam, 0))

    def weight_equality_check(self, mu):
        """Image of Wt(mu) equals Wt(mu-bar) of the fixed group."""
        mu = self._check_mu(mu)
        coinv = self.lgd.coinv
        upstairs = {coinv.project(lam) for lam in self.lgd.datum.weight_set(mu)}
        mubar = coinv.project(mu)
        return upstairs == set(self.h.weight_set(mubar))

    def dimension_bookkeeping(self, mu):
        """sum_lambda a_{lambda,mu} dim V_lambda == dim V_mu^I."""
        lhs = 0
        for lam, a in self.branching(mu).items():
            lhs += a * sum(self.h.hw_character(lam).values())
        rhs = sum(self.invariants_character(mu).values())
        return lhs == rhs


def fixed_point_datum(lgd):
    """The based root datum data of the fixed dual group G-hat^I: weight
    lattice X_*(T)_I, roots Sigma_breve^vee with base classes, realized by
    the FixedGroup machinery (cross-checked against the echelonnage system
    at construction time)."""
    return FixedGroup(lgd)


def twining_character(datum, sigma_cochar, mu):
    """{nu: tr(sigma | V_mu(nu))} over sigma-fixed weights of the dual-group
    module V_mu, for a splitting-preserving automorphism fixing mu."""
    return DualGroup(datum).trace_table(sigma_cochar, tuple(mu))


def weight_multiplicity(datum, mu, nu):
    """dim V_mu(nu) for the connected group with the given root datum
    (weights on the character side)."""
    system = datum.root_system()
    if not all(vec_dot(frac_vec(mu), frac_vec(cv)) >= 0 for cv in datum.simple_coroots):
        raise ValueError("mu must be dominant")
    tbl = freudenthal(system.base, system.positive_roots(), datum.gram(), mu)
    diff = vec_sub(frac_vec(mu), frac_vec(nu))
    coords = gauss_solve(mat_transpose(system.base), diff)
    if coords is None or any(c.denominator != 1 or c < 0 for c in coords):
        return 0
    return tbl.get(tuple(int(c) for c in coords), 0)
