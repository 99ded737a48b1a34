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

from operator import add, ge, mul, sub

from .echelonnage import TheoremViolation
from .folding import _ratio, fold
from .lattice import closure
from .linalg import identity_matrix, mat_mul, mat_vec, vec_dot


# (system value, mu, den) -> the Freudenthal table; the tables are never
# changed, so two threads racing on one key only compute it twice.
_TABLES = {}


def freudenthal(rs, mu, den=1):
    """Weight multiplicities of the irrep with highest weight mu / den (mu
    an int vector) for the root system rs (a RootSystemV).

    Returns {c: multiplicity} over coefficient tuples c >= 0 with
    nu = mu / den - sum_i c_i rs.base[i], listing exactly the weights
    (positive multiplicity) by increasing height sum(c), then by c.  The
    table depends on rs only through its value `rs._value`, so it is built
    once per process for each (value, mu, den) and kept in `_TABLES`; the
    dict returned is shared, and read-only to callers."""
    key = (rs._value, tuple(mu), den)
    out = _TABLES.get(key)
    if out is None:
        out = _TABLES.setdefault(key, _freudenthal(rs, mu, den))
    return out


def _freudenthal(rs, mu, den):
    """The table of `freudenthal`.  All arithmetic is exact and runs over
    base coordinates in ints: with x = sum_i c_i b_i, every inner product
    in Freudenthal's formula is a combination of (b_i|b_j), (mu|b_i) and
    (rho|b_i), each scaled to an int by one common factor, which cancels in
    the quotient.  Dominance is read from <nu, b_i^vee> = <mu, b_i^vee> -
    sum_j c_j C[i][j] for the Cartan matrix C of rs.

    The dominant weights are found by walking down from mu by positive
    roots alpha while staying dominant, which lowers <nu, b_i^vee> by the
    precomputed <alpha, b_i^vee>.  The walk reaches every dominant
    lambda <= mu: a saturated chain of dominant weights runs from lambda up
    to mu, and each cover in it is a positive root (Stembridge, "The partial
    order of dominant weights", Adv. Math. 136, 1998).  Their
    multiplicities are computed by increasing height, and each is given to
    the whole Weyl orbit of its weight (s_i adds <nu, b_i^vee> to c_i), so
    every weight that Freudenthal's sum reads has its multiplicity already:
    its dominant representative is higher, of lower height.
    """
    cart = rs.cartan()
    gram_mu = mat_vec(rs._gram_int, mu)
    # 2K (b_i|b_j), 2K (mu|b_i) and 4K (mu+rho|b_i), K = rs._den^2 gram_den den
    g = tuple(tuple(2 * den * x for x in row) for row in rs._base_gram)
    mb = tuple(2 * rs._den * vec_dot(b, gram_mu) for b in rs._base_int)
    two_rho = [sum(col) for col in zip(*rs._positive_coords)]
    mrb = tuple(2 * x + vec_dot(two_rho, row) for x, row in zip(mb, g))
    top = tuple(_ratio(2 * x, g[i][i]) for i, x in enumerate(mb))
    if any(not isinstance(t, int) or t < 0 for t in top):
        raise ValueError("mu must be a dominant weight")
    # per positive root alpha = sum_i a_i b_i: a, <alpha, b_i^vee>,
    # 2K (mu|alpha) and 2K (b_i|alpha)
    pos = [(a, tuple(sum(map(mul, a, row)) for row in cart), vec_dot(a, mb),
            mat_vec(g, a)) for a in rs._positive_coords]

    def pairing(c):
        return [t - sum(map(mul, c, row)) for t, row in zip(top, cart)]

    def down(c):
        p = pairing(c)
        for a, a_co, _a_mu, _g_a in pos:
            if all(map(ge, p, a_co)):
                yield tuple(map(add, c, a))

    def reflections(c):
        for i, p in enumerate(pairing(c)):
            if p:
                yield c[:i] + (c[i] + p,) + c[i + 1:]

    def height_order(cs):
        return sorted(cs, key=lambda c: (sum(c), c))

    zero = (0,) * len(rs._base_int)
    mult = {}
    for c in height_order(closure([zero], down)):
        if c == zero:
            m = 1
        else:
            # 2K ((mu+rho|mu+rho) - (nu+rho|nu+rho)) = 2K (2 (mu+rho|x) - (x|x))
            denom = vec_dot(c, mrb) - vec_dot(c, mat_vec(g, c))
            total = 0
            for a, _a_co, a_mu, g_a in pos:
                c2 = tuple(map(sub, c, a))
                while min(c2) >= 0:
                    m2 = mult.get(c2)
                    if m2:
                        # 2K (nu + k alpha|alpha), nu + k alpha = mu - sum c2_i b_i
                        total += (a_mu - vec_dot(c2, g_a)) * m2
                    c2 = tuple(map(sub, c2, a))
            if denom == 0:
                if total != 0:
                    raise TheoremViolation("Freudenthal 0/0 with nonzero numerator")
                continue
            m, rem = divmod(2 * total, denom)
            if rem or m < 0:
                raise TheoremViolation("non-integral Freudenthal multiplicity")
        if m:
            for w in closure([c], reflections):
                mult[w] = m
    return {c: mult[c] for c in height_order(mult)}


class DualGroup:
    """The dual group of the datum: root system Phi^vee in X_* (x) Q.

    Trace tables are memoized in a per-instance dict; confine an instance
    to one thread or guard access externally.  The folds of Phi^vee and the
    Freudenthal tables that the weight and trace tables read are built once
    per process for each value (`folding.fold`, `freudenthal`), so they are
    shared by every instance and every value-equal datum."""

    def __init__(self, datum):
        self.datum = datum
        self.system = datum.coroot_system()
        self._trace_tables = {}

    def weight_table(self, mu):
        """{nu: dim V_mu(nu)} over the weights of V_mu, for a dominant mu:
        the trace table of the identity."""
        mu = tuple(mu)
        if not self.datum.is_dominant_cochar(mu):
            raise ValueError("mu must be dominant")
        return self.trace_table(identity_matrix(self.datum.rank), mu)

    def weight_multiplicity(self, mu, nu):
        """dim V_mu(nu)."""
        return self.weight_table(mu).get(tuple(nu), 0)

    def trace_table(self, g_cochar, mu):
        """{nu: tr(g | V_mu(nu))} over the g-fixed weights nu, for a pinned
        automorphism g fixing mu, with the extension of V_mu acting
        trivially on the highest line.

        By the twisted Weyl character formula these traces are the weight
        multiplicities of the highest-weight module of the g-folded group;
        g-fixed weights outside its support have trace 0 and are omitted.
        The weights are mu - sum_i c_i base[i] in ints over the base of
        Phi^vee or of its N' fold, listed in the order of the Freudenthal
        table."""
        mu = tuple(mu)
        key = (g_cochar, mu)
        out = self._trace_tables.get(key)
        if out is not None:
            return out
        if tuple(mat_vec(g_cochar, mu)) != mu:
            raise ValueError("g does not fix mu")
        rs = self.system
        if g_cochar != identity_matrix(self.datum.rank):
            rs = fold(rs, (g_cochar,), "Nprime")
        cols = tuple(zip(*rs._base_int))
        out = {tuple([x - sum(map(mul, col, c)) for x, col in zip(mu, cols)]): m
               for c, m in freudenthal(rs, mu).items()}
        self._trace_tables[key] = out
        return out


def graded_trace(dual, mu, ops, coinv, d):
    """(1/d) sum_{h in ops} sum_{h nu = nu} tr(h | V_mu(nu)), keyed by the
    class coinv.project(nu) of each weight nu of V_mu.

    `ops` are pinned automorphisms fixing mu; every graded value must be an
    integer."""
    weights = dual.weight_table(mu)
    acc = {}
    for h in ops:
        traces = dual.trace_table(h, mu)
        for nu in weights:
            if mat_vec(h, nu) != nu:
                continue
            tr = traces.get(nu, 0)
            if tr:
                key = coinv.project(nu)
                acc[key] = acc.get(key, 0) + tr
    out = {}
    for key, val in acc.items():
        q, r = divmod(val, d)
        if r:
            raise TheoremViolation("non-integral graded trace")
        if q:
            out[key] = q
    return out


class FixedGroup:
    """H = G-hat^I: lattice X_*(T)_I, root system Sigma_breve^vee.

    Irreducible characters of the possibly disconnected H are carried by the
    connected part's highest-weight theory plus the central-character gate
    nu - lambda in Z Sigma_breve^vee (torsion coordinates included).
    Dominance is Sigma_breve's (`SigmaSystem.is_dominant`)."""

    def __init__(self, lgd):
        self.lgd = lgd
        self.coinv = lgd.coinv
        ech = lgd.echelonnage()
        self.sigma = ech.sigma_breve
        # Knop system for the tau-twisted character of V_{lambda,1}
        self.knop = ech.sigma0_tilde
        self._hw_cache = {}
        self._tw_cache = {}

    def is_dominant(self, lam):
        return self.sigma.is_dominant(lam)

    def is_tau_fixed(self, lam):
        return self.lgd.tau_endo(lam) == lam

    def hw_character(self, lam):
        """T-hat^I-character of the irreducible V_lambda of H: maps weight
        classes to dimensions."""
        return self._character(lam, self.sigma, self._hw_cache, False)

    def twisted_hw_character(self, lam):
        """tau-twisted character of V_{lambda,1}: maps tau-fixed weight
        classes to tr(tau | V_lambda(nu)), via the twisted Weyl character
        formula for the Knop-folded group."""
        return self._character(lam, self.knop, self._tw_cache, True)

    def _character(self, lam, sigma, cache, twisted):
        """{lam - sum_k c_k class_k: multiplicity} over the Freudenthal
        table of `sigma.rs_co` at the section of the dominant lam, memoized
        in `cache`; a twisted character needs a tau-fixed lam, and every
        weight of it must be tau-fixed."""
        out = cache.get(lam)
        if out is not None:
            return out
        if not self.is_dominant(lam):
            raise ValueError("lambda must be dominant")
        if twisted and not self.is_tau_fixed(lam):
            raise ValueError("lambda must be tau-fixed")
        den, v = self.coinv.section(lam)
        lower = sigma.lower
        out = {}
        for c, m in freudenthal(sigma.rs_co, v, den).items():
            nu = lower(lam, c)
            if twisted and not self.is_tau_fixed(nu):
                raise TheoremViolation("twisted character hit a non-fixed weight")
            out[nu] = m
        cache[lam] = out
        return out

    def weight_set(self, lam):
        """Wt(lambda) for the disconnected group (the gate-lifted support)."""
        return frozenset(self.hw_character(lam))


class CharacterContext:
    """All character-level computations attached to one local datum.

    Invariants characters, branching tables and tau-traces are memoized in
    per-instance dicts (as are those of its DualGroup and FixedGroup);
    confine an instance to one thread or guard access externally."""

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
        failed = self.lgd.mu_defect(mu)
        if failed:
            raise ValueError("mu must be %s" % failed)
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
        group = self.lgd.inertia.cochar_group
        out = graded_trace(self.dual, mu, [mat_mul(g, s) for s in group],
                           self.lgd.coinv, len(group))
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
                       if not any(k2 != k and self.h.sigma.class_leq(k, k2)
                                   for k2 in support)]
            for k in sorted(maximal):
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

