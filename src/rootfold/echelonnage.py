"""Echelonnage, Knop and Macdonald root systems from Galois actions.

A LocalGroupDatum packages a based root datum with an inertia action I and a
Frobenius automorphism tau normalizing it.  From these we compute

  Sigma_breve  = N'_I(Phi)            with  res_I(Phi^vee) = Sigma_breve^vee,
  Sigma_0      = res'_tau(Sigma_breve) with  N_tau(Sigma_breve^vee) = Sigma_0^vee,
  Sigma_0_tilde = res_tau(Sigma_breve),
  Sigma_1      = Sigma_0 union Sigma_0_tilde,

running both characterizations of each system and insisting they agree
(Sigma_1, read only by the Macdonald check and the report, is built on
first read).
Special simple roots are detected by the middle-orbit criterion on A_{2n}
components, and the Hecke parameter of each simple affine reflection is the
length of the longest element of the parabolic subgroup generated by its
tau-orbit of affine walls of Sigma_breve, read off the orbits that Sigma_0
records: the orbit size for an orthogonal orbit, 3/2 of it for a union of
linked pairs, and for an affine wall the number of Sigma_breve components
folded into its component of Sigma_0 (which reproduces the table values
for the unramified unitary patterns: 3 on the special node, 2 on folded
middle nodes, 1 elsewhere).
"""

from __future__ import annotations

from functools import cached_property, reduce
from math import lcm
from operator import mul, sub

from .folding import RootSystemV, base_permutation, dual_mismatch, fold
from .lattice import MalformedAction, TheoremViolation, coinvariants
from .linalg import (
    identity_matrix,
    integer_solver,
    mat_mul,
    mat_transpose,
    mat_vec,
    vec_dot,
)
from .rootdata import AutomorphismAction


class LocalGroupDatum:
    """A based root datum with its inertia and Frobenius actions, both
    `AutomorphismAction`s.  `frobenius` is generated by tau (the identity
    when none is given): its `group` and `cochar_group` list 1, tau, tau^2."""

    def __init__(self, datum, inertia_generators=(), frobenius=None, label=""):
        self.datum = datum
        self.label = label or datum.label
        self.inertia = AutomorphismAction(datum, inertia_generators)
        n = datum.rank
        self.frobenius = AutomorphismAction(
            datum, (identity_matrix(n) if frobenius is None else frobenius,))
        (self.tau_char,) = self.frobenius.generators
        (self.tau_cochar,) = self.frobenius.cochar_generators
        inertia_set = set(self.inertia.group)
        tau_inv = mat_transpose(self.tau_cochar)
        for g in self.inertia.group:
            if mat_mul(mat_mul(self.tau_char, g), tau_inv) not in inertia_set:
                raise MalformedAction("frobenius does not normalize the inertia action")
        self.coinv = coinvariants(n, self.inertia.cochar_generators)
        self.tau_endo = self.coinv.endo_from_matrix(self.tau_cochar)
        self._ech = None

    def mu_defect(self, mu):
        """The first of "dominant", "fixed by the inertia" and "fixed by the
        Frobenius" that the cocharacter mu (a tuple) is not, or None."""
        if not self.datum.is_dominant_cochar(mu):
            return "dominant"
        if any(mat_vec(g, mu) != mu for g in self.inertia.cochar_group):
            return "fixed by the inertia"
        if mat_vec(self.tau_cochar, mu) != mu:
            return "fixed by the Frobenius"
        return None

    def echelonnage(self):
        if self._ech is None:
            self._ech = EchelonnageData(self)
        return self._ech


class SigmaSystem:
    """A folded system on both sides of the duality, with lattice classes.

    For the k-th simple root, `base_classes[k]` is the class of its coroot
    in X_*(T)_I, the lattice `coinv`, and `lower(lam, c)` is
    lam - sum_k c_k base_classes[k] (`CoinvariantLattice.lowering`).  The two
    folds are built independently, and `rs_root` and `rs_co` are their
    systems; `EchelonnageData` checks that the dual of the res-side system,
    carried across by the invariant form, is the norm-side system
    (`folding.dual_mismatch`).  `orbits` and the label are the root fold's:
    which simple roots of the source were folded into the k-th simple root,
    the same on both sides, as the automorphisms permute both bases.  The
    system owns the pairing of the classes with its roots (`pairing`, one
    `CoinvariantLattice.section_pairing`, on first read) and the one
    dominance test on classes, `is_dominant`.
    """

    def __init__(self, root_fold, co_fold, coinv, base_classes, name):
        self._root_fold = root_fold
        self.rs_root = rs_root = root_fold.system
        self.rs_co = rs_co = co_fold.system
        self.orbits = root_fold.orbits
        self.coinv = coinv
        self.base_classes = tuple(base_classes)
        self.name = name
        self.lower = coinv.lowering(self.base_classes)
        # int coordinates over the free parts of the classes, the columns
        # of the matrix solved; with no classes every difference solves to
        # (), and class_leq's check below keeps only the zero one
        self._class_coords, dependent = integer_solver(
            mat_transpose([c.free for c in self.base_classes]))
        if dependent:
            raise ArithmeticError("rows are linearly dependent")
        # <root, coroot> = 2 on the base, over the two denominators
        two = 2 * rs_root._den * rs_co._den
        for root, coroot in zip(rs_root._base_int, rs_co._base_int):
            if vec_dot(root, coroot) != two:
                raise TheoremViolation("%s: <root, coroot> != 2 on the base" % name)

    def type_label(self):
        return self._root_fold.type_label()

    @cached_property
    def pairing(self):
        """(den, rows): rows[k][i] = den <alpha_k, b_i> all ints, for the
        positive roots alpha_k in the order of `rs_root._positive_coords` and
        the free basis b_i of `coinv` (`CoinvariantLattice.section_pairing`)."""
        rs = self.rs_root
        return self.coinv.section_pairing(rs._den, rs._positive_vectors)

    @cached_property
    def base_rows(self):
        """The rows of `pairing` at the simple roots, in the order of the base."""
        rows, pos = self.pairing[1], self.rs_root._positive_coords
        return tuple(rows[pos.index(e)] for e in identity_matrix(len(self.base_classes)))

    def is_dominant(self, lam):
        """<alpha, lam> >= 0 for every simple root alpha."""
        return all(sum(map(mul, row, lam.free)) >= 0 for row in self.base_rows)

    def class_leq(self, lam, mu):
        """lam <= mu in the cone of the coroot classes inside X_*(T)_I:
        mu - lam is a nonnegative integral combination of `base_classes`
        (torsion coordinates included)."""
        sol = self._class_coords(tuple(map(sub, mu.free, lam.free)))
        if sol is None or min(sol, default=0) < 0:
            return False
        return self.lower(mu, sol) == lam


def _orbit_classes(co_fold, classes, coinv):
    """The classes of the simple coroots of a fold of a coroot system, from
    the classes of the source's simple coroots in `coinv`: the orbit sum,
    doubled for a non-orthogonal orbit under N' (the rule by which
    `folding.fold` sums the base)."""
    out = []
    for orb, orth in co_fold.orbits:
        total = reduce(coinv.add, [classes[i] for i in orb])
        out.append(coinv.add(total, total) if not orth and co_fold.op == "Nprime"
                   else total)
    return out


class EchelonnageData:
    def __init__(self, lgd):
        self.lgd = lgd
        datum = lgd.datum
        gram_star = datum._gram_star_pair
        char = datum.root_system()
        cochar = datum.coroot_system()

        # Sigma_breve: res_I(Phi^vee) = Sigma^vee and N'_I(Phi) = Sigma
        breve_co = fold(cochar, lgd.inertia.cochar_generators, "res")
        breve_root = fold(char, lgd.inertia.generators, "Nprime")
        if dual_mismatch(breve_co.system, breve_root.system, gram_star):
            raise TheoremViolation("Sigma_breve: the two characterizations disagree")
        # the class of a representative coroot of each orbit
        classes = [lgd.coinv.project(datum.simple_coroots[orb[0]])
                   for orb, _orth in breve_co.orbits]
        breve = self.sigma_breve = SigmaSystem(breve_root, breve_co, lgd.coinv,
                                               classes, "Sigma_breve")

        # induced tau action on Sigma_breve, as a permutation of its simple
        # roots (raises MalformedAction unless tau permutes them)
        tau_char, tau_cochar = lgd.frobenius.generators, lgd.frobenius.cochar_generators
        self._tau_perm = base_permutation(breve.rs_root, lgd.tau_char)

        # Sigma_0: N_tau(Sigma^vee) = Sigma_0^vee and res'_tau(Sigma) = Sigma_0
        sigma0_co = fold(breve.rs_co, tau_cochar, "N")
        sigma0_root = fold(breve.rs_root, tau_char, "resprime")
        if dual_mismatch(sigma0_co.system, sigma0_root.system, gram_star):
            raise TheoremViolation("Sigma_0: the two characterizations disagree")
        sigma0 = self.sigma0 = SigmaSystem(
            sigma0_root, sigma0_co, lgd.coinv,
            _orbit_classes(sigma0_co, breve.base_classes, lgd.coinv), "Sigma_0")

        # Knop system: res_tau(Sigma_breve), with its dual N'_tau(Sigma^vee)
        knop_root = fold(breve.rs_root, tau_char, "res")
        knop_co = fold(breve.rs_co, tau_cochar, "Nprime")
        # duality the other way around: res on the root side, N' on coroots
        if dual_mismatch(knop_root.system, knop_co.system, datum._gram_pair):
            raise TheoremViolation("Knop system: res_tau dual does not match "
                                   "N'_tau of the coroots")
        self.sigma0_tilde = SigmaSystem(
            knop_root, knop_co, lgd.coinv,
            _orbit_classes(knop_co, breve.base_classes, lgd.coinv), "Sigma_0_tilde")

        # special roots by the A_{2n} middle-orbit criterion
        self.special = self._special_roots(breve.rs_root, sigma0)
        # the Galois criterion must coincide with non-orthogonality of the
        # tau-orbit (end of the Knop comparison proof)
        for k, (orb, orth) in enumerate(sigma0.orbits):
            if (k in self.special) != (not orth):
                raise TheoremViolation("special-root criterion disagrees with "
                                       "orbit orthogonality")

        # halving construction of the Knop system must match res_tau
        rs0 = sigma0.rs_root
        halved = tuple(a if k in self.special else tuple(2 * x for x in a)
                       for k, a in enumerate(rs0._base_int))
        if RootSystemV._closed((2 * rs0._den, halved),
                               (rs0._gram_den, rs0._gram_int)) != knop_root.system:
            raise TheoremViolation("Knop system: halving construction disagrees "
                                   "with res_tau")

    @cached_property
    def sigma1(self):
        """The Macdonald system Sigma_0 union Sigma_0_tilde as (den, the
        frozenset of its int vectors), built on first read."""
        r0, r1 = self.sigma0.rs_root, self.sigma0_tilde.rs_root
        den = lcm(r0._den, r1._den)
        return den, frozenset(r0._vectors(r0._coords, den) + r1._vectors(r1._coords, den))

    @cached_property
    def sigma1_nonreduced(self):
        """a/2 is in Sigma_1 for some a: Sigma_1 meets its double."""
        return not self.sigma1[1].isdisjoint(tuple(2 * x for x in a) for a in self.sigma1[1])

    # -- special roots -----------------------------------------------------

    def _special_roots(self, breve_root, sigma0):
        comp_of = breve_root.component_of
        node = self._tau_perm
        special = set()
        for k, (orb, _orth) in enumerate(sigma0.orbits):
            rep = orb[0]
            ci = comp_of[rep]
            comp = breve_root.components[ci]
            # (i) an A_{2n} component
            if len(comp) % 2 or breve_root.component_types[ci][0] != "A":
                continue
            # (ii) the first power of tau that maps the component to itself
            # acts non-trivially on it; tau permutes the nodes, so some
            # power maps rep back into its component
            cur = node
            while comp_of[cur[rep]] != ci:
                cur = tuple(node[i] for i in cur)
            if all(cur[i] == i for i in comp):
                continue
            # (iii) rep is one of the two middle simple roots of the path
            path = _path_order(breve_root.cartan(), comp)
            m = len(path) // 2
            if rep in (path[m - 1], path[m]):
                special.add(k)
        return frozenset(special)

    # -- parameters ---------------------------------------------------------

    def parameter_function(self, overrides=None):
        """L on the simple affine reflections of Sigma_0, keyed by
        ("fin", k) for the k-th simple root of Sigma_0 and ("aff", c) for the
        affine node of its c-th component.

        Default: L(s) = the length of the longest element w_O of the finite
        parabolic generated by the tau-orbit O of affine walls of Sigma_breve
        that s folds.  For ("fin", k), O is the k-th orbit that Sigma_0
        records: W_O is (Z/2)^|O| when O is orthogonal, and otherwise one
        W(A2) per linked pair, so L = 3|O|/2 (TheoremViolation unless every
        node of O has exactly one linked partner in O).  For ("aff", c), O is
        the affine walls of the Sigma_breve components folded into the c-th
        component of Sigma_0, pairwise orthogonal: L = their number.
        Overrides (same keys) replace defaults."""
        overrides = dict(overrides or {})
        breve, sigma0 = self.sigma_breve.rs_root, self.sigma0
        cart = breve.cartan()
        params = {}
        for c, comp in enumerate(sigma0.rs_root.components):
            params[("aff", c)] = len({breve.component_of[i]
                                      for k in comp for i in sigma0.orbits[k][0]})
        for k, (orb, orth) in enumerate(sigma0.orbits):
            if not orth and any(sum(1 for j in orb if j != i and cart[i][j]) != 1
                                for i in orb):
                raise TheoremViolation("orbit %r is not a union of linked pairs"
                                       % (orb,))
            params[("fin", k)] = len(orb) if orth else 3 * len(orb) // 2
        for key in params:
            if key in overrides:
                params[key] = int(overrides.pop(key))
                if params[key] < 1:
                    raise ValueError("parameters must be >= 1")
        if overrides:
            raise ValueError("unknown override keys: %r" % sorted(overrides))
        return params

    # -- reporting -----------------------------------------------------------

    def report(self, params):
        """The systems, the special roots and the parameters `params` (a
        result of `parameter_function`)."""
        return {
            "sigma_breve": self.sigma_breve.type_label(),
            "sigma0": self.sigma0.type_label(),
            "sigma0_tilde": self.sigma0_tilde.type_label(),
            "sigma1_nonreduced": self.sigma1_nonreduced,
            "special": sorted(self.special),
            "parameters": {"%s:%d" % k: v for k, v in sorted(params.items())},
        }


def _path_order(cart, comp):
    """The nodes of a type-A component of rank >= 2 along its path, from
    its lowest end."""
    links = {i: [j for j in comp if j != i and cart[i][j]] for i in comp}
    path = [min(i for i in comp if len(links[i]) == 1)]
    while len(path) < len(comp):
        path.append(next(j for j in links[path[-1]] if j not in path))
    return path

