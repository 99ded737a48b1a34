"""Echelonnage, Knop and Macdonald root systems from Galois actions.

A LocalGroupDatum packages a based root datum with an inertia action I and a
Frobenius automorphism tau normalizing it.  From these we compute

  Sigma_breve  = N'_I(Phi)            with  res_I(Phi^vee) = Sigma_breve^vee,
  Sigma_0      = res'_tau(Sigma_breve) with  N_tau(Sigma_breve^vee) = Sigma_0^vee,
  Sigma_0_tilde = res_tau(Sigma_breve),
  Sigma_1      = Sigma_0 union Sigma_0_tilde,

running both characterizations of each system and insisting they agree.
Special simple roots are detected by the middle-orbit criterion on A_{2n}
components, and the Hecke parameter of each simple affine reflection is the
length of the longest element of the parabolic subgroup generated by its
orbit of affine walls (which reproduces the table values for the unramified
unitary patterns: 3 on the special node, 2 on folded middle nodes, 1
elsewhere).
"""

from __future__ import annotations

from fractions import Fraction

from .folding import (
    RootSystemV,
    _form_identification,
    cartan_closure,
    cartan_of_gram,
    fold,
    form_value,
)
from .lattice import MalformedAction, coinvariants, group_closure
from .linalg import (
    identity_matrix,
    is_positive_definite,
    mat_integer_inverse,
    mat_transpose,
    mat_vec,
    vec_dot,
    vec_neg,
    vec_scale,
)
from .rootdata import AutomorphismAction, _components


class TheoremViolation(RuntimeError):
    """Two constructions that a theorem forces to agree came out different."""


class UnparameterizedComponent(ValueError):
    """No default parameter applies and no override was supplied."""


class LocalGroupDatum:
    """A based root datum together with inertia and Frobenius actions."""

    def __init__(self, datum, inertia_generators=(), frobenius=None, label=""):
        self.datum = datum
        self.label = label or datum.label
        self.inertia = AutomorphismAction(datum, inertia_generators)
        n = datum.rank
        self.tau_char = tuple(map(tuple, frobenius)) if frobenius is not None \
            else identity_matrix(n)
        # tau must itself be a pinned automorphism
        AutomorphismAction(datum, [self.tau_char])
        self.tau_cochar = mat_transpose(mat_integer_inverse(self.tau_char))
        inertia_set = set(self.inertia.group)
        tau_inv = mat_integer_inverse(self.tau_char)
        for g in self.inertia.group:
            from .linalg import mat_mul
            if mat_mul(mat_mul(self.tau_char, g), tau_inv) not in inertia_set:
                raise MalformedAction("frobenius does not normalize the inertia action")
        self.coinv = coinvariants(n, self.inertia.cochar_generators)
        self.tau_endo = self.coinv.endo_from_matrix(self.tau_cochar)
        self._ech = None

    def echelonnage(self):
        if self._ech is None:
            self._ech = EchelonnageData(self)
        return self._ech

    def tau_order(self):
        from .linalg import mat_mul
        n = self.datum.rank
        p = self.tau_char
        k = 1
        while p != identity_matrix(n):
            p = mat_mul(p, self.tau_char)
            k += 1
        return k


class SigmaSystem:
    """A folded system on both sides of the duality, with lattice classes.

    base_pairs[k] = (root vector in X^* (x) Q, coroot vector in X_* (x) Q,
    coroot class in X_*(T)_I).  The two folded systems are built
    independently and verified against each other.
    """

    def __init__(self, rs_root, rs_co, base_classes, name):
        self.rs_root = rs_root
        self.rs_co = rs_co
        self.base_classes = tuple(base_classes)
        self.name = name
        for root, coroot in zip(rs_root.base, rs_co.base):
            if vec_dot(root, coroot) != 2:
                raise TheoremViolation("%s: <root, coroot> != 2 on the base" % name)

    @property
    def base(self):
        return self.rs_root.base

    @property
    def cobase(self):
        return self.rs_co.base

    def type_label(self):
        return self.rs_root.type_label()

    def classify(self):
        return self.rs_root.classify()


def _check_dual_match(rs_res_co, rs_norm_root, iota, name):
    """res-side fold of coroots, dualized and carried across the form
    identification, must equal the norm-side fold of roots exactly."""
    lhs = rs_res_co.dual()
    lhs_base = tuple(tuple(mat_vec(iota, b)) for b in lhs.base)
    lhs_roots = {tuple(mat_vec(iota, r)) for r in lhs.roots}
    if lhs_base != rs_norm_root.base or lhs_roots != set(rs_norm_root.roots):
        raise TheoremViolation("%s: the two characterizations disagree" % name)


class EchelonnageData:
    def __init__(self, lgd):
        self.lgd = lgd
        datum = lgd.datum
        iota = _form_identification(datum)
        char = datum.root_system()
        cochar = datum.coroot_system()
        I_char = lgd.inertia.group
        I_cochar = lgd.inertia.cochar_group

        # Sigma_breve: res_I(Phi^vee) = Sigma^vee and N'_I(Phi) = Sigma
        breve_co = fold(cochar, I_cochar, "res")
        breve_root = fold(char, I_char, "Nprime")
        _check_dual_match(breve_co, breve_root, iota, "Sigma_breve")
        classes = []
        for orb, _orth in breve_co.orbits:
            rep = datum.simple_coroots[orb[0]]
            classes.append(lgd.coinv.project(rep))
        self.sigma_breve = SigmaSystem(breve_root, breve_co, classes, "Sigma_breve")

        # induced tau action on Sigma_breve
        tau_grp_char = group_closure([lgd.tau_char])
        tau_grp_cochar = group_closure([lgd.tau_cochar])
        base_set = set(breve_root.base)
        for b in breve_root.base:
            if tuple(Fraction(x) for x in mat_vec(lgd.tau_char, b)) not in base_set:
                raise MalformedAction("frobenius does not preserve the Sigma_breve base")

        # Sigma_0: N_tau(Sigma^vee) = Sigma_0^vee and res'_tau(Sigma) = Sigma_0
        sigma0_co = fold(breve_co, tau_grp_cochar, "N")
        sigma0_root = fold(breve_root, tau_grp_char, "resprime")
        _check_dual_match(sigma0_co, sigma0_root, iota, "Sigma_0")
        classes0 = []
        for orb, _orth in sigma0_co.orbits:
            total = None
            for i in orb:
                c = self.sigma_breve.base_classes[i]
                total = c if total is None else total + c
            classes0.append(total)
        self.sigma0 = SigmaSystem(sigma0_root, sigma0_co, classes0, "Sigma_0")

        # Knop system: res_tau(Sigma_breve), with its dual N'_tau(Sigma^vee)
        knop_root = fold(breve_root, tau_grp_char, "res")
        knop_co = fold(breve_co, tau_grp_cochar, "Nprime")
        # duality the other way around: res on the root side, N' on coroots
        lhs = knop_root.dual()
        G = datum.gram()
        lhs_base = tuple(tuple(mat_vec(G, b)) for b in lhs.base)
        lhs_roots = {tuple(mat_vec(G, r)) for r in lhs.roots}
        if lhs_base != knop_co.base or lhs_roots != set(knop_co.roots):
            raise TheoremViolation("Knop system: res_tau dual does not match "
                                   "N'_tau of the coroots")
        self.sigma0_tilde_root = knop_root
        self.sigma0_tilde_co = knop_co

        # special roots by the A_{2n} middle-orbit criterion
        self.special = self._special_roots(breve_root, lgd.tau_char, sigma0_root)
        # the Galois criterion must coincide with non-orthogonality of the
        # tau-orbit (end of the Knop comparison proof)
        for k, (orb, orth) in enumerate(sigma0_root.orbits):
            if (k in self.special) != (not orth):
                raise TheoremViolation("special-root criterion disagrees with "
                                       "orbit orthogonality")

        # halving construction of the Knop system must match res_tau
        halved = []
        for k, a in enumerate(sigma0_root.base):
            halved.append(vec_scale(Fraction(1, 2), a) if k in self.special else a)
        rebuilt = RootSystemV(halved, sigma0_root.gram)
        if tuple(rebuilt.base) != tuple(knop_root.base) or \
                set(rebuilt.roots) != set(knop_root.roots):
            raise TheoremViolation("Knop system: halving construction disagrees "
                                   "with res_tau")

        # Macdonald system
        union = sorted(set(sigma0_root.roots) | set(knop_root.roots))
        self.sigma1 = tuple(union)
        self.sigma1_nonreduced = any(
            tuple(vec_scale(Fraction(1, 2), a)) in set(union) for a in union
        )

        self.parameters = None  # computed on demand with optional overrides
        self._affine_nodes = None

    # -- special roots -----------------------------------------------------

    def _special_roots(self, breve_root, tau_char, sigma0_root):
        base = breve_root.base
        cart = breve_root.cartan()
        comps = _components(cart)
        comp_of = {}
        for ci, comp in enumerate(comps):
            for i in comp:
                comp_of[i] = ci
        index = {b: i for i, b in enumerate(base)}

        def tau_node(i):
            return index[tuple(Fraction(x) for x in mat_vec(tau_char, base[i]))]

        special = set()
        for k, (orb, _orth) in enumerate(sigma0_root.orbits):
            rep = orb[0]
            comp = comps[comp_of[rep]]
            # (i) an A_{2n} component: a path, all bonds single, even size
            path = _path_order(cart, comp)
            if path is None or len(path) % 2 != 0:
                continue
            lengths = {form_value(breve_root.gram, base[i], base[i]) for i in comp}
            if len(lengths) != 1:
                continue
            # (ii) some power of tau stabilizes the component and acts
            # non-trivially on it
            stab_nontrivial = False
            node = {i: tau_node(i) for i in range(len(base))}
            cur = {i: i for i in range(len(base))}
            order = 1
            while True:
                cur = {i: node[cur[i]] for i in cur}
                if comp_of[cur[rep]] == comp_of[rep]:
                    if any(cur[i] != i for i in comp):
                        stab_nontrivial = True
                    break
                order += 1
                if order > 2 * len(base) + 2:
                    break
            if not stab_nontrivial:
                continue
            # (iii) rep is one of the two middle simple roots of the path
            m = len(path) // 2
            if rep in (path[m - 1], path[m]):
                special.add(k)
        return frozenset(special)

    # -- parameters ---------------------------------------------------------

    def affine_nodes(self):
        """Nodes of the affine diagram of Sigma_breve: ("fin", i) for simple
        roots, ("aff", c) per component, with their wall gradient vectors."""
        if self._affine_nodes is not None:
            return self._affine_nodes
        rs = self.sigma_breve.rs_root
        cart = rs.cartan()
        comps = _components(cart)
        nodes = {}
        for i in range(len(rs.base)):
            nodes[("fin", i)] = rs.base[i]
        self._components = comps
        self._highest = {}
        for ci, comp in enumerate(comps):
            theta = _highest_root(rs, comp)
            self._highest[ci] = theta
            nodes[("aff", ci)] = vec_neg(theta)
        self._affine_nodes = nodes
        return nodes

    def parameter_function(self, overrides=None):
        """L on the simple affine reflections of Sigma_0, keyed by
        ("fin", k) for the k-th simple root of Sigma_0 and ("aff", c) for the
        affine node of its c-th component.

        Default: L(w_pi) = length of the longest element of the finite
        parabolic generated by the tau-orbit pi of affine walls of
        Sigma_breve.  Overrides (same keys) replace defaults; a non-finite
        orbit parabolic without an override raises."""
        overrides = dict(overrides or {})
        rs = self.sigma_breve.rs_root
        nodes = self.affine_nodes()
        comps = self._components
        tau_char = self.lgd.tau_char
        index = {b: i for i, b in enumerate(rs.base)}
        comp_of = {}
        for ci, comp in enumerate(comps):
            for i in comp:
                comp_of[i] = ci

        def tau_on_node(nd):
            kind, v = nd
            if kind == "fin":
                return ("fin", index[tuple(Fraction(x)
                                           for x in mat_vec(tau_char, rs.base[v]))])
            theta = self._highest[v]
            img = tuple(Fraction(x) for x in mat_vec(tau_char, theta))
            rootset = set(rs.roots)
            if img not in rootset:
                raise TheoremViolation("tau does not permute highest roots")
            # locate the component of the image
            ci = comp_of[_support_rep(rs, img)]
            if self._highest[ci] != img:
                raise TheoremViolation("tau image of a highest root is not highest")
            return ("aff", ci)

        # orbits of nodes under tau
        remaining = set(nodes)
        orbits = []
        for nd in sorted(remaining):
            if nd not in remaining:
                continue
            orb = [nd]
            cur = tau_on_node(nd)
            while cur != nd:
                orb.append(cur)
                cur = tau_on_node(cur)
            for x in orb:
                remaining.discard(x)
            orbits.append(tuple(sorted(orb)))

        # Sigma_0 keys: simple k <-> tau-orbit of finite Sigma_breve simples;
        # affine c0 <-> tau-orbit of components
        fin_orbit_key = {}
        for k, (orb, _orth) in enumerate(self.sigma0.rs_root.orbits):
            fin_orbit_key[frozenset(orb)] = ("fin", k)
        comp_orbit_key = {}
        for ci in range(len(comps)):
            orbit_comps = set()
            c = ci
            while c not in orbit_comps:
                orbit_comps.add(c)
                theta = self._highest[c]
                img = tuple(Fraction(x) for x in mat_vec(tau_char, theta))
                c = comp_of[_support_rep(rs, img)]
            comp_orbit_key[frozenset(orbit_comps)] = ("aff", min(orbit_comps))

        params = {}
        for orb in orbits:
            kinds = {nd[0] for nd in orb}
            if len(kinds) != 1:
                raise TheoremViolation("tau mixes finite and affine walls")
            if "fin" in kinds:
                key = fin_orbit_key[frozenset(nd[1] for nd in orb)]
            else:
                key = comp_orbit_key[frozenset(nd[1] for nd in orb)]
            if key in overrides:
                val = int(overrides.pop(key))
                if val < 1:
                    raise ValueError("parameters must be >= 1")
                params[key] = val
                continue
            vecs = [nodes[nd] for nd in orb]
            gram_sub = tuple(tuple(form_value(rs.gram, u, v) for v in vecs) for u in vecs)
            if not is_positive_definite(gram_sub):
                raise UnparameterizedComponent(
                    "orbit %r generates an infinite parabolic; supply an override"
                    % (orb,))
            params[key] = _parabolic_length(gram_sub)
        if overrides:
            raise ValueError("unknown override keys: %r" % sorted(overrides))
        self.parameters = params
        return params

    # -- reporting -----------------------------------------------------------

    def report(self):
        params = self.parameters if self.parameters is not None \
            else self.parameter_function()
        return {
            "sigma_breve": self.sigma_breve.type_label(),
            "sigma0": self.sigma0.type_label(),
            "sigma0_tilde": self.sigma0_tilde_root.type_label(),
            "sigma1_nonreduced": self.sigma1_nonreduced,
            "special": sorted(self.special),
            "parameters": {"%s:%d" % k: v for k, v in sorted(params.items())},
        }


def _path_order(cart, comp):
    """Order a component's nodes along a path; None unless it is a
    single-bonded path (type A)."""
    deg = {}
    for i in comp:
        nbrs = [j for j in comp if j != i and cart[i][j] != 0]
        for j in nbrs:
            if cart[i][j] * cart[j][i] != 1:
                return None
        deg[i] = nbrs
    if len(comp) == 1:
        return list(comp)
    ends = [i for i in comp if len(deg[i]) == 1]
    if len(ends) != 2 or any(len(deg[i]) > 2 for i in comp):
        return None
    path = [min(ends)]
    prev = None
    while len(path) < len(comp):
        cur = path[-1]
        nxt = [j for j in deg[cur] if j != prev]
        if len(nxt) != 1:
            return None
        prev = cur
        path.append(nxt[0])
    return path


def _support_rep(rs, root):
    """Index of some simple root in the support of a root."""
    for i, c in enumerate(rs.coords[root]):
        if c != 0:
            return i
    raise ValueError("zero root")


def _highest_root(rs, comp):
    """Highest root of one component of a based system."""
    best = None
    best_h = None
    for r in rs.positive_roots():
        c = rs.coords[r]
        if any(c[i] != 0 for i in range(len(rs.base)) if i not in comp):
            continue
        h = sum(c)
        if best is None or h > best_h:
            best, best_h = r, h
    return best


def _parabolic_length(gram_sub):
    """Number of positive roots of the finite system whose base has the
    positive definite Gram matrix gram_sub (= length of the longest
    parabolic element)."""
    return len(cartan_closure(cartan_of_gram(gram_sub))) // 2


def breve_sigma(lgd):
    return lgd.echelonnage().sigma_breve


def sigma_zero(lgd):
    return lgd.echelonnage().sigma0


def knop_sigma(lgd):
    return lgd.echelonnage().sigma0_tilde_root


def macdonald_sigma(lgd):
    ech = lgd.echelonnage()
    return ech.sigma1, ech.sigma1_nonreduced


def special_roots(lgd):
    return lgd.echelonnage().special


def parameter_function(lgd, overrides=None):
    return lgd.echelonnage().parameter_function(overrides)
