"""Dict-arithmetic Kazhdan-Lusztig solve: the reference for `rootfold.hecke`.

The library holds the bar rows and the KL solve on packed ints
(`hecke._PackedRows`).  These functions are the same coset enumeration,
R-polynomial recursion and downward solve with every coefficient a
`LaurentPoly` dict, as `HeckeAlgebra` computed them before; the tests compare
whole tables against them.  `decoded_rows` is the one way the tests read the
library's packed rows.
"""

from rootfold.echelonnage import TheoremViolation
from rootfold.hecke import KL_INTERVAL_CAP, _add_term
from rootfold.lattice import ResourceCap
from rootfold.ring import LaurentPoly


def decoded_rows(H, y_min, J):
    """(elems, rows) of `H._interval_rows(y_min, J)`, each row decoded to
    {i: LaurentPoly}."""
    packed = H._interval_rows(y_min, J)
    return packed.elems, [packed.row(j) for j in range(len(packed.elems))]


def dict_interval_rows(H, y_min, J):
    """(elems, rows) of the cosets x W_J below y_min W_J and the bar rows of
    M_J, rows[j] = {i: LaurentPoly}, by `_add_term` on dicts."""
    eng = H.engine
    mult = eng.multiply
    right = [(t, eng._s_aff_map[t]) for t in J]

    def fixer(sw, w):
        return next((t for t, r in right if mult(sw, r) == w), None)

    word, _omega = eng.normal_form(y_min)
    cosets = {eng.identity}
    for key in reversed(word):
        s = eng._s_aff_map[key]
        for w in list(cosets):
            sw = mult(s, w)
            if sw not in cosets and fixer(sw, w) is None:
                cosets.add(sw)
        if len(cosets) > KL_INTERVAL_CAP:
            raise ResourceCap("Bruhat interval exceeded cap")
    elems = sorted(cosets, key=eng.length)
    index = {x: i for i, x in enumerate(elems)}
    lengths = [eng.length(x) for x in elems]
    walls = [(key, s, H._eps(key)) for key, s in eng.s_aff]
    left = [[None] * len(elems) for _ in walls]

    def times(k, j):
        i = left[k][j]
        if i is None:
            key, s, _eps = walls[k]
            w = elems[j]
            sw = mult(s, w)
            i = index.get(sw)
            if i is None:
                t = fixer(sw, w)
                if t is not None and H.weights[t] != H.weights[key]:
                    raise TheoremViolation("weight function is not well-defined")
                i = -1 if t is None else j
            left[k][j] = i
        return i

    rows = [{0: LaurentPoly.one()}]
    for j in range(1, len(elems)):
        for k in range(len(walls)):
            sx = times(k, j)
            if sx >= 0 and lengths[sx] < lengths[j]:
                break
        key, _s, eps = walls[k]
        v_inv = LaurentPoly.v_power(-H.weights[key])
        row = {}
        for w, c in rows[sx].items():
            sw = times(k, w)
            if sw == w:
                _add_term(row, w, c * v_inv)
                continue
            _add_term(row, sw, c)
            if lengths[sw] > lengths[w]:
                _add_term(row, w, -(c * eps))
        rows.append(row)
    return elems, rows


def dict_kl_table(H, y):
    """{x_max: p_{x_max,y}} over the cosets below y, solved downwards on the
    dict rows, with the bar self-consistency and bar-invariance checks."""
    eng = H.engine
    J, y_min, g = H._right_descents(y)
    elems, rows = dict_interval_rows(H, y_min, J)
    top = len(elems) - 1
    cols = [[] for _ in elems]
    for w, row in enumerate(rows):
        for x, r in row.items():
            if x != w:
                cols[x].append((w, r))
    p = {top: LaurentPoly.one()}
    pbar = {top: LaurentPoly.one()}
    for x in range(top - 1, -1, -1):
        f = LaurentPoly.zero()
        for w, r in cols[x]:
            if w in pbar:
                f = f + pbar[w] * r
        if f.bar() != -f or f.constant_term() != 0:
            raise TheoremViolation("bar self-consistency failed in KL solve")
        px = f.negative_part()
        if not px.is_zero():
            p[x] = px
            pbar[x] = px.bar()
    c = {}
    for w, pw in pbar.items():
        for x, r in rows[w].items():
            _add_term(c, x, pw * r)
    if c != p:
        raise TheoremViolation("canonical basis element is not bar-invariant")
    return {eng.multiply(x, g): p.get(i, LaurentPoly.zero())
            for i, x in enumerate(elems)}

