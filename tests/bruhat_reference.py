"""The recursive Bruhat order: the reference for `rootfold.affine`.

The library reads the Bruhat order from one place, the subword interval
`ExtendedAffineWeyl.lower_interval`, and finds maximal elements by one pass in
decreasing length against those intervals.  These functions are the
recursion that the engine ran before, with its memo of Bruhat pairs kept per
engine here, and the pairwise `extremal_elements` that used it; the tests
compare interval membership and the length-ordered pass against them.
"""

import weakref

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


def pairwise_extremal_elements(eng, elements):
    """Bruhat-maximal members of a finite set, by a test of every pair."""
    elems = list(elements)
    out = []
    for x in elems:
        if any(x != y and bruhat_leq(eng, x, y) for y in elems):
            continue
        out.append(x)
    return frozenset(out)
