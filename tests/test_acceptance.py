"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Every check is exact (tolerance zero).  Run with `pytest -s` to see the
per-criterion lines; stated runtime budgets are asserted with the wall
clock.
"""

import hashlib
import time
from fractions import Fraction

import pytest

from rootfold.affine import verify_extremal
from rootfold.characters import CharacterContext
from rootfold.echelonnage import LocalGroupDatum
from rootfold.folding import fold, verify_duality
from rootfold.hecke import CenterContext
from rootfold.linalg import fraction_rows, vec_scale
from rootfold.presets import load_preset, preset_names
from rootfold.rootdata import AutomorphismAction, build_datum, diagram_automorphism
from rootfold.testfn import ramified_descent_check, z_v_star_1j
from rootfold.testfn import test_function as tower_expansion
from rootfold.verify import run_verify
from test_folding import from_datum

# sha256 of the default `rootfold verify` report (lines joined by newlines);
# the same value is `report_sha256` in benchmarks/golden.json
VERIFY_REPORT_SHA256 = "3d4ee35357afd7040e00348849fb971189ea9ea97c5ffbb24e8fbaecc74486a5"


def flip(r):
    return tuple(r - 1 - i for i in range(r))


def _report(number, name, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print("ACCEPTANCE %d (%s): %s [%.2fs / budget %ds]"
          % (number, name, status, elapsed, budget))
    assert ok, "criterion %d failed" % number
    assert elapsed < budget, "criterion %d exceeded its runtime budget" % number


def _diagram_subgroups(cartan, rank):
    """Nontrivial subgroups of the diagram automorphism group, as generator
    permutation lists (plus the trivial group for types without symmetry)."""
    if cartan == "A" and rank >= 2:
        return [[flip(rank)]]
    if cartan == "D" and rank == 4:
        rho = (2, 1, 3, 0)
        t1 = (2, 1, 0, 3)   # swap nodes 1,3
        t2 = (3, 1, 2, 0)   # swap nodes 1,4
        t3 = (0, 1, 3, 2)   # swap nodes 3,4
        return [[t1], [t2], [t3], [rho], [rho, t3]]
    if cartan == "D" and rank >= 5:
        p = list(range(rank))
        p[-1], p[-2] = p[-2], p[-1]
        return [[tuple(p)]]
    if cartan == "E" and rank == 6:
        return [[(5, 1, 4, 3, 2, 0)]]
    return []


def test_criterion_1_duality():
    t0 = time.time()
    ok = True
    count = 0
    types = (["A%d" % r for r in range(1, 7)] + ["B%d" % r for r in range(2, 7)]
             + ["C%d" % r for r in range(2, 7)] + ["D%d" % r for r in range(4, 7)]
             + ["E6", "F4", "G2"])
    for t in types:
        d = build_datum(t, "adjoint")
        subgroups = _diagram_subgroups(t[0], int(t[1:])) or [[]]
        for gens in subgroups:
            mats = [diagram_automorphism(d, p) for p in gens]
            act = AutomorphismAction(d, mats)
            ok = ok and not verify_duality(d, act.group, act.cochar_group)
            count += 1
    _report(1, "theorem A duality, %d instances" % count, ok, time.time() - t0, 10)


def test_criterion_2_a2n_example():
    t0 = time.time()
    ok = True
    for n in (1, 2, 3):
        d = build_datum("A%d" % (2 * n), "adjoint")
        act = AutomorphismAction(d, [diagram_automorphism(d, flip(2 * n))])
        rs = from_datum(d)
        got = tuple(fold(rs, act.group, op).type_label()
                    for op in ("res", "resprime", "N", "Nprime"))
        ok = ok and got == ("B%d" % n, "C%d" % n, "B%d" % n, "C%d" % n)
    _report(2, "A_2n folding example", ok, time.time() - t0, 1)


def test_criterion_3_theorem_b():
    t0 = time.time()
    ok = True
    for name in preset_names():
        preset = load_preset(name)
        # fresh datum so every internal cross-check actually runs here
        lgd = LocalGroupDatum(preset.datum, preset.lgd.inertia.generators,
                              preset.lgd.tau_char, label=name)
        ech = lgd.echelonnage()   # raises if either characterization differs
        params = ech.parameter_function(dict(preset.overrides))
        # Macdonald union and reduced parts (Sigma_1,red = Knop system,
        # discarding halves instead gives Sigma_0)
        s1 = set(fraction_rows(*ech.sigma1))
        union = set(ech.sigma0.rs_root.roots) | set(ech.sigma0_tilde.rs_root.roots)
        ok = ok and s1 == union
        red_lower = {a for a in s1
                     if tuple(vec_scale(Fraction(1, 2), a)) not in s1}
        red_upper = {a for a in s1 if tuple(vec_scale(2, a)) not in s1}
        ok = ok and red_lower == set(ech.sigma0_tilde.rs_root.roots)
        ok = ok and red_upper == set(ech.sigma0.rs_root.roots)
        if len(lgd.inertia.group) == 1:
            ok = ok and set(ech.sigma_breve.rs_root.roots) == set(
                from_datum(preset.datum).roots)
        if name in ("su3-unramified", "su5-unramified"):
            special = next(iter(ech.special))
            ok = ok and params[("fin", special)] == 3
            ok = ok and params[("aff", 0)] == 1
    _report(3, "theorem B characterizations", ok, time.time() - t0, 10)


def test_criterion_4_theorem_c():
    t0 = time.time()
    ok = True
    checked = 0
    for name in preset_names():
        preset = load_preset(name)
        center = CenterContext(preset.lgd, preset.overrides)
        for mu in preset.datum.dominant_cochars_up_to(6, central_box=1):
            ok = ok and not verify_extremal(preset.lgd, mu, center.breve_engine)
            checked += 1
    _report(4, "theorem C over %d (preset, mu) pairs" % checked, ok,
            time.time() - t0, 120)


def test_criterion_5_theorem_d():
    t0 = time.time()
    ok = True
    checked = 0
    for name in ("su3-unramified", "su4-unramified"):
        preset = load_preset(name)
        center = CenterContext(preset.lgd, preset.overrides)
        h = center.chars.h
        seen = set()
        for mu in preset.datum.dominant_cochars_up_to(4, central_box=1):
            lam = preset.lgd.coinv.project(mu)
            if lam in seen:
                continue
            seen.add(lam)
            if not (h.is_tau_fixed(lam) and h.is_dominant(lam)):
                continue
            ok = ok and center.geometric_basis(lam) == center.geometric_basis_kl(lam)
            checked += 1
    _report(5, "theorem D bridge, %d highest weights" % checked, ok,
            time.time() - t0, 300)


def test_criterion_6_twining_matrix_oracle():
    t0 = time.time()
    from sl3_oracle import _pinned_involution, _sl3_weight_basis
    from fraction_linalg import gauss_solve
    from rootfold.linalg import mat_transpose
    d = build_datum("A2", "simply_connected")
    lgd = LocalGroupDatum(d, (), diagram_automorphism(d, flip(2)), label="su3")
    ctx = CharacterContext(lgd)
    theta = _pinned_involution()

    def T(X):
        return tuple(tuple(-x for x in row) for row in theta(X))

    basis = _sl3_weight_basis()
    tau = lgd.tau_cochar
    ok = True
    for wt in [(1, 1), (-1, -1), (0, 0)]:
        span = basis[wt]
        flat = [tuple(x for row in s for x in row) for s in span]
        trace = Fraction(0)
        for k, m in enumerate(span):
            img = tuple(x for row in T(m) for x in row)
            sol = gauss_solve(mat_transpose(flat), img)
            trace += sol[k]
        ok = ok and trace == ctx.dual.trace_table(tau, (1, 1)).get(wt, 0)
    _report(6, "twining vs explicit 8-dim matrices", ok, time.time() - t0, 1)


def test_criterion_7_branching():
    t0 = time.time()
    ok = True
    checked = 0
    for name in preset_names():
        preset = load_preset(name)
        lgd = preset.lgd
        chars = CharacterContext(lgd)
        for mu in preset.datum.dominant_cochars_up_to(6, central_box=1):
            from rootfold.linalg import mat_vec
            if any(tuple(mat_vec(g, mu)) != tuple(mu)
                   for g in lgd.inertia.cochar_group):
                continue
            if tuple(mat_vec(lgd.tau_cochar, mu)) != tuple(mu):
                continue
            mubar = lgd.coinv.project(mu)
            br = chars.branching(mu)
            tr = chars.tau_traces_on_H(mu)
            ok = ok and br.get(mubar) == 1
            ok = ok and tr.get(mubar) == 1
            ok = ok and all(a >= 0 for a in br.values())
            ok = ok and chars.dimension_bookkeeping(mu)
            ok = ok and chars.weight_equality_check(mu)
            checked += 1
    _report(7, "branching sanity over %d (preset, mu) pairs" % checked, ok,
            time.time() - t0, 120)


def test_criterion_8_test_functions():
    t0 = time.time()
    ok = True
    # split expansion = Gaitsgory form with Freudenthal coefficients
    preset = load_preset("split-a2")
    center = CenterContext(preset.lgd)
    mu = (1, 1)
    z = z_v_star_1j(center, mu)
    L = preset.lgd.coinv
    for nu, m in center.chars.dual.weight_table(mu).items():
        cls = L.project(tuple(int(x) for x in nu))
        if center.chars.h.is_dominant(cls):
            ok = ok and z.coeffs.get(cls) == m
    # top coefficient one in every expansion over the sweep
    for name in ("split-a1", "su3-unramified", "su4-unramified", "su3-ramified"):
        p2 = load_preset(name)
        c2 = CenterContext(p2.lgd, p2.overrides)
        for mu2 in p2.datum.dominant_cochars_up_to(4, central_box=1):
            from rootfold.linalg import mat_vec
            if any(tuple(mat_vec(g, mu2)) != tuple(mu2)
                   for g in p2.lgd.inertia.cochar_group):
                continue
            if tuple(mat_vec(p2.lgd.tau_cochar, mu2)) != tuple(mu2):
                continue
            z2 = z_v_star_1j(c2, mu2)
            ok = ok and z2.coeffs.get(p2.lgd.coinv.project(mu2)) == 1
    # tower: degenerate consistency and ramified descent
    tower = load_preset("tower-su3")
    cfg = tower.tower_config(j=1)
    cfg0 = tower.tower_config(j=1, degenerate=True)
    for mu3 in ((0, 0), (1, 1), (2, 2)):
        ok = ok and not ramified_descent_check(cfg, mu3)
        tower_expansion(cfg, mu3)
        ok = ok and tower_expansion(cfg0, mu3) == z_v_star_1j(
            CenterContext(cfg0.lgd_big), mu3)
    _report(8, "test-function expansions", ok, time.time() - t0, 60)


def test_criterion_9_determinism():
    t0 = time.time()
    code1, lines1 = run_verify()
    code2, lines2 = run_verify()
    report = "\n".join(lines1)
    # the digest pins the report itself, so a change that alters both runs
    # alike still fails
    ok = (code1 == 0 and code2 == 0 and report == "\n".join(lines2)
          and hashlib.sha256(report.encode()).hexdigest() == VERIFY_REPORT_SHA256)
    _report(9, "cmd_verify determinism (%d lines)" % len(lines1), ok,
            time.time() - t0, 600)
