"""Theorem verification driver: runs every identity check over presets.

Each check emits one deterministic report line; the driver exit code is 0
when everything passes, 1 on a theorem failure, 3 on a resource cap.  This
is the engine behind `rootfold verify` and the acceptance suite.
"""

from __future__ import annotations

from .affine import coroot_identity_check, verify_extremal
from .echelonnage import TheoremViolation, UnparameterizedComponent
from .folding import verify_duality
from .hecke import CenterContext
from .lattice import ResourceCap
from .linalg import mat_vec
from .presets import load_preset, preset_names
from .ring import Cyc
from .testfn import ramified_descent_check, test_function, z_v_star_1j


def _fmt_mu(mu):
    return ",".join(str(x) for x in mu)


class Verifier:
    def __init__(self, mu_bound=4, kl_bound=4, central_box=1):
        self.mu_bound = mu_bound
        self.kl_bound = kl_bound
        self.central_box = central_box
        self.lines = []
        self.failed = False
        self.capped = False

    def record(self, check, preset, ok, detail=""):
        status = "PASS" if ok else "FAIL"
        if not ok:
            self.failed = True
        line = "%s %s preset=%s" % (status, check, preset)
        if detail:
            line += " %s" % detail
        self.lines.append(line)

    def run_preset(self, name):
        preset = load_preset(name)
        try:
            self._theorem_a(name, preset)
            center = self._theorem_b(name, preset)
            self._theorem_c(name, preset, center)
            self._theorem_d(name, preset, center)
            self._branching(name, preset, center)
            self._test_functions(name, preset, center)
        except ResourceCap as exc:
            self.capped = True
            self.lines.append("CAP resource preset=%s %s" % (name, exc))
        except (TheoremViolation, UnparameterizedComponent) as exc:
            self.record("internal-consistency", name, False, str(exc))

    # -- Theorem A ---------------------------------------------------------

    def _theorem_a(self, name, preset):
        lgd = preset.lgd
        groups = [("inertia", lgd.inertia.group, lgd.inertia.cochar_group)]
        from .lattice import group_closure
        full_char = group_closure(tuple(lgd.inertia.generators) + (lgd.tau_char,))
        full_cochar = group_closure(tuple(lgd.inertia.cochar_generators)
                                    + (lgd.tau_cochar,))
        groups.append(("galois", full_char, full_cochar))
        for tag, gch, gco in groups:
            rep = verify_duality(preset.datum, gch, gco)
            self.record("theorem-A(%s)" % tag, name, rep["ok"],
                        ";".join(rep["mismatches"]))

    # -- Theorem B ---------------------------------------------------------

    def _theorem_b(self, name, preset):
        lgd = preset.lgd
        # construction is self-checking (norm vs restriction on both levels,
        # the Knop halving construction, and the special-root coincidence)
        ech = lgd.echelonnage()
        params = ech.parameter_function(preset.overrides)
        detail = "sigma=%s sigma0=%s knop=%s special=%s L=%s" % (
            ech.sigma_breve.type_label(), ech.sigma0.type_label(),
            ech.sigma0_tilde_root.type_label(), sorted(ech.special),
            sorted(("%s:%d" % k, v) for k, v in params.items()))
        self.record("theorem-B", name, True, detail)
        # split case: Sigma_breve = Phi (Prasad-Raghunathan)
        if len(lgd.inertia.group) == 1:
            char = preset.datum.root_system()
            ok = set(ech.sigma_breve.rs_root.roots) == set(char.roots)
            self.record("theorem-B(split)", name, ok)
        # Macdonald: halved members of Sigma_1 are exactly the special roots
        halves = set()
        from fractions import Fraction
        from .linalg import vec_scale
        s1 = set(ech.sigma1)
        for k, a in enumerate(ech.sigma0.rs_root.base):
            if tuple(vec_scale(Fraction(1, 2), a)) in s1:
                halves.add(k)
        self.record("theorem-B(macdonald)", name, halves == set(ech.special))
        ok = coroot_identity_check(lgd)
        self.record("coroot-identity", name, ok)
        center = CenterContext(lgd, preset.overrides)
        return center

    # -- Theorem C ---------------------------------------------------------

    def _theorem_c(self, name, preset, center):
        lgd = preset.lgd
        engine = center.breve_engine
        mus = preset.datum.dominant_cochars_up_to(self.mu_bound, self.central_box)
        all_ok = True
        details = []
        for mu in mus:
            rep = verify_extremal(lgd, mu, engine)
            if not rep["ok"]:
                all_ok = False
                details.append("mu=%s:%s" % (_fmt_mu(mu), rep["mismatches"]))
        self.record("theorem-C", name, all_ok,
                    "checked %d mu" % len(mus) + (";".join(details)))

    # -- Theorem D ---------------------------------------------------------

    def _kl_lambdas(self, preset, center):
        lgd = preset.lgd
        out = []
        seen = set()
        h = center.chars.h
        for mu in preset.datum.dominant_cochars_up_to(self.kl_bound,
                                                      self.central_box):
            lam = lgd.coinv.project(mu)
            if lam in seen:
                continue
            seen.add(lam)
            if h.is_tau_fixed(lam) and h.is_dominant(lam):
                out.append(lam)
        return sorted(out, key=lambda c: (c.free, c.tors))

    def _theorem_d(self, name, preset, center):
        if not preset.kl_check:
            return
        lams = self._kl_lambdas(preset, center)
        all_ok = True
        bad = []
        for lam in lams:
            a = center.geometric_basis(lam)
            b = center.geometric_basis_kl(lam)
            if a != b:
                all_ok = False
                bad.append(repr(lam))
        self.record("theorem-D", name, all_ok,
                    "checked %d lambda" % len(lams) + ";".join(bad))

    # -- branching / decomposition ------------------------------------------

    def _branching_mus(self, preset):
        lgd = preset.lgd
        out = []
        for mu in preset.datum.dominant_cochars_up_to(self.mu_bound,
                                                      self.central_box):
            if all(mat_vec(g, mu) == tuple(mu) for g in lgd.inertia.cochar_group) \
                    and tuple(mat_vec(lgd.tau_cochar, mu)) == tuple(mu):
                out.append(mu)
        return out

    def _branching(self, name, preset, center):
        lgd = preset.lgd
        chars = center.chars
        all_ok = True
        details = []
        mus = self._branching_mus(preset)
        for mu in mus:
            mubar = lgd.coinv.project(mu)
            br = chars.branching(mu)
            tr = chars.tau_traces_on_H(mu)
            ok = (br.get(mubar) == 1 and tr.get(mubar) == 1
                  and all(a >= 0 for a in br.values())
                  and chars.dimension_bookkeeping(mu)
                  and chars.weight_equality_check(mu))
            if not ok:
                all_ok = False
                details.append("mu=%s" % _fmt_mu(mu))
        self.record("branching", name, all_ok,
                    "checked %d mu" % len(mus) + ";".join(details))

    # -- test functions -------------------------------------------------------

    def _test_functions(self, name, preset, center):
        lgd = preset.lgd
        chars = center.chars
        mus = self._branching_mus(preset)
        all_ok = True
        details = []
        for mu in mus:
            z = z_v_star_1j(center, mu)  # internally cross-checked
            mubar = lgd.coinv.project(mu)
            if z.coeffs.get(mubar) != Cyc.integer(1):
                all_ok = False
                details.append("top-coeff mu=%s" % _fmt_mu(mu))
            if len(lgd.inertia.group) == 1 and lgd.tau_order() == 1:
                # split: Gaitsgory form, coefficients = weight multiplicities
                for nu, c in z.coeffs.items():
                    lift = lgd.coinv.lift(nu)
                    m = center.chars.dual.weight_multiplicity(mu, lift)
                    if c != Cyc.integer(m):
                        all_ok = False
                        details.append("gaitsgory mu=%s" % _fmt_mu(mu))
        self.record("test-function", name, all_ok,
                    "checked %d mu" % len(mus) + ";".join(details))
        if preset.tower_small is not None:
            cfg = preset.tower_config(j=1)
            ok = True
            det = []
            for mu in mus[: 3]:
                rep = ramified_descent_check(cfg, mu)
                if not rep["ok"]:
                    ok = False
                    det.append("descent mu=%s" % _fmt_mu(mu))
                test_function(cfg, mu)  # cross-checked internally
                cfg0 = preset.tower_config(j=1, degenerate=True)
                if test_function(cfg0, mu) != z_v_star_1j(
                        CenterContext(cfg0.lgd_big), mu):
                    ok = False
                    det.append("degenerate mu=%s" % _fmt_mu(mu))
            self.record("tower", name, ok, ";".join(det))


def run_verify(names=None, mu_bound=4, kl_bound=4):
    """Run all checks over the presets; returns (exit_code, lines)."""
    names = list(names) if names else list(preset_names())
    v = Verifier(mu_bound=mu_bound, kl_bound=kl_bound)
    for name in names:
        v.run_preset(name)
    if v.capped:
        code = 3
    elif v.failed:
        code = 1
    else:
        code = 0
    summary = "VERIFY %s: %d checks over %d presets" % (
        "FAILED" if code else "PASSED", len(v.lines), len(names))
    return code, v.lines + [summary]
