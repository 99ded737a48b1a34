"""Theorem verification driver: runs every identity check over presets.

Each check emits one deterministic report line; the driver exit code is 0
when everything passes, 1 on a theorem failure, 3 on a resource cap.  This
is the engine behind `rootfold verify` and the acceptance suite.
"""

from __future__ import annotations

from .affine import coroot_identity_check, verify_extremal
from .echelonnage import TheoremViolation
from .folding import verify_duality
from .hecke import CenterContext
from .lattice import ResourceCap
from .presets import load_preset, preset_names
from .testfn import ramified_descent_check, test_function, z_v_star_1j


def _fmt_mu(mu):
    return ",".join(str(x) for x in mu)


class Verifier:
    def __init__(self, mu_bound=4, kl_bound=4):
        self.mu_bound = mu_bound
        self.kl_bound = kl_bound
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
            # one enumeration of the dominant cocharacters, shared by C, D
            # and the branching and test-function checks
            mus = preset.datum.dominant_cochars_up_to(self.mu_bound)
            self._theorem_c(name, preset, center, mus)
            self._theorem_d(name, preset, center, mus)
            branch_mus = self._branching_mus(preset, mus)
            self._branching(name, preset, center, branch_mus)
            self._test_functions(name, preset, center, branch_mus)
        except ResourceCap as exc:
            self.capped = True
            self.lines.append("CAP resource preset=%s %s" % (name, exc))
        except TheoremViolation as exc:
            self.record("internal-consistency", name, False, str(exc))

    # -- Theorem A ---------------------------------------------------------

    def _theorem_a(self, name, preset):
        lgd = preset.lgd
        inertia = (lgd.inertia.generators, lgd.inertia.cochar_generators)
        galois = (inertia[0] + (lgd.tau_char,), inertia[1] + (lgd.tau_cochar,))
        for tag, (gch, gco) in (("inertia", inertia), ("galois", galois)):
            bad = verify_duality(preset.datum, gch, gco)
            self.record("theorem-A(%s)" % tag, name, not bad, ";".join(bad))

    # -- Theorem B ---------------------------------------------------------

    def _theorem_b(self, name, preset):
        lgd = preset.lgd
        # construction is self-checking (norm vs restriction on both levels,
        # the Knop halving construction, and the special-root coincidence)
        center = CenterContext(lgd, preset.overrides)
        ech = center.ech
        params = center.parameters
        detail = "sigma=%s sigma0=%s knop=%s special=%s L=%s" % (
            ech.sigma_breve.type_label(), ech.sigma0.type_label(),
            ech.sigma0_tilde.type_label(), sorted(ech.special),
            sorted(("%s:%d" % k, v) for k, v in params.items()))
        self.record("theorem-B", name, True, detail)
        # split case: Sigma_breve = Phi (Prasad-Raghunathan), base and roots
        if len(lgd.inertia.group) == 1:
            ok = ech.sigma_breve.rs_root == preset.datum.root_system()
            self.record("theorem-B(split)", name, ok)
        # Macdonald: halved members of Sigma_1 are exactly the special roots
        den, s1 = ech.sigma1
        doubles = {tuple(2 * x for x in a) for a in s1}
        rs0 = ech.sigma0.rs_root
        halves = {k for k, b in enumerate(rs0._base_int)
                  if tuple(den // rs0._den * x for x in b) in doubles}
        self.record("theorem-B(macdonald)", name, halves == set(ech.special))
        ok = coroot_identity_check(lgd)
        self.record("coroot-identity", name, ok)
        return center

    # -- Theorem C ---------------------------------------------------------

    def _theorem_c(self, name, preset, center, mus):
        lgd = preset.lgd
        engine = center.breve_engine
        details = []
        for mu in mus:
            bad = verify_extremal(lgd, mu, engine)
            if bad:
                details.append("mu=%s:%s" % (_fmt_mu(mu), bad))
        self.record("theorem-C", name, not details,
                    ";".join(["checked %d mu" % len(mus)] + details))

    # -- Theorem D ---------------------------------------------------------

    def _kl_lambdas(self, preset, center, mus):
        """Dominant tau-fixed images of the cocharacters up to kl_bound;
        `mus` are those up to mu_bound, reused when the bounds agree."""
        h = center.chars.h
        if self.kl_bound != self.mu_bound:
            mus = preset.datum.dominant_cochars_up_to(self.kl_bound)
        return sorted({lam for lam in map(preset.lgd.coinv.project, mus)
                       if h.is_tau_fixed(lam) and h.is_dominant(lam)})

    def _theorem_d(self, name, preset, center, mus):
        if not preset.kl_check:
            return
        lams = self._kl_lambdas(preset, center, mus)
        bad = [repr(lam) for lam in lams
               if center.geometric_basis(lam) != center.geometric_basis_kl(lam)]
        self.record("theorem-D", name, not bad,
                    ";".join(["checked %d lambda" % len(lams)] + bad))

    # -- branching / decomposition ------------------------------------------

    def _branching_mus(self, preset, mus):
        return [mu for mu in mus if preset.lgd.mu_defect(mu) is None]

    def _branching(self, name, preset, center, mus):
        lgd = preset.lgd
        chars = center.chars
        details = []
        for mu in mus:
            mubar = lgd.coinv.project(mu)
            br = chars.branching(mu)
            tr = chars.tau_traces_on_H(mu)
            ok = (br.get(mubar) == 1 and tr.get(mubar) == 1
                  and all(a >= 0 for a in br.values())
                  and chars.dimension_bookkeeping(mu)
                  and chars.weight_equality_check(mu))
            if not ok:
                details.append("mu=%s" % _fmt_mu(mu))
        self.record("branching", name, not details,
                    ";".join(["checked %d mu" % len(mus)] + details))

    # -- test functions -------------------------------------------------------

    def _test_functions(self, name, preset, center, mus):
        lgd = preset.lgd
        details = []
        for mu in mus:
            z = z_v_star_1j(center, mu)  # internally cross-checked
            mubar = lgd.coinv.project(mu)
            if z.coeffs.get(mubar) != 1:
                details.append("top-coeff mu=%s" % _fmt_mu(mu))
            if len(lgd.inertia.group) == 1 and len(lgd.frobenius.group) == 1:
                # split: Gaitsgory form, coefficients = weight multiplicities
                for nu, c in z.coeffs.items():
                    lift = lgd.coinv.lift(nu)
                    m = center.chars.dual.weight_multiplicity(mu, lift)
                    if c != m:
                        details.append("gaitsgory mu=%s" % _fmt_mu(mu))
        self.record("test-function", name, not details,
                    ";".join(["checked %d mu" % len(mus)] + details))
        if preset.tower_small is not None:
            cfg = preset.tower_config(j=1)
            cfg0 = preset.tower_config(j=1, degenerate=True)
            center0 = cfg0.center_big
            det = []
            for mu in mus[: 3]:
                if ramified_descent_check(cfg, mu):
                    det.append("descent mu=%s" % _fmt_mu(mu))
                test_function(cfg, mu)  # cross-checked internally
                if test_function(cfg0, mu) != z_v_star_1j(center0, mu):
                    det.append("degenerate mu=%s" % _fmt_mu(mu))
            self.record("tower", name, not det, ";".join(det))


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
