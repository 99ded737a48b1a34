"""Command-line surface: folding tables, echelonnage reports, admissible
sets, Kazhdan-Lusztig polynomials, the geometric basis, branching tables,
test functions, and the verification driver.

Output is deterministic (sorted keys, fixed column orders, exact values
only).  Exit codes: 0 success, 1 theorem-check failure, 2 input error,
3 resource cap.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from fractions import Fraction

# each cmd_* imports the modules only it needs, so a one-shot query loads
# (and, without bytecode caches, compiles) no more of rootfold than it uses
from .jsoninput import MalformedInput, json_field
from .lattice import MalformedAction, ResourceCap, TheoremViolation
from .presets import Preset, PresetError, load_preset, preset_names
from .rootdata import NotAPermutation, UndeterminedAutomorphism

EXIT_OK = 0
EXIT_THEOREM = 1
EXIT_INPUT = 2
EXIT_CAP = 3


def _fmt_q(x):
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else "%d/%d" % (f.numerator, f.denominator)


def _fmt_vec(v):
    return ",".join(_fmt_q(x) for x in v)


def _fmt_class(c):
    out = _fmt_vec(c.free)
    if c.tors:
        out += ";" + _fmt_vec(c.tors)
    return "(%s)" % out


def _parse_vec(s):
    try:
        return tuple(int(x) for x in s.replace("(", "").replace(")", "").split(","))
    except ValueError:
        raise PresetError("expected a comma-separated integer vector, got %r" % s)


def _parse_cochar(s, datum, option):
    """A cocharacter option, checked against the rank of the datum."""
    v = _parse_vec(s)
    if len(v) != datum.rank:
        raise PresetError("%s needs %d entries (the rank of the datum), got %d"
                          % (option, datum.rank, len(v)))
    return v


def _check_dominant_tau_fixed(center, cls, what):
    """Raise PresetError, naming `what` and the failed test, unless the
    class is dominant and tau-fixed."""
    h = center.chars.h
    for test, prop in ((h.is_dominant, "dominant"), (h.is_tau_fixed, "tau-fixed")):
        if not test(cls):
            raise PresetError("%s %s is not %s" % (what, _fmt_class(cls), prop))


def _check_mu(lgd, mu):
    """Raise PresetError, naming --mu and the failed test, unless mu is
    dominant and fixed by the inertia and the Frobenius of `lgd`."""
    failed = lgd.mu_defect(mu)
    if failed:
        raise PresetError("--mu (%s) is not %s" % (_fmt_vec(mu), failed))


def _read_json(option, path, keys, build):
    """build(data) for the JSON object `data`, with the top-level `keys`, in
    the file given to `option`.  PresetError naming the option and the file
    when the file does not read or holds no such object, or when `build`
    meets a value of the wrong type or shape in it (MalformedInput, which
    names the key)."""
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise PresetError("%s %s: %s" % (option, path, exc.strerror)) from None
    except ValueError as exc:
        raise PresetError("%s %s: not JSON: %s" % (option, path, exc)) from None
    if not isinstance(data, dict):
        raise PresetError("%s %s: expected a JSON object, got %s"
                          % (option, path, type(data).__name__))
    for key in keys:
        if key not in data:
            raise PresetError("%s %s: missing key %r" % (option, path, key))
    try:
        return build(data)
    except MalformedInput as exc:
        raise PresetError("%s %s: %s" % (option, path, exc)) from None


def _emit(args, payload, tsv_rows=None, tsv_header=None):
    if getattr(args, "out", "json") == "tsv" and tsv_rows is not None:
        print("\t".join(tsv_header))
        for row in tsv_rows:
            print("\t".join(str(x) for x in row))
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


def _load_lgd(args):
    """The preset named by --preset, or one built from --type/--isogeny or
    --datum with the --inertia/--tau permutations."""
    if args.preset:
        return load_preset(args.preset)
    if getattr(args, "datum", None):
        return _read_json("--datum", args.datum,
                          ("rank", "simple_roots", "simple_coroots"),
                          lambda data: _build_lgd(args, {"explicit": data}))
    if args.type:
        return _build_lgd(args, {"cartan_type": args.type, "isogeny": args.isogeny})
    raise PresetError("give --preset, --type, or --datum")


def _build_lgd(args, datum):
    """The preset on the datum spec `datum` with the --inertia/--tau
    permutations."""
    raw = {"datum": datum,
           "inertia": [{"perm": _parse_vec(p)} for p in (args.inertia or [])]}
    if args.tau:
        raw["frobenius"] = {"perm": _parse_vec(args.tau)}
    try:
        return Preset(args.type, raw)
    except NotAPermutation as exc:
        option = "--inertia" if {"perm": exc.perm} in raw["inertia"] else "--tau"
        raise PresetError("%s %s" % (option, exc)) from None
    except UndeterminedAutomorphism:
        # the inertia permutations are resolved first
        raise PresetError(
            "%s: the lattice of this datum does not determine an automorphism "
            "from a simple-root permutation; only a {\"matrix\": ...} "
            "automorphism spec in a testfn --config file can carry one"
            % ("--inertia" if args.inertia else "--tau")) from None


def cmd_fold(args):
    from .folding import fold
    preset = _load_lgd(args)
    lgd = preset.lgd
    gens = lgd.inertia.generators + (lgd.tau_char,)
    rs = preset.datum.root_system()
    rows = []
    payload = {}
    for op in ("res", "resprime", "N", "Nprime"):
        f = fold(rs, gens, op)
        label = f.type_label()
        payload[op] = {
            "type": label,
            "base": [[_fmt_q(x) for x in b] for b in f.system.base],
            "orbits": [{"indices": list(orb), "orthogonal": orth}
                       for orb, orth in f.orbits],
        }
        for b, (orb, orth) in zip(f.system.base, f.orbits):
            rows.append((op, _fmt_vec(b), len(orb), orth, label))
    _emit(args, payload, rows, ("op", "vector", "orbit_size", "orthogonal", "type"))
    return EXIT_OK


def cmd_echelonnage(args):
    preset = _load_lgd(args)
    ech = preset.lgd.echelonnage()
    payload = ech.report(ech.parameter_function(preset.overrides))
    _emit(args, payload,
          [(k, v) for k, v in sorted(payload.items())], ("field", "value"))
    return EXIT_OK


def cmd_adm(args):
    preset = _load_lgd(args)
    lgd = preset.lgd
    mu = _parse_cochar(args.mu, preset.datum, "--mu")
    if not preset.datum.is_dominant_cochar(mu):
        raise PresetError("--mu (%s) is not dominant" % _fmt_vec(mu))
    from .affine import admissible_set, build_affine, extremal_elements
    engine = build_affine(lgd)
    adm = admissible_set(lgd, mu, engine=engine)
    extremal = extremal_elements(engine, adm)
    items = []
    for x in adm:
        word, omega = engine.normal_form(x)
        items.append({
            "translation": _fmt_class(x.lam),
            "omega": _fmt_class(omega.lam),
            "reduced_word": ["%s%d" % (k[0], k[1]) for k in word],
            "length": engine.length(x),
            "extremal": x in extremal,
        })
    items.sort(key=lambda d: (d["length"], d["translation"], d["reduced_word"]))
    payload = {"mu": list(mu), "size": len(adm),
               "extremal_count": len(extremal), "elements": items}
    rows = [(d["translation"], " ".join(d["reduced_word"]), d["omega"],
             d["length"], d["extremal"]) for d in items]
    _emit(args, payload, rows,
          ("translation", "reduced_word", "omega", "length", "extremal"))
    return EXIT_OK


def cmd_kl(args):
    from .hecke import CenterContext
    preset = _load_lgd(args)
    nu_s, sep, lam_s = args.pair.partition("|")
    if not sep:
        raise PresetError('--pair needs nu|lambda, separated by "|", got %r'
                          % args.pair)
    nu = preset.lgd.coinv.project(_parse_cochar(nu_s, preset.datum, "--pair"))
    lam = preset.lgd.coinv.project(_parse_cochar(lam_s, preset.datum, "--pair"))
    center = CenterContext(preset.lgd, preset.overrides)
    for side, cls in (("nu", nu), ("lambda", lam)):
        _check_dominant_tau_fixed(center, cls, "--pair: " + side)
    eng = center.tau_engine
    # for dominant classes, w_nu <= w_lambda exactly when nu <= lambda in the
    # coroot-class order of Sigma_0; checked here, before the KL table of
    # w_lambda is paid for
    if not eng.sigma.class_leq(nu, lam):
        raise PresetError("--pair: w_nu is not Bruhat-below w_lambda for nu %s, "
                          "lambda %s" % (_fmt_class(nu), _fmt_class(lam)))
    w_nu = eng.max_double_coset(nu)
    w_lam = eng.max_double_coset(lam)
    P = center.hecke.kl_polynomial(w_nu, w_lam)
    payload = {
        "nu": _fmt_class(nu), "lambda": _fmt_class(lam),
        "length_w_nu": eng.length(w_nu), "length_w_lambda": eng.length(w_lam),
        "P": P.to_json(), "P_at_1": P.at_one(),
        "parameters": {"%s:%d" % k: v for k, v in sorted(center.parameters.items())},
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_geom_basis(args):
    from .hecke import CenterContext
    preset = _load_lgd(args)
    lam = preset.lgd.coinv.project(_parse_cochar(args.lam, preset.datum, "--lambda"))
    center = CenterContext(preset.lgd, preset.overrides)
    _check_dominant_tau_fixed(center, lam, "--lambda")
    C = center.geometric_basis(lam)
    terms = []
    kl_terms = {}
    if not args.no_kl:
        Ckl = center.geometric_basis_kl(lam)
        if C != Ckl:
            raise TheoremViolation("twining and KL routes disagree")
        kl_terms = Ckl.coeffs
    for nu, c in C.items_sorted():
        term = {"nu": _fmt_class(nu), "coeff_cyclotomic": list(c.to_tuple())}
        if kl_terms:
            term["kl_at_1"] = int(kl_terms[nu])
        terms.append(term)
    payload = {"lambda": _fmt_class(lam), "terms": terms}
    _emit(args, payload)
    return EXIT_OK


def cmd_branch(args):
    preset = _load_lgd(args)
    mu = _parse_cochar(args.mu, preset.datum, "--mu")
    _check_mu(preset.lgd, mu)
    from .characters import CharacterContext
    chars = CharacterContext(preset.lgd)
    br = chars.branching(mu)
    tr = chars.tau_traces_on_H(mu)
    rows = []
    for lam in sorted(br):
        trace = tr.get(lam, 0) if chars.h.is_tau_fixed(lam) else 0
        rows.append((_fmt_class(lam), br[lam], trace))
    payload = {"mu": list(mu),
               "rows": [{"lambda": a, "a": b, "tau_trace": c} for a, b, c in rows]}
    _emit(args, payload, rows, ("lambda", "a", "tau_trace"))
    return EXIT_OK


def cmd_testfn(args):
    from .hecke import CenterContext
    from .testfn import test_function, z_v_star_1j
    if args.j < 1:
        raise PresetError("--j must be at least 1, got %d" % args.j)
    if args.config:
        preset = _read_json("--config", args.config, ("datum",),
                            lambda raw: Preset(json_field(raw, "name", str, "config"), raw))
    elif args.preset:
        preset = load_preset(args.preset)
    else:
        raise PresetError("give --preset or --config")
    mu = _parse_cochar(args.mu, preset.datum, "--mu")
    # checked here because the tower paths never read the overrides
    preset.lgd.echelonnage().parameter_function(preset.overrides)
    if preset.tower_small is None and not args.degenerate:
        if args.j != 1:
            raise PresetError("--j %d needs tower data, and preset %s has no "
                              "tower data" % (args.j, preset.name))
        _check_mu(preset.lgd, mu)
        center = CenterContext(preset.lgd, preset.overrides)
        z = z_v_star_1j(center, mu)
        label = "z_V*1_J"
    else:
        cfg = preset.tower_config(j=args.j, degenerate=args.degenerate)
        _check_mu(cfg.lgd_small, mu)
        z = test_function(cfg, mu)
        label = "test function (j=%d%s)" % (args.j, ", degenerate" if args.degenerate else "")
    payload = {
        "mu": list(mu), "kind": label,
        "terms": [{"nu": _fmt_class(nu), "coeff_cyclotomic": list(c.to_tuple())}
                  for nu, c in z.items_sorted()],
    }
    _emit(args, payload)
    return EXIT_OK


def cmd_verify(args):
    for option, bound in (("--mu-bound", args.mu_bound), ("--kl-bound", args.kl_bound)):
        if bound < 0:
            raise PresetError("%s must be at least 0, got %d" % (option, bound))
    from .verify import run_verify
    names = args.preset_list or None
    code, lines = run_verify(names, mu_bound=args.mu_bound, kl_bound=args.kl_bound)
    print("\n".join(lines))
    return code


def build_parser():
    p = argparse.ArgumentParser(
        prog="rootfold",
        description="exact dualities for root systems with automorphisms: "
                    "folding, echelonnage, admissible sets, Kazhdan-Lusztig "
                    "polynomials, the geometric basis, test functions")
    sub = p.add_subparsers(dest="command", required=True)

    def add_common(q, mu=False, tsv=True):
        q.add_argument("--preset", help="preset name (see `rootfold presets`)")
        q.add_argument("--type", help="Cartan type, e.g. A2 or A2xA2")
        q.add_argument("--datum", help="explicit datum JSON file")
        q.add_argument("--isogeny", default="adjoint",
                       choices=["adjoint", "simply_connected"])
        q.add_argument("--inertia", action="append",
                       help="inertia generator as a simple-root permutation, "
                            "e.g. 1,0 (repeatable)")
        q.add_argument("--tau", help="Frobenius simple-root permutation")
        q.add_argument("--out", default="json",
                       choices=["json", "tsv"] if tsv else ["json"])
        if mu:
            q.add_argument("--mu", required=True, help="cocharacter, e.g. 1,0,-1")

    q = sub.add_parser("fold", help="the four folding operations as a table")
    add_common(q)
    q.set_defaults(func=cmd_fold)

    q = sub.add_parser("echelonnage",
                       help="Sigma systems, special roots, parameters")
    add_common(q)
    q.set_defaults(func=cmd_echelonnage)

    q = sub.add_parser("adm", help="the {mu}-admissible set with extremal flags")
    add_common(q, mu=True)
    q.set_defaults(func=cmd_adm)

    q = sub.add_parser("kl", help="Kazhdan-Lusztig polynomial P_{w_nu, w_lambda}")
    add_common(q, tsv=False)
    q.add_argument("--pair", required=True,
                   help="nu|lambda as ambient cocharacters, e.g. 0,0|1,1")
    q.set_defaults(func=cmd_kl)

    q = sub.add_parser("geom-basis", help="geometric basis element C_lambda")
    add_common(q, tsv=False)
    q.add_argument("--lambda", dest="lam", required=True)
    q.add_argument("--no-kl", action="store_true",
                   help="skip the Kazhdan-Lusztig cross-check")
    q.set_defaults(func=cmd_geom_basis)

    q = sub.add_parser("branch", help="branching table (lambda, a, tau-trace)")
    add_common(q, mu=True)
    q.set_defaults(func=cmd_branch)

    q = sub.add_parser("testfn", help="test-function expansion for a tower")
    q.add_argument("--preset")
    q.add_argument("--config", help="tower config JSON file")
    q.add_argument("--mu", required=True)
    q.add_argument("--j", type=int, default=1, help="unramified degree")
    q.add_argument("--degenerate", action="store_true",
                   help="collapse the ramified step (E_j = E_j0)")
    q.add_argument("--out", default="json", choices=["json"])
    q.set_defaults(func=cmd_testfn)

    q = sub.add_parser("presets", help="list available presets")
    q.set_defaults(func=lambda a: (print("\n".join(preset_names())), EXIT_OK)[1])

    q = sub.add_parser("verify", help="run every theorem check over presets")
    q.add_argument("preset_list", nargs="*", help="presets (default: all)")
    q.add_argument("--mu-bound", type=int, default=4)
    q.add_argument("--kl-bound", type=int, default=4)
    q.set_defaults(func=cmd_verify)

    return p


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader closed the pipe (e.g. `| head`): drop the rest quietly
        sys.stdout = open(os.devnull, "w")
        return EXIT_OK
    except (PresetError, MalformedAction, ValueError) as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return EXIT_INPUT
    except TheoremViolation as exc:
        print("theorem check failed: %s" % exc, file=sys.stderr)
        return EXIT_THEOREM
    except ResourceCap as exc:
        print("resource cap: %s" % exc, file=sys.stderr)
        return EXIT_CAP


if __name__ == "__main__":
    sys.exit(main())
