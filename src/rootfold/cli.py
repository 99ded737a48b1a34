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
import sys
from fractions import Fraction

from .affine import admissible_set, extremal_elements
from .echelonnage import LocalGroupDatum, TheoremViolation, UnparameterizedComponent
from .folding import fold
from .hecke import CenterContext
from .lattice import MalformedAction, ResourceCap
from .presets import PresetError, load_preset, preset_names
from .rootdata import build_datum, diagram_automorphism
from .testfn import test_function, z_v_star_1j
from .verify import run_verify

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


def _emit(args, payload, tsv_rows=None, tsv_header=None):
    if getattr(args, "out", "json") == "tsv" and tsv_rows is not None:
        print("\t".join(tsv_header))
        for row in tsv_rows:
            print("\t".join(str(x) for x in row))
    else:
        print(json.dumps(payload, indent=2, sort_keys=True))


def _load_lgd(args):
    if args.preset:
        return load_preset(args.preset)
    if getattr(args, "datum", None):
        from .rootdata import BasedRootDatum
        with open(args.datum) as fh:
            datum = BasedRootDatum.from_json(json.load(fh))
    elif args.type:
        datum = build_datum(args.type, args.isogeny)
    else:
        raise PresetError("give --preset, --type, or --datum")
    inertia = tuple(diagram_automorphism(datum, _parse_vec(p))
                    for p in (args.inertia or []))
    frob = diagram_automorphism(datum, _parse_vec(args.tau)) if args.tau else None

    class _Adhoc:
        pass

    preset = _Adhoc()
    preset.name = args.type
    preset.datum = datum
    preset.lgd = LocalGroupDatum(datum, inertia, frob, label=args.type)
    preset.overrides = {}
    preset.tower_small = None
    return preset


def cmd_fold(args):
    preset = _load_lgd(args)
    lgd = preset.lgd
    from .lattice import group_closure
    group = group_closure(tuple(lgd.inertia.generators) + (lgd.tau_char,))
    rs = preset.datum.root_system()
    rows = []
    payload = {}
    for op in ("res", "resprime", "N", "Nprime"):
        f = fold(rs, group, op)
        label = f.type_label()
        payload[op] = {
            "type": label,
            "base": [[_fmt_q(x) for x in b] for b in f.base],
            "orbits": [{"indices": list(orb), "orthogonal": orth}
                       for orb, orth in f.orbits],
        }
        for b, (orb, orth) in zip(f.base, f.orbits):
            rows.append((op, _fmt_vec(b), len(orb), orth, label))
    _emit(args, payload, rows, ("op", "vector", "orbit_size", "orthogonal", "type"))
    return EXIT_OK


def cmd_echelonnage(args):
    preset = _load_lgd(args)
    ech = preset.lgd.echelonnage()
    ech.parameter_function(preset.overrides)
    payload = ech.report()
    _emit(args, payload,
          [(k, v) for k, v in sorted(payload.items())], ("field", "value"))
    return EXIT_OK


def cmd_adm(args):
    preset = _load_lgd(args)
    lgd = preset.lgd
    mu = _parse_cochar(args.mu, preset.datum, "--mu")
    if not preset.datum.is_dominant_cochar(mu):
        raise PresetError("mu must be dominant")
    from .affine import build_affine
    engine = build_affine(lgd)
    adm = admissible_set(lgd, mu, engine=engine)
    extremal = extremal_elements(engine, adm)
    items = []
    omegas = {}
    for x in adm:
        word, omega = engine.normal_form(x)
        okey = (omega.lam.free, omega.lam.tors)
        omegas.setdefault(okey, omega)
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
    preset = _load_lgd(args)
    nu_s, _, lam_s = args.pair.partition("|")
    nu = preset.lgd.coinv.project(_parse_cochar(nu_s, preset.datum, "--pair"))
    lam = preset.lgd.coinv.project(_parse_cochar(lam_s, preset.datum, "--pair"))
    center = CenterContext(preset.lgd, preset.overrides)
    eng = center.tau_engine
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
    preset = _load_lgd(args)
    lam = preset.lgd.coinv.project(_parse_cochar(args.lam, preset.datum, "--lambda"))
    center = CenterContext(preset.lgd, preset.overrides)
    C = center.geometric_basis(lam)
    terms = []
    kl_terms = {}
    if not args.no_kl:
        Ckl = center.geometric_basis_kl(lam)
        if C != Ckl:
            raise TheoremViolation("twining and KL routes disagree")
        kl_terms = {k: v for k, v in Ckl.coeffs.items()}
    for nu, c in C.items_sorted():
        term = {"nu": _fmt_class(nu), "coeff_cyclotomic": list(c.to_tuple())}
        if kl_terms:
            term["kl_at_1"] = kl_terms[nu].as_int()
        terms.append(term)
    payload = {"lambda": _fmt_class(lam), "terms": terms}
    _emit(args, payload)
    return EXIT_OK


def cmd_branch(args):
    preset = _load_lgd(args)
    mu = _parse_cochar(args.mu, preset.datum, "--mu")
    from .characters import CharacterContext
    chars = CharacterContext(preset.lgd)
    br = chars.branching(mu)
    tr = chars.tau_traces_on_H(mu)
    rows = []
    for lam in sorted(br, key=lambda c: (c.free, c.tors)):
        trace = tr.get(lam, 0) if chars.h.is_tau_fixed(lam) else 0
        rows.append((_fmt_class(lam), br[lam], trace))
    payload = {"mu": list(mu),
               "rows": [{"lambda": a, "a": b, "tau_trace": c} for a, b, c in rows]}
    _emit(args, payload, rows, ("lambda", "a", "tau_trace"))
    return EXIT_OK


def cmd_testfn(args):
    if args.config:
        with open(args.config) as fh:
            raw = json.load(fh)
        from .presets import Preset
        preset = Preset(raw.get("name", "config"), raw)
    else:
        preset = load_preset(args.preset)
    mu = _parse_cochar(args.mu, preset.datum, "--mu")
    if preset.tower_small is None and not args.degenerate:
        center = CenterContext(preset.lgd, preset.overrides)
        z = z_v_star_1j(center, mu)
        label = "z_V*1_J"
    else:
        cfg = preset.tower_config(j=args.j, degenerate=args.degenerate)
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

    def add_common(q, mu=False):
        q.add_argument("--preset", help="preset name (see `rootfold presets`)")
        q.add_argument("--type", help="Cartan type, e.g. A2 or A2xA2")
        q.add_argument("--datum", help="explicit datum JSON file")
        q.add_argument("--isogeny", default="adjoint",
                       choices=["adjoint", "simply_connected"])
        q.add_argument("--inertia", action="append",
                       help="inertia generator as a simple-root permutation, "
                            "e.g. 1,0 (repeatable)")
        q.add_argument("--tau", help="Frobenius simple-root permutation")
        q.add_argument("--out", default="json", choices=["json", "tsv"])
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
    add_common(q)
    q.add_argument("--pair", required=True,
                   help="nu|lambda as ambient cocharacters, e.g. 0,0|1,1")
    q.set_defaults(func=cmd_kl)

    q = sub.add_parser("geom-basis", help="geometric basis element C_lambda")
    add_common(q)
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
        return args.func(args)
    except (PresetError, MalformedAction, UnparameterizedComponent, ValueError) as exc:
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
