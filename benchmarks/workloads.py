"""The benchmark's workloads: seeded inputs, one timed pass, and the check of
every op against the golden digests in golden.json.

A workload object has
  setup(seed)                   -> the pass's inputs (built in the child that
                                   runs the pass, so set-up is timed there),
  run(inputs, golden, tracer)   -> one result dict per op,
  record(inputs)                -> golden entries for these inputs.

An op result holds its name, its seconds and `ok`; a failed op also holds
`detail`.  Ops never raise: an exception is a failed op.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
clock = time.perf_counter


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def fmt_vec(v, sep=","):
    return sep.join(str(x) for x in v)


def fresh_preset(name):
    """A new `Preset` built from its JSON file, bypassing `load_preset`'s
    process-wide cache."""
    import rootfold.presets
    from rootfold.presets import Preset
    path = os.path.join(os.path.dirname(rootfold.presets.__file__),
                        "presets", name + ".json")
    with open(path) as fh:
        return Preset(name, json.load(fh))


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    return env


def failed(name, seconds, detail):
    return {"name": name, "s": seconds, "ok": False, "detail": detail}


# ---------------------------------------------------------------------------
# verify_sweep: one run_verify() over every preset, in a seeded order


class VerifySweep:
    name = "verify_sweep"

    def setup(self, seed):
        from rootfold.presets import preset_names
        names = list(preset_names())
        for n in names:  # validates every input; run_verify loads its own
            fresh_preset(n)
        random.Random(seed).shuffle(names)
        return names

    def _sweep(self, names, tracer):
        from rootfold import verify
        blocks, times, errors = {}, {}, {}
        orig = verify.Verifier.run_preset

        def run_preset(v, name):
            start = len(v.lines)
            if tracer is not None:
                tracer.op = name
            t0 = clock()
            try:
                orig(v, name)
            except Exception as exc:  # an op failure, not a benchmark fault
                errors[name] = "%s: %s" % (type(exc).__name__, exc)
            times[name] = clock() - t0
            blocks[name] = v.lines[start:]

        verify.Verifier.run_preset = run_preset
        try:
            code, lines = verify.run_verify(names)
        finally:
            verify.Verifier.run_preset = orig
        return code, lines, blocks, times, errors

    def run(self, names, golden, tracer):
        code, lines, blocks, times, errors = self._sweep(names, tracer)
        # the report in the canonical (sorted) preset order
        report = [l for n in sorted(blocks) for l in blocks[n]] + lines[-1:]
        whole_ok = code == 0 and sha256("\n".join(report)) == golden["report_sha256"]
        out = []
        for n in names:
            block = blocks.get(n, [])
            if n in errors:
                out.append(failed(n, times[n], errors[n]))
            elif any(not l.startswith("PASS ") for l in block):
                out.append(failed(n, times[n], "; ".join(
                    l for l in block if not l.startswith("PASS "))))
            elif sha256("\n".join(block)) != golden["presets"].get(n):
                out.append(failed(n, times[n], "report lines differ from golden"))
            elif not whole_ok:
                out.append(failed(n, times[n], "exit %d or summary differs" % code))
            else:
                out.append({"name": n, "s": times[n], "ok": True})
        return out

    def record(self, names):
        code, lines, blocks, _times, errors = self._sweep(sorted(names), None)
        if code or errors:
            raise SystemExit("verify_sweep: seed run failed: %r" % (errors or code))
        return {"report_sha256": sha256("\n".join(lines)),
                "presets": {n: sha256("\n".join(b)) for n, b in blocks.items()}}


# ---------------------------------------------------------------------------
# kl_ladder: the geometric basis by both routes on the scaling ladder, one
# fresh CenterContext per rung

RUNGS = (
    ("split-a2", (1, 1)),
    ("split-a2", (2, 2)),
    ("split-a2", (3, 3)),
    ("split-a2", (4, 4)),
    ("split-b2", (2, 2)),
    ("split-a3", (1, 2, 1)),
    ("su4-unramified", (2, 2, 2)),
)


def rung_name(preset, vec):
    return "%s.%s" % (preset, fmt_vec(vec, "-"))


def basis_digest(elt):
    return sha256(json.dumps([[list(nu.free), list(nu.tors), list(c.to_tuple())]
                              for nu, c in elt.items_sorted()]))


class KLLadder:
    name = "kl_ladder"

    def setup(self, seed):
        # The ladder is fixed and runs in order: the seed is unused.  Each
        # rung gets its own Preset, because LocalGroupDatum caches its
        # echelonnage data.
        return [(name, vec, fresh_preset(name)) for name, vec in RUNGS]

    def _rung(self, preset, vec):
        from rootfold.hecke import CenterContext
        t0 = clock()
        center = CenterContext(preset.lgd, preset.overrides)
        lam = preset.lgd.coinv.project(vec)
        h = center.chars.h
        if not (h.is_dominant(lam) and h.is_tau_fixed(lam)):
            raise ValueError("lambda is not dominant and tau-fixed")
        t1 = clock()
        a = center.geometric_basis(lam)
        t2 = clock()
        b = center.geometric_basis_kl(lam)
        t3 = clock()
        return a, b, {"s": t3 - t0, "twining_s": t2 - t1, "kl_s": t3 - t2}

    def run(self, rungs, golden, tracer):
        out = []
        for name, vec, preset in rungs:
            key = rung_name(name, vec)
            if tracer is not None:
                tracer.op = key
            t0 = clock()
            try:
                a, b, times = self._rung(preset, vec)
            except Exception as exc:
                out.append(failed(key, clock() - t0,
                                  "%s: %s" % (type(exc).__name__, exc)))
                continue
            res = dict(times, name=key, ok=True)
            if a != b:
                res.update(ok=False, detail="twining and KL routes disagree")
            elif basis_digest(a) != golden.get(key):
                res.update(ok=False, detail="coefficients differ from golden")
            if tracer is not None:
                res["interval"] = tracer.op_interval_max.get(key, 0)
            out.append(res)
        return out

    def record(self, rungs):
        out = {}
        for name, vec, preset in rungs:
            a, b, _ = self._rung(preset, vec)
            if a != b:
                raise SystemExit("kl_ladder: routes disagree on %s" % name)
            out[rung_name(name, vec)] = basis_digest(a)
        return out


# ---------------------------------------------------------------------------
# cli_oneshot: seeded single queries, each in a fresh `python -m rootfold.cli`

SMALL = ("split-a1", "split-gl2", "split-a2", "split-b2", "su3-unramified",
         "su3-ramified", "tower-su3")
MID_A3 = ("split-a3", "su4-ramified", "su4-unramified")
MID = MID_A3 + ("su5-ramified", "su5-unramified")

# (subcommands, presets, lowest and highest <2rho, mu> of a drawn input).
# Each slot is one query of a pass: the seed draws it from every valid input
# of the slot.  Slots are narrow so that passes drawn with different seeds
# cost about the same; the last two are the heavy characters/testfn queries.
SLOTS = (
    (("fold",), MID, None),
    (("fold",), MID, None),
    (("echelonnage",), MID, None),
    (("echelonnage",), MID, None),
    (("adm",), MID, (1, 4)),
    (("adm",), MID, (1, 4)),
    (("kl",), MID, (1, 4)),
    (("kl",), MID, (1, 4)),
    (("geom-basis",), MID, (1, 4)),
    (("geom-basis",), MID, (1, 4)),
    (("branch",), MID_A3, (4, 10)),
    (("testfn",), MID_A3, (4, 10)),
    (("verify",), MID, None),
    (("verify",), MID, None),
    (("branch", "testfn"), ("su5-ramified",), (16, 16)),
    (("branch", "testfn"), MID_A3, (16, 16)))


def _window(datum, lo_hi):
    lo, hi = lo_hi
    return [mu for mu in datum.dominant_cochars_up_to(hi, central_box=0)
            if datum.two_rho_pairing(mu) >= lo]


def _fixed(lgd, mu):
    from rootfold.linalg import mat_vec
    return (all(tuple(mat_vec(g, mu)) == tuple(mu)
                for g in lgd.inertia.cochar_group)
            and tuple(mat_vec(lgd.tau_cochar, mu)) == tuple(mu))


class _Datum:
    """Per-preset input helpers, built lazily on one fresh Preset."""

    def __init__(self, name):
        self.name = name
        self.preset = fresh_preset(name)
        self._h = None

    @property
    def h(self):
        if self._h is None:
            from rootfold.characters import FixedGroup
            self._h = FixedGroup(self.preset.lgd)
        return self._h

    def lambdas(self, lo_hi):
        """(ambient cocharacter, class) for dominant tau-fixed classes."""
        lgd = self.preset.lgd
        seen = {}
        for mu in _window(self.preset.datum, lo_hi):
            lam = lgd.coinv.project(mu)
            if lam not in seen and self.h.is_dominant(lam) \
                    and self.h.is_tau_fixed(lam):
                seen[lam] = mu
        return [(mu, lam) for lam, mu in seen.items()]

    def candidates(self, cmd, lo_hi):
        p = "--preset=" + self.name
        if cmd in ("fold", "echelonnage"):
            return [[cmd, p]]
        if cmd == "verify":
            return [[cmd, self.name]]
        datum = self.preset.datum
        if cmd == "adm":
            return [[cmd, p, "--mu=" + fmt_vec(mu)] for mu in _window(datum, lo_hi)]
        if cmd in ("branch", "testfn"):
            return [[cmd, p, "--mu=" + fmt_vec(mu)] for mu in _window(datum, lo_hi)
                    if _fixed(self.preset.lgd, mu)]
        if cmd == "geom-basis":
            return [[cmd, p, "--lambda=" + fmt_vec(mu)]
                    for mu, _ in self.lambdas(lo_hi)]
        if cmd == "kl":
            out = []
            coinv = self.preset.lgd.coinv
            for mu, lam in self.lambdas(lo_hi):
                for nu in self.h.weight_set(lam):
                    if self.h.is_dominant(nu) and self.h.is_tau_fixed(nu):
                        out.append([cmd, p, "--pair=%s|%s" % (
                            fmt_vec(coinv.lift(nu)), fmt_vec(mu))])
            return out
        raise ValueError(cmd)


def cli_slots():
    """Every slot's sorted candidate queries."""
    data = {}
    slots = []
    for cmds, names, lo_hi in SLOTS:
        cands = []
        for cmd in cmds:
            for n in names:
                if n not in data:
                    data[n] = _Datum(n)
                cands.extend(data[n].candidates(cmd, lo_hi))
        slots.append(sorted(cands))
    return slots


def query_key(argv):
    return " ".join(argv)


def cli_child(argv, traced):
    if traced:
        return [sys.executable, os.path.join(HERE, "cli_traced.py")] + argv
    return [sys.executable, "-m", "rootfold.cli"] + argv


class CLIOneshot:
    name = "cli_oneshot"
    timeout_s = 60

    def setup(self, seed):
        rng = random.Random(seed)
        queries = [rng.choice(cands) for cands in cli_slots()]
        rng.shuffle(queries)
        return queries

    def run_query(self, argv, traced):
        """(seconds, exit code, stdout, trace dump or None)."""
        t0 = clock()
        proc = subprocess.run(cli_child(argv, traced), capture_output=True,
                              text=True, env=child_env(), cwd=ROOT,
                              timeout=self.timeout_s)
        seconds = clock() - t0
        if not traced:
            return seconds, proc.returncode, proc.stdout, None
        env = json.loads(proc.stdout)
        return seconds, env["code"], env["stdout"], env["trace"]

    def run(self, queries, golden, tracer):
        out = []
        for argv in queries:
            key = query_key(argv)
            t0 = clock()
            try:
                seconds, code, stdout, trace = self.run_query(
                    argv, tracer is not None)
            except (subprocess.SubprocessError, OSError, ValueError) as exc:
                out.append(failed(key, clock() - t0,
                                  "%s: %s" % (type(exc).__name__, exc)))
                continue
            res = {"name": key, "cmd": argv[0], "s": seconds, "ok": True}
            if code != 0:
                res.update(ok=False, detail="exit %d" % code)
            elif sha256(stdout) != golden.get(key):
                res.update(ok=False, detail="stdout differs from golden")
            if trace is not None:
                tracer.add_child(key, trace)
            out.append(res)
        return out

    def record(self, _queries):
        out = {}
        for cands in cli_slots():
            for argv in cands:
                key = query_key(argv)
                if key in out:
                    continue
                _s, code, stdout, _t = self.run_query(argv, False)
                if code != 0:
                    raise SystemExit("cli_oneshot: %s exited %d" % (key, code))
                out[key] = sha256(stdout)
        return out


WORKLOADS = {w.name: w for w in (VerifySweep(), KLLadder(), CLIOneshot())}
