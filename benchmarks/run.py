"""rootfold benchmark: three workloads, end-to-end and per-layer metrics.

    python3 benchmarks/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 benchmarks/run.py --workload all --seed N --seconds S
    python3 benchmarks/run.py --record-golden

Run from the root of a checkout; rootfold is imported from its `src/`.
Every pass runs in a fresh interpreter (benchmarks/child.py), one at a time,
until S seconds have gone.  With --trace 0 the last line of output is one
JSON object with the end-to-end metrics; with --trace 1 untraced and traced
passes alternate and the JSON holds the per-layer metrics.  Every op is
checked against benchmarks/golden.json; a mismatch, a FAIL or CAP line, an
exception or a non-zero exit counts as a failed op.  See benchmarks/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import select
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from workloads import ROOT, RUNGS, SRC, WORKLOADS, child_env, rung_name  # noqa: E402

CHILD = os.path.join(HERE, "child.py")
GOLDEN = os.path.join(HERE, "golden.json")
SETUP_SAMPLES = 10     # set-up-only children per run, besides each pass's own
SPAWN_SAMPLES = 5      # bare `import rootfold.cli` children per traced run
HARD_LIMIT_S = 170.0   # a run never outlives this, whatever --seconds says
CLI_COMMANDS = ("fold", "echelonnage", "adm", "kl", "geom-basis", "branch",
                "testfn", "verify")


class BenchError(RuntimeError):
    pass


def median(xs):
    return statistics.median(xs) if xs else 0.0


# ---------------------------------------------------------------------------
# children


def run_child(args, deadline):
    """Run child.py ARGS; returns (setup seconds, parsed last line or None).

    Set-up time runs from just before the launch to the READY line."""
    t0 = time.perf_counter()
    proc = subprocess.Popen([sys.executable, CHILD] + [str(a) for a in args],
                            stdout=subprocess.PIPE, env=child_env(), cwd=ROOT)
    fd = proc.stdout.fileno()
    buf = b""
    ready = None
    try:
        while True:
            left = deadline - time.perf_counter()
            if left <= 0:
                raise BenchError("child %s ran past the time limit" % args)
            if not select.select([fd], [], [], left)[0]:
                continue
            chunk = os.read(fd, 1 << 16)
            if ready is None and b"READY\n" in buf + chunk:
                ready = time.perf_counter()
            if not chunk:
                break
            buf += chunk
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if proc.returncode != 0 or ready is None:
        raise BenchError("child %s exited %d" % (args, proc.returncode))
    lines = buf.decode().splitlines()
    return ready - t0, (json.loads(lines[-1]) if lines[-1] != "READY" else None)


def spawn_seconds(deadline):
    """Wall time of a child that only imports rootfold.cli."""
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import rootfold.cli"], check=True,
                   env=child_env(), cwd=ROOT,
                   timeout=max(1.0, deadline - time.perf_counter()))
    return time.perf_counter() - t0


# ---------------------------------------------------------------------------
# one workload


def measure(name, seed, seconds, trace):
    """Run set-up samples and passes for `seconds`; returns the raw records."""
    start = time.perf_counter()
    deadline = start + HARD_LIMIT_S
    setups = [run_child([name, seed, "setup", "setup"], deadline)[0]
              for _ in range(0 if trace else SETUP_SAMPLES)]
    plain, traced = [], []
    k = 0
    while k == 0 or time.perf_counter() - start < seconds:
        s, res = run_child([name, seed, k, "plain"], deadline)
        setups.append(s)
        plain.append(res)
        if trace:
            traced.append(run_child([name, seed, k, "traced"], deadline)[1])
        k += 1
    spawns = [spawn_seconds(deadline) for _ in range(SPAWN_SAMPLES)] if trace else []
    return {"setups": setups, "plain": plain, "traced": traced, "spawns": spawns}


def end_to_end(raw):
    passes = raw["plain"]
    op_times = [op["s"] for p in passes for op in p["ops"]]
    return {
        "setup_s": (median(raw["setups"]), "s"),
        "wall_s": (median([p["wall_s"] for p in passes]), "s"),
        "slowest_op_s": (median([max(op["s"] for op in p["ops"]) for p in passes]), "s"),
        "median_op_s": (median(op_times), "s"),
        "peak_rss_mb": (max(p["peak_rss_mb"] for p in passes), "MB"),
    }


VERIFY_PRESETS = ("d4-triality", "e6-flip", "split-a1", "split-a2", "split-a3",
                  "split-b2", "split-d4", "split-gl2", "su3-ramified",
                  "su3-unramified", "su4-ramified", "su4-unramified",
                  "su5-ramified", "su5-unramified", "su6-ramified",
                  "su6-unramified", "su7-ramified", "su7-unramified",
                  "tower-su3")


def per_layer(name, raw):
    """Per-layer metrics: layer times and counts from the traced passes, op
    times from the untraced passes of the same run.  A metric of another
    workload's ops reads 0 (no such op ran)."""
    traced = raw["traced"]

    def med(fn):
        return median([fn(t["trace"]) for t in traced])

    def self_s(*names):
        return med(lambda s: sum(s["self_s"].get(n, 0.0) for n in names))

    def incl_s(n):
        return med(lambda s: s["incl_s"].get(n, 0.0))

    # counts from the first traced pass: its inputs depend on the seed alone
    first = traced[0]["trace"]

    def calls(n):
        return first["calls"].get(n, 0)

    out = {
        "folding.closure_s": (self_s("folding.closure"), "s"),
        "folding.closure_calls": (calls("folding.closure"), "count"),
        "folding.closure_distinct": (first["distinct"].get("folding.closure", 0), "count"),
        "folding.verify_duality_s": (self_s("folding.verify_duality"), "s"),
        "folding.fold_s": (self_s("folding.fold"), "s"),
        "echelonnage.build_s": (self_s("echelonnage.build"), "s"),
        "echelonnage.parameter_function_s": (self_s("echelonnage.parameter_function"), "s"),
        "affine.build_s": (self_s("affine.build_affine", "affine.build_tau_fixed"), "s"),
        "affine.length_calls": (calls("affine.length"), "count"),
        "affine.multiply_calls": (calls("affine.multiply"), "count"),
        "affine.normal_form_calls": (calls("affine.normal_form"), "count"),
        "affine.word_ops_s": (self_s("affine.length", "affine.multiply",
                                     "affine.normal_form"), "s"),
        "affine.lower_interval_s": (self_s("affine.lower_interval"), "s"),
        "affine.interval_size_max": (first["interval_size_max"], "count"),
        "affine.verify_extremal_s": (self_s("affine.verify_extremal"), "s"),
        "hecke.center_build_s": (self_s("hecke.center_build"), "s"),
        "hecke.bar_basis_s": (self_s("hecke.bar_basis"), "s"),
        "hecke.bar_basis_calls": (calls("hecke.bar_basis"), "count"),
        "hecke.bar_basis_distinct": (first["distinct"].get("hecke.bar_basis", 0), "count"),
        "hecke.kl_table_s": (self_s("hecke.kl_table"), "s"),
        "hecke.kl_route_s": (incl_s("hecke.kl_route"), "s"),
        "characters.freudenthal_s": (self_s("characters.freudenthal"), "s"),
        "characters.freudenthal_calls": (calls("characters.freudenthal"), "count"),
        "characters.context_build_s": (self_s("characters.context_build"), "s"),
        "characters.twining_route_s": (incl_s("characters.twining_route"), "s"),
        "characters.branching_s": (self_s("characters.branching"), "s"),
        "testfn.z_v_star_s": (self_s("testfn.z_v_star"), "s"),
        "testfn.descent_s": (self_s("testfn.descent"), "s"),
        "testfn.test_function_s": (self_s("testfn.test_function"), "s"),
        "lattice.group_closure_s": (self_s("lattice.group_closure"), "s"),
        "lattice.coinvariants_s": (self_s("lattice.coinvariants"), "s"),
        "presets.build_s": (self_s("presets.build"), "s"),
    }
    ops = {}
    for p in raw["plain"]:
        for op in p["ops"]:
            ops.setdefault(op["name"], []).append(op)
    for preset in VERIFY_PRESETS:
        times = [op["s"] for op in ops.get(preset, [])] if name == "verify_sweep" else []
        out["verify.preset_s." + preset] = (median(times), "s")
    intervals = {op["name"]: op["interval"] for t in traced for op in t["ops"]
                 if "interval" in op}
    for preset, vec in RUNGS:
        key = rung_name(preset, vec)
        mine = ops.get(key, []) if name == "kl_ladder" else []
        out["kl.%s.interval" % key] = (intervals.get(key, 0), "count")
        out["kl.%s.kl_s" % key] = (median([op["kl_s"] for op in mine]), "s")
        out["kl.%s.twining_s" % key] = (median([op["twining_s"] for op in mine]), "s")
    out["cli.spawn_s"] = (median(raw["spawns"]), "s")
    for cmd in CLI_COMMANDS:
        times = [op["s"] for p in raw["plain"] for op in p["ops"]
                 if op.get("cmd") == cmd]
        out["cli.cmd_s." + cmd] = (median(times), "s")
    out["trace.overhead_s"] = (median([t["wall_s"] for t in traced])
                               - median([p["wall_s"] for p in raw["plain"]]), "s")
    return out


def failures(raw):
    ops = [op for p in raw["plain"] + raw["traced"] for op in p["ops"]]
    bad = [op for op in ops if not op["ok"]]
    for op in bad[:20]:
        print("FAILED %s: %s" % (op["name"], op.get("detail", "")), file=sys.stderr)
    return len(ops), len(bad)


def run_workload(name, seed, seconds, trace):
    raw = measure(name, seed, seconds, trace)
    metrics = per_layer(name, raw) if trace else end_to_end(raw)
    attempted, failed = failures(raw)
    return metrics, attempted, failed


def print_table(name, metrics, attempted, failed):
    for key, (value, unit) in metrics.items():
        print("%-14s %-38s %14.6g %s" % (name, key, value, unit))
    print("%-14s %-38s %14.6g %s" % (name, "fail_frac",
                                     failed / attempted, "failed/attempted"))


# ---------------------------------------------------------------------------


def record_golden():
    golden = {}
    deadline = time.perf_counter() + 3600
    for name in WORKLOADS:
        golden.update(run_child([name, 0, 0, "record"], deadline)[1])
    with open(GOLDEN, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print("wrote %s" % GOLDEN)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-golden", action="store_true",
                   help="rewrite golden.json from this checkout's outputs")
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rootfold", "__init__.py")):
        print("no rootfold sources under %s; run from the root of a checkout"
              % SRC, file=sys.stderr)
        return 2
    if args.record_golden:
        record_golden()
        return 0
    if not args.workload:
        p.error("--workload is required")
    try:
        if args.workload == "all":
            ok = True
            for name in sorted(WORKLOADS):
                metrics, attempted, failed = run_workload(
                    name, args.seed, args.seconds, args.trace)
                print_table(name, metrics, attempted, failed)
                ok = ok and failed == 0
            return 0 if ok else 1
        metrics, attempted, failed = run_workload(
            args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print("benchmark error: %s" % exc, file=sys.stderr)
        return 1
    print_table(args.workload, metrics, attempted, failed)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
