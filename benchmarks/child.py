"""One benchmark pass, or only its set-up, in a fresh interpreter.

    PYTHONPATH=src python3 benchmarks/child.py WORKLOAD SEED PASS MODE

MODE is `setup` (build the inputs, then stop), `plain` (a timed pass),
`traced` (a pass with the tracer installed) or `record` (print the golden
entries for the workload).  The child prints READY once its inputs are
built, then one JSON line: the ops, the pass's wall time and peak memory,
and in `traced` mode the trace summary.  Spans of a traced pass are written
to .bench_out/ at the root of the checkout when the pass ends.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from workloads import ROOT, SRC, WORKLOADS  # noqa: E402

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def main(argv):
    name, seed, pass_no, mode = argv
    import rootfold
    if not os.path.abspath(rootfold.__file__).startswith(SRC + os.sep):
        raise SystemExit("rootfold was imported from %s, not from %s"
                         % (rootfold.__file__, SRC))
    workload = WORKLOADS[name]
    tracer = None
    if mode == "traced":
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    inputs = workload.setup("%s/%s" % (seed, pass_no))
    print("READY", flush=True)
    if mode == "setup":
        return
    if mode == "record":
        print(json.dumps({name: workload.record(inputs)}))
        return
    with open(GOLDEN) as fh:
        golden = json.load(fh)[name]
    t0 = time.perf_counter()
    ops = workload.run(inputs, golden, tracer)
    wall = time.perf_counter() - t0
    who = resource.RUSAGE_CHILDREN if name == "cli_oneshot" else resource.RUSAGE_SELF
    out = {"ops": ops, "wall_s": wall,
           "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024.0}
    if tracer is not None:
        out["trace"] = tracer.totals()
        outdir = os.path.join(ROOT, ".bench_out")
        os.makedirs(outdir, exist_ok=True)
        with open(os.path.join(outdir, "%s-seed%s.trace.json" % (name, seed)),
                  "w") as fh:
            json.dump(tracer.dump(), fh)
    print(json.dumps(out))


if __name__ == "__main__":
    main(sys.argv[1:])
