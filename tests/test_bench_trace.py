"""The benchmark tracer still finds every layer it times.

`benchmarks/tracer.py` wraps rootfold functions and methods by name, so a
rename in `src/` would break `benchmarks/run.py --trace 1`.  The wrappers
also read some call arguments (the closure key takes `base, gram, label`),
so the child runs the folding layers of one preset through them.  The
library builds its systems from int rows, so `folding.closure` (the
rational `RootSystemV.__init__`) is called once explicitly.  The
tracer patches the library globally, so it is installed in a child
interpreter.
"""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHILD = r"""
import importlib
import json
import sys

sys.path.insert(0, sys.argv[1])
from tracer import TARGETS, Tracer

tracer = Tracer()
tracer.install()
unwrapped = []
for name, mod, attr, _hot in TARGETS:
    obj = importlib.import_module("rootfold." + mod)
    for part in attr.split("."):
        obj = getattr(obj, part)
    if not hasattr(obj, "__wrapped__"):
        unwrapped.append(name)

from rootfold import folding
from rootfold.presets import load_preset

lgd = load_preset("su3-ramified").lgd
bad = folding.verify_duality(lgd.datum, lgd.inertia.group,
                             lgd.inertia.cochar_group)
lgd.echelonnage()
folding.RootSystemV(lgd.datum.simple_roots, lgd.datum.gram())
summary = tracer.summary()
print(json.dumps({"targets": len(TARGETS), "unwrapped": unwrapped,
                  "duality_ok": not bad, "calls": summary["calls"],
                  "distinct": summary["distinct"]}))
"""


def test_tracer_wraps_every_target():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, os.path.join(ROOT, "benchmarks")],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout)
    assert out["targets"] > 0
    assert out["unwrapped"] == []
    assert out["duality_ok"]
    for name in ("folding.closure", "folding.fold", "folding.verify_duality",
                 "echelonnage.build"):
        assert out["calls"][name] > 0, name
    assert out["distinct"]["folding.closure"] > 0
