"""Golden command-line output: each case's stdout, byte for byte.

The `.out` files under tests/golden/ hold what `rootfold <argv>` printed
when they were recorded; any change to a subcommand's output fails here.
After an intended output change, re-record them with

    PYTHONPATH=src python tests/test_golden.py

Inputs stay at rank <= 3, apart from the full `rootfold verify` report.
"""

import contextlib
import io
import os
import sys

import pytest

from rootfold import cli
from rootfold.presets import _PRESET_DIR

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden")
GL3_DATUM = os.path.join(GOLDEN, "gl3-datum.json")
TOWER_CONFIG = os.path.join(_PRESET_DIR, "tower-su3.json")

CASES = {
    "presets": ["presets"],
    "verify": ["verify"],
    "fold-su3-ramified": ["fold", "--preset", "su3-ramified"],
    "fold-su4-unramified-tsv": ["fold", "--preset", "su4-unramified",
                                "--out", "tsv"],
    "fold-type-tau": ["fold", "--type", "A2", "--isogeny", "simply_connected",
                      "--tau", "1,0"],
    "fold-type-inertia": ["fold", "--type", "A3", "--inertia", "2,1,0"],
    "fold-datum": ["fold", "--datum", GL3_DATUM, "--out", "tsv"],
    "echelonnage-su4-unramified": ["echelonnage", "--preset", "su4-unramified"],
    "echelonnage-su3-ramified-tsv": ["echelonnage", "--preset", "su3-ramified",
                                     "--out", "tsv"],
    "echelonnage-type-tau": ["echelonnage", "--type", "A2", "--isogeny",
                             "simply_connected", "--tau", "1,0"],
    "echelonnage-type-inertia": ["echelonnage", "--type", "A1xA1",
                                 "--inertia", "1,0"],
    "echelonnage-datum": ["echelonnage", "--datum", GL3_DATUM],
    "adm-split-a1": ["adm", "--preset", "split-a1", "--mu", "2"],
    "adm-split-b2-tsv": ["adm", "--preset", "split-b2", "--mu", "1,1",
                         "--out", "tsv"],
    "adm-su3-unramified": ["adm", "--preset", "su3-unramified", "--mu", "1,1"],
    "kl-su3-unramified": ["kl", "--preset", "su3-unramified",
                          "--pair", "0,0|1,1"],
    "kl-split-b2": ["kl", "--preset", "split-b2", "--pair", "0,0|1,1"],
    "geom-basis-split-a2": ["geom-basis", "--preset", "split-a2",
                            "--lambda", "2,2"],
    "geom-basis-su3-unramified": ["geom-basis", "--preset", "su3-unramified",
                                  "--lambda", "2,2"],
    "geom-basis-su3-ramified": ["geom-basis", "--preset", "su3-ramified",
                                "--lambda", "1,0,-1"],
    "geom-basis-su4-unramified-no-kl": ["geom-basis", "--preset",
                                        "su4-unramified", "--lambda", "1,0,1",
                                        "--no-kl"],
    "branch-su3-ramified": ["branch", "--preset", "su3-ramified",
                            "--mu", "1,0,-1"],
    "branch-su4-ramified-tsv": ["branch", "--preset", "su4-ramified",
                                "--mu", "1,0,1", "--out", "tsv"],
    "testfn-split-a2": ["testfn", "--preset", "split-a2", "--mu", "1,1"],
    "testfn-su3-ramified": ["testfn", "--preset", "su3-ramified",
                            "--mu", "1,0,-1"],
    "testfn-tower-su3": ["testfn", "--preset", "tower-su3", "--mu", "1,1"],
    "testfn-tower-su3-j2": ["testfn", "--preset", "tower-su3", "--mu", "1,1",
                            "--j", "2"],
    "testfn-tower-su3-degenerate": ["testfn", "--preset", "tower-su3",
                                    "--mu", "2,2", "--degenerate"],
    "testfn-config": ["testfn", "--config", TOWER_CONFIG, "--mu", "2,2"],
}


def run_case(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue().encode()


def golden_path(name):
    return os.path.join(GOLDEN, name + ".out")


@pytest.mark.parametrize("name", sorted(CASES))
def test_cli_output_matches_golden(name):
    code, out = run_case(CASES[name])
    assert code == 0
    with open(golden_path(name), "rb") as fh:
        assert out == fh.read()


def record():
    for name in sorted(CASES):
        code, out = run_case(CASES[name])
        if code != 0:
            sys.exit("%s exited %d" % (name, code))
        with open(golden_path(name), "wb") as fh:
            fh.write(out)
        print("recorded %s (%d bytes)" % (name, len(out)))


if __name__ == "__main__":
    record()
