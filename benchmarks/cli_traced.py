"""Run one `rootfold.cli` command with the tracer installed.

    PYTHONPATH=src python3 benchmarks/cli_traced.py SUBCOMMAND ARGS...

Prints one JSON object: the command's exit code, its standard output and
the tracer's dump.  The traced cli_oneshot pass runs queries through this
instead of `python -m rootfold.cli`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from tracer import Tracer  # noqa: E402


def main(argv):
    import rootfold.cli
    tracer = Tracer()
    tracer.install()
    tracer.op = " ".join(argv)
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        try:
            code = rootfold.cli.main(argv)
        except SystemExit as exc:  # argparse rejects the arguments
            code = exc.code if isinstance(exc.code, int) else 2
    print(json.dumps({"code": code, "stdout": buf.getvalue(),
                      "trace": tracer.dump()}))


if __name__ == "__main__":
    main(sys.argv[1:])
