"""One pass of a workload, in a fresh interpreter.

    python3 perfbench/runpass.py OPS.json RESULTS.json

OPS.json holds the argv list of each op.  The ops run one after another as
in-process ``fewvar.cli.main(argv)`` calls (see ``run.run_pass``), and their
results, (exit code, stdout, stderr, calibrated seconds, measured seconds)
per op, go to RESULTS.json.
"""

import json
import sys
from pathlib import Path

import run


def main(argv):
    ops_file, results_file = argv
    argvs = json.loads(Path(ops_file).read_text())
    cli, clears = run.import_program()
    results = run.run_pass(cli.main, argvs, clears=clears)
    Path(results_file).write_text(json.dumps(results))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
