"""Run the cwgeom CLI with span tracing, for the traced cli-oneshot pass.

Usage: python perfbench/cli_traced.py SPANS_JSON <cwgeom cli arguments>

Behaves like `python -m cwgeom.cli`, and writes the process's spans and
counters to SPANS_JSON on exit, also when the CLI raises.
"""

import sys

import tracing
from cwgeom import cli

if __name__ == "__main__":
    recorder = tracing.Recorder()
    saved = tracing.install(recorder)
    try:
        code = cli.main(sys.argv[2:])
    finally:
        tracing.restore(saved)
        recorder.dump(sys.argv[1])
    sys.exit(code)
