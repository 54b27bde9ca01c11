"""Starts the CLI processes of cli-oneshot on behalf of the worker.

A child's peak RSS as the kernel reports it is at least the RSS of the
process that started it (the address space it ran in until exec), and the
worker's RSS grows with the outputs it checks.  This launcher stays small,
so the peak RSS of its children is their own.

Protocol on stdin/stdout, all bytes: the worker sends a JSON header line
{"cmd": [...], "input": N} and N payload bytes; the launcher replies with
{"code": ..., "elapsed": ..., "out": N1, "err": N2} and the two streams.
A header {"cmd": null} asks for {"maxrss_kb": ...} over all children
started so far and ends the launcher.
"""

import json
import resource
import subprocess
import sys
import time


def main(cwd):
    rd, wr = sys.stdin.buffer, sys.stdout.buffer
    for line in iter(rd.readline, b""):
        req = json.loads(line)
        if req["cmd"] is None:
            maxrss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
            wr.write(json.dumps({"maxrss_kb": maxrss}).encode() + b"\n")
            wr.flush()
            return
        payload = rd.read(req["input"])
        t0 = time.perf_counter()
        proc = subprocess.run(req["cmd"], input=payload, capture_output=True,
                              cwd=cwd, timeout=120)
        elapsed = time.perf_counter() - t0
        head = {"code": proc.returncode, "elapsed": elapsed,
                "out": len(proc.stdout), "err": len(proc.stderr)}
        wr.write(json.dumps(head).encode() + b"\n" + proc.stdout + proc.stderr)
        wr.flush()


if __name__ == "__main__":
    main(sys.argv[1])
