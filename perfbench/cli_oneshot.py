"""cli-oneshot: one fresh `python -m cwgeom.cli <subcommand>` process per
request, one at a time.

Import time and JSON serialisation dominate.  One cycle holds each of the
11 subcommands once with a small input (n fixed per subcommand, from
{2, 4, 8}), BIG_PER_CYCLE `curvature` requests at n = 32 on one profile
(about 15 MB of JSON each), and a fixed slice of malformed payloads.
There are enough n = 32 requests that the tail, the 11th-highest sample,
is one of them.  The seed sets the values and the order.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys

import numpy as np

import inputs
from harness import Request
from pd_sweep import words

HERE = os.path.dirname(os.path.abspath(__file__))
SMALL_N = {"classify": 2, "curvature": 4, "compose": 8, "apply": 2,
           "fixed-point": 4, "essential": 8, "normal-form": 2, "orbit": 4,
           "pullback-check": 8, "pd-report": 2}
BIG_N = 32
BIG_PER_CYCLE = 12
ORBIT_K = 60
SAMPLES = 50
PD_GENS, PD_LENGTH = 2, 3

# Seconds one cycle takes at nominal machine speed at the time of writing;
# a run repeats the cycle ceil(--seconds / NOMINAL_CYCLE_S) times.
NOMINAL_CYCLE_S = 27.7


class Runner:
    """Runs CLI processes through launcher.py from the checkout root;
    `traced` runs them under cli_traced.py, which writes each process's
    spans to `span_dir`."""

    def __init__(self, root, env, span_dir):
        self.span_dir = span_dir
        self.count = 0
        self.proc = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "launcher.py"), root],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, cwd=root, env=env)

    def run(self, argv, payload, traced=False):
        """Returns (seconds from start to exit, (exit code, stdout, stderr))."""
        if traced:
            path = os.path.join(self.span_dir, f"{self.count:05d}.json")
            self.count += 1
            cmd = [sys.executable, os.path.join(HERE, "cli_traced.py"), path, *argv]
        else:
            cmd = [sys.executable, "-m", "cwgeom.cli", *argv]
        head = json.dumps({"cmd": cmd, "input": len(payload)}).encode()
        self.proc.stdin.write(head + b"\n" + payload)
        self.proc.stdin.flush()
        reply = json.loads(self.proc.stdout.readline())
        out = self.proc.stdout.read(reply["out"])
        err = self.proc.stdout.read(reply["err"])
        return reply["elapsed"], (reply["code"], out, err)

    def close(self):
        """Ends the launcher; returns the peak RSS in MB over its children."""
        self.proc.stdin.write(b'{"cmd": null}\n')
        self.proc.stdin.flush()
        maxrss = json.loads(self.proc.stdout.readline())["maxrss_kb"]
        self.proc.wait(timeout=30)
        return maxrss / 1024.0


def replay(cw, argv, payload):
    """The same call made in process: cli.main with stdin and stdout
    redirected.  Returns (exit code, stdout text)."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(payload.decode())
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cw.cli.main(list(argv))
    finally:
        sys.stdin = saved
    return code, out.getvalue()


def _numbers_close(a, b, rtol=1e-9):
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_numbers_close(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(_numbers_close(x, y) for x, y in zip(a, b))
    if isinstance(a, float) or isinstance(b, float):
        return (isinstance(a, (int, float)) and isinstance(b, (int, float))
                and abs(a - b) <= rtol * max(1.0, abs(a), abs(b)))
    return a == b


def valid_request(cw, runner, label, argv, payload, oracle, pd_words=0):
    """A well-formed request: exit 0, JSON on stdout equal to the in-process
    call, and the oracle (which returns a failure detail or None)."""
    payload = json.dumps(payload).encode() if payload is not None else b""
    memo = {}  # the in-process output, and the verdict on each output seen

    def check(out):
        code, stdout, stderr = out
        if code != 0 or b"Traceback" in stderr:
            return f"exit {code}: {stderr.decode(errors='replace')[-200:]}"
        if "ref" not in memo:
            memo["ref"] = replay(cw, argv, payload)
        if stdout not in memo:
            ref_code, ref = memo["ref"]
            text = stdout.decode()
            data = json.loads(text)
            if ref_code != code or (text != ref and not _numbers_close(data, json.loads(ref))):
                memo[stdout] = "output differs from the same call made in process"
            else:
                memo[stdout] = oracle(data)
        return memo[stdout]

    return Request(f"cli {label}", lambda: runner.run(argv, payload), check,
                   words=pd_words, payload_bytes=len(payload), self_timed=True,
                   traced_call=lambda: runner.run(argv, payload, traced=True))


def malformed_request(runner, label, argv, payload, defect=None):
    """Malformed input: exit 2 with a JSON error on stderr, no traceback.
    `defect` names the known defect behind a traceback on this input."""
    payload = json.dumps(payload).encode()

    def check(out):
        code, stdout, stderr = out
        if b"Traceback" in stderr:
            detail = "traceback: " + stderr.decode(errors="replace").strip().splitlines()[-1]
            return (detail, defect) if defect else detail
        if code != 2:
            return f"exit {code}, expected 2"
        try:
            err = json.loads(stderr.decode())["error"]
        except (ValueError, KeyError, TypeError):
            return "stderr is not a JSON error"
        return None if "kind" in err and "detail" in err else "JSON error lacks kind/detail"

    return Request(f"cli malformed {label}", lambda: runner.run(argv, payload), check,
                   payload_bytes=len(payload), self_timed=True,
                   traced_call=lambda: runner.run(argv, payload, traced=True))


def _profile_json(prof):
    return {"n": prof["n"], "S": prof["S"].tolist()}


def _curvature_oracle(prof):
    S = prof["S"]
    tol = 1e-12 * max(1.0, float(np.max(np.abs(S))))

    def oracle(data):
        err = float(np.max(np.abs(np.asarray(data["riemann"]) - inputs.riemann_oracle(S))))
        return None if err <= tol else f"riemann error {err:.3g}"

    return oracle


def _ok(data):
    return None


def build(cw, rng, size, runner):
    kinds = {name: inputs.PROFILE_TYPES[int(rng.integers(0, 4))] for name in SMALL_N}
    kinds["normal-form"] = kinds["orbit"] = "imaginary"  # never resonant; orbit converges
    prof = {name: inputs.profile(rng, kinds[name], n) for name, n in SMALL_N.items()}

    def pair(name, **kw):
        return {"profile": _profile_json(prof[name]),
                "phi": inputs.as_json(inputs.element(rng, prof[name], **kw))}

    p = prof["classify"]
    cycle = [valid_request(cw, runner, "classify n=2", ["classify", "-"],
                           _profile_json(p),
                           lambda d, k=p["kind"]: None if d["type"] == k
                           else f"type {d['type']} != {k}")]
    p = prof["curvature"]
    cycle.append(valid_request(cw, runner, f"curvature n={p['n']}", ["curvature", "-"],
                               _profile_json(p), _curvature_oracle(p)))
    big = inputs.profile(rng, inputs.PROFILE_TYPES[int(rng.integers(0, 4))], BIG_N)
    # the same request each time, so that its output is checked in process once
    cycle += [valid_request(cw, runner, f"curvature n={BIG_N}", ["curvature", "-"],
                            _profile_json(big), _curvature_oracle(big))] * BIG_PER_CYCLE
    data = pair("compose")
    data["psi"] = inputs.as_json(inputs.element(rng, prof["compose"]))
    cycle.append(valid_request(cw, runner, "compose n=8", ["compose", "-"], data, _ok))
    data = pair("apply")
    data["point"] = rng.normal(size=SMALL_N["apply"] + 2).tolist()
    cycle.append(valid_request(cw, runner, "apply n=2", ["apply", "-"], data, _ok))
    cycle.append(valid_request(cw, runner, "fixed-point n=4", ["fixed-point", "-"],
                               pair("fixed-point", strict=bool(rng.integers(0, 2))), _ok))
    cycle.append(valid_request(cw, runner, "essential n=8", ["essential", "-"],
                               pair("essential"), _ok))
    cycle.append(valid_request(cw, runner, "normal-form n=2", ["normal-form", "-"],
                               pair("normal-form", eps=1), _ok))

    p = prof["orbit"]
    orbit = {"profile": _profile_json(p), "K": ORBIT_K,
             "gamma": {"c": float(rng.uniform(0.5, 1.5)), "s": float(rng.uniform(0.4, 0.9)),
                       "A": inputs.centraliser_matrix(rng, p).tolist()},
             "phi": inputs.as_json(inputs.element(rng, p, eps=1,
                                                  c=float(rng.uniform(0.5, 1.5))))}
    limit = [orbit["phi"]["c"]] + [0.0] * (p["n"] + 1)

    def orbit_oracle(d):
        dist = float(np.max(np.abs(np.asarray(d["sequence"][-1]) - limit)))
        return None if d["converged"] and dist <= 1e-6 else f"orbit ends {dist:.3g} from limit"

    cycle.append(valid_request(cw, runner, "orbit n=4", ["orbit", "-"], orbit, orbit_oracle))
    which = ["minkowski", "imaginary"][int(rng.integers(0, 2))]
    cycle.append(valid_request(
        cw, runner, f"pullback-check n=8 {which}",
        ["pullback-check", "-", "--seed", str(int(rng.integers(0, 2**31))),
         "--samples", str(SAMPLES)],
        {"n": SMALL_N["pullback-check"], "map": which},
        lambda d: None if d["pass"] else f"max residual {d['max_residual']:.3g}"))
    r = int(rng.integers(3, 7))
    cycle.append(valid_request(cw, runner, f"verify-example real-lattice r={r}",
                               ["verify-example", "real-lattice", "--r", str(r)], None,
                               lambda d: None if d["passed"] else "report failed"))

    p = prof["pd-report"]
    gens = [inputs.element(rng, p, strict=bool(rng.integers(0, 4))) for _ in range(PD_GENS)]
    expected = inputs.quotient_law_report(gens, p, PD_LENGTH)

    def pd_oracle(d):
        got = [(tuple(o["word"]), o["kind"]) for o in d["obstructions"]]
        if (d["words_checked"], got) != expected:
            return "pd report disagrees with the quotient law"
        return None

    cycle.append(valid_request(
        cw, runner, f"pd-report n=2 g={PD_GENS} L={PD_LENGTH}", ["pd-report", "-"],
        {"profile": _profile_json(p), "generators": [inputs.as_json(g) for g in gens],
         "max_length": PD_LENGTH}, pd_oracle, pd_words=words(PD_GENS, PD_LENGTH)))

    # malformed slice: the first five print a traceback at the time of writing
    p = prof["compose"]
    bad_eps = pair("compose")
    bad_eps["phi"]["eps"] = "x"
    bad_K = json.loads(json.dumps(orbit))
    bad_K["K"] = "a"
    zero_K = json.loads(json.dumps(orbit))
    zero_K["K"] = 0
    huge_s = pair("apply")
    huge_s["phi"]["s"] = 1000.0
    huge_s["point"] = rng.normal(size=SMALL_N["apply"] + 2).tolist()
    asym = prof["classify"]["S"].copy()
    asym[0, -1] += float(rng.uniform(0.5, 1.5))
    tb = "malformed-traceback"
    malformed = [
        malformed_request(runner, "top-level list", ["compose", "-"],
                          rng.normal(size=3).tolist(), tb),
        malformed_request(runner, "eps=x", ["compose", "-"], bad_eps, tb),
        malformed_request(runner, "K=a", ["orbit", "-"], bad_K, tb),
        malformed_request(runner, "K=0", ["orbit", "-"], zero_K, tb),
        malformed_request(runner, "apply s=1000", ["apply", "-"], huge_s, tb),
        malformed_request(runner, "non-symmetric S", ["classify", "-"],
                          {"S": asym.tolist()}),
        malformed_request(runner, "missing S", ["curvature", "-"], {"n": 2}),
    ]
    if size == "full":
        cycle += malformed
    else:
        cycle = [cycle[0], cycle[-1], malformed[0]]
    order = rng.permutation(len(cycle))
    cycle = [cycle[k] for k in order]
    info = {"n": sorted(set(SMALL_N.values()) | {BIG_N}) if size == "full" else [2],
            "orbit_K": ORBIT_K, "pullback_samples": SAMPLES,
            "pd_generators": PD_GENS, "pd_max_length": PD_LENGTH,
            "requests_per_cycle": len(cycle),
            "curvature_n32_per_cycle": sum(q.kind == f"cli curvature n={BIG_N}" for q in cycle),
            "malformed_per_cycle": sum(q.kind.startswith("cli malformed") for q in cycle),
            "words_per_cycle": sum(q.words for q in cycle),
            "payload_bytes_per_cycle": sum(q.payload_bytes for q in cycle),
            "payload_bytes_max": max(q.payload_bytes for q in cycle)}
    return cycle, info
