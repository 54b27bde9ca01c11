"""Command-line front end.

Every library capability is exposed as a batch subcommand with JSON input
and output.  Exit codes: 0 success (or all checks passed), 1 a
verification report contains a failed check, 2 malformed input, 3 a
precondition of the requested operation does not hold (for instance a
resonant conjugation).  Errors are reported on stderr as
{"error": {"kind": ..., "detail": ...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import core, curvature, dynamics, flat, quotients, serialize
from . import group as grp
from .errors import (
    CWError,
    DomainError,
    InputError,
    MalformedProfileError,
    PreconditionError,
    ResonanceError,
    UnsupportedCaseError,
)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3

_INPUT_KINDS = (InputError, MalformedProfileError)
_PRECONDITION_KINDS = (PreconditionError, ResonanceError, UnsupportedCaseError,
                       DomainError)


def _read_payload(path: str):
    if path == "-":
        text = sys.stdin.read()
    else:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise InputError(f"cannot read input file: {exc}") from exc
    if not text.strip():
        raise InputError("empty input")
    data = serialize.parse_json(text)
    if not isinstance(data, dict):
        raise InputError("input must be a JSON object")
    return data


def _emit(args, payload) -> None:
    if args.format == "pretty":
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        text = json.dumps(payload, sort_keys=True)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _seed(args) -> int:
    if args.seed is not None:
        return args.seed
    env = os.environ.get("CW_LAB_SEED")
    return int(env) if env else 42


def _report_payload(report) -> dict:
    return {
        "example": report.example,
        "passed": report.passed,
        "checks": [{"name": c.name, "pass": c.passed, "residual": c.residual}
                   for c in report.checks],
        "commentary": report.commentary,
    }


# --- subcommand handlers ----------------------------------------------------

def cmd_classify(args) -> int:
    data = _read_payload(args.input)
    prof = serialize.load_profile(data)
    cls = core.classify(prof)
    _emit(args, {"type": cls.type, "invertible": cls.invertible,
                 "conformally_flat": cls.conformally_flat,
                 "lambda_max_sq": cls.lambda_max_sq})
    return EXIT_OK


def cmd_curvature(args) -> int:
    data = _read_payload(args.input)
    prof = serialize.load_profile(data)
    _emit(args, {
        "riemann": serialize.dump_tensor4(curvature.riemann(prof)),
        "ricci": serialize.dump_bilinear(curvature.ricci(prof)),
        "scalar": curvature.scalar(prof),
        "schouten": serialize.dump_bilinear(curvature.schouten(prof)),
        "weyl": serialize.dump_tensor4(curvature.weyl(prof)),
        "cotton_max_abs": float(np.max(np.abs(curvature.cotton(prof)))),
        "frame": "t, x_1..x_n, v",
    })
    return EXIT_OK


def _load_pair(data):
    prof = serialize.load_profile(data.get("profile", {}))
    return prof


def cmd_compose(args) -> int:
    data = _read_payload(args.input)
    prof = _load_pair(data)
    phi = serialize.load_homothety(prof, data.get("phi", {}))
    psi = serialize.load_homothety(prof, data.get("psi", {}))
    _emit(args, serialize.dump_homothety(grp.compose(phi, psi)))
    return EXIT_OK


def cmd_apply(args) -> int:
    data = _read_payload(args.input)
    prof = _load_pair(data)
    phi = serialize.load_homothety(prof, data.get("phi", {}))
    p = serialize.load_point(prof.n, data.get("point"))
    _emit(args, serialize.dump_point(grp.apply(phi, p)))
    return EXIT_OK


def cmd_fixed_point(args) -> int:
    data = _read_payload(args.input)
    prof = _load_pair(data)
    phi = serialize.load_homothety(prof, data.get("phi", {}))
    rep = dynamics.fixed_point(phi)
    _emit(args, {"exists": rep.exists,
                 "point": None if rep.point is None else serialize.dump_point(rep.point),
                 "reason": rep.reason, "residual": rep.residual})
    return EXIT_OK


def cmd_essential(args) -> int:
    data = _read_payload(args.input)
    prof = _load_pair(data)
    phi = serialize.load_homothety(prof, data.get("phi", {}))
    rep = dynamics.fixed_point(phi)
    essential = dynamics.is_essential(phi)
    _emit(args, {"essential": essential,
                 "fixed_point": None if rep.point is None
                 else serialize.dump_point(rep.point)})
    return EXIT_OK


def cmd_normal_form(args) -> int:
    data = _read_payload(args.input)
    prof = _load_pair(data)
    phi = serialize.load_homothety(prof, data.get("phi", {}))
    res = dynamics.normal_form(phi)
    _emit(args, {"conjugator": serialize.dump_homothety(res.conjugator),
                 "normal": serialize.dump_homothety(res.normal),
                 "residual": res.residual})
    return EXIT_OK


def cmd_orbit(args) -> int:
    data = _read_payload(args.input)
    prof = _load_pair(data)
    gamma = serialize.load_homothety(prof, data.get("gamma", {}))
    phi = serialize.load_homothety(prof, data.get("phi", {}))
    K = serialize.load_count(data, "K", 60)
    rep = dynamics.orbit_obstruction_sequence(gamma, phi, K=K)
    _emit(args, {"sequence": [serialize.dump_point(p) for p in rep.points],
                 "limit": serialize.dump_point(rep.limit),
                 "converged": rep.converged, "rate": rep.rate})
    return EXIT_OK


def cmd_pullback_check(args) -> int:
    data = _read_payload(args.input)
    n = serialize.load_count(data, "n", 2)
    which = data.get("map", "minkowski")
    samples = args.samples
    rng = np.random.default_rng(_seed(args))
    g0 = flat.minkowski_metric(n)
    if which == "minkowski":
        prof = core.SymmetricProfile(np.eye(n))
        mapping = flat.minkowski_map(n)

        def factor(p):
            return np.exp(2 * p.t)
    elif which == "imaginary":
        prof = core.SymmetricProfile(-np.eye(n))
        mapping = flat.imaginary_local_map(n)

        def factor(p):
            return 1.0 / np.cos(p.t) ** 2
    else:
        raise InputError(f"unknown map '{which}'; use 'minkowski' or 'imaginary'")
    worst = 0.0
    for _ in range(samples):
        scale = 1.0 if which == "minkowski" else 0.45 * np.pi
        p = core.Point(rng.uniform(-1, 1) * scale, rng.normal(size=n), rng.normal())
        pulled = flat.pullback_metric(mapping, lambda q: g0, p)
        target = factor(p) * curvature.metric_at(prof, p).components
        worst = max(worst, float(np.max(np.abs(pulled.components - target))))
    tol = dict(args.tolerance).get("pullback", 1e-9)
    ok = worst <= tol
    _emit(args, {"map": which, "n": n, "samples": samples,
                 "max_residual": worst, "pass": ok})
    return EXIT_OK if ok else EXIT_CHECK_FAILED


def cmd_verify_example(args) -> int:
    name = args.name
    kwargs = {}
    if name == "real-lattice" and args.r is not None:
        kwargs["r"] = args.r
    try:
        report = quotients.verify_example(name, **kwargs)
    except KeyError as exc:
        raise InputError(str(exc)) from exc
    _emit(args, _report_payload(report))
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def cmd_pd_report(args) -> int:
    data = _read_payload(args.input)
    prof = _load_pair(data)
    gens = data.get("generators", [])
    if not isinstance(gens, list) or not gens:
        raise InputError("pd-report needs a non-empty list of generators")
    gens = [serialize.load_homothety(prof, g) for g in gens]
    max_length = serialize.load_count(data, "max_length", 2)
    rep = dynamics.pd_necessary_report(gens, max_length=max_length)
    _emit(args, {
        "space_type": rep.space_type,
        "lambda_max_sq": rep.lambda_max_sq,
        "words_checked": rep.words_checked,
        "clean": rep.clean,
        "obstructions": [{"word": list(o.word), "kind": o.kind, "detail": o.detail}
                         for o in rep.obstructions],
    })
    return EXIT_OK


COMMANDS = {
    "classify": cmd_classify,
    "curvature": cmd_curvature,
    "compose": cmd_compose,
    "apply": cmd_apply,
    "fixed-point": cmd_fixed_point,
    "essential": cmd_essential,
    "normal-form": cmd_normal_form,
    "orbit": cmd_orbit,
    "pullback-check": cmd_pullback_check,
    "verify-example": cmd_verify_example,
    "pd-report": cmd_pd_report,
}


def _tolerance_pair(text: str):
    if "=" not in text:
        raise argparse.ArgumentTypeError("expected NAME=VALUE")
    name, _, value = text.partition("=")
    try:
        v = float(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad tolerance value: {value}") from exc
    if v <= 0:
        raise argparse.ArgumentTypeError("tolerances must be positive")
    return name, v


_GLOBAL_DEFAULTS = {"tolerance": [], "seed": None, "samples": 50,
                    "output": None, "format": "json"}


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tolerance", action="append", type=_tolerance_pair,
                        default=argparse.SUPPRESS, metavar="NAME=VALUE",
                        help="override a named tolerance")
    common.add_argument("--seed", type=int, default=argparse.SUPPRESS,
                        help="seed for randomized checks (default: CW_LAB_SEED or 42)")
    common.add_argument("--samples", type=int, default=argparse.SUPPRESS,
                        help="sample count for randomized checks")
    common.add_argument("--output", default=argparse.SUPPRESS,
                        help="write JSON here instead of stdout")
    common.add_argument("--format", choices=["json", "pretty"],
                        default=argparse.SUPPRESS)

    parser = argparse.ArgumentParser(
        prog="cwgeom", parents=[common],
        description="Numerics for Cahen-Wallach Lorentzian symmetric spaces")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in ("classify", "curvature", "compose", "apply", "fixed-point",
                 "essential", "normal-form", "orbit", "pullback-check",
                 "pd-report"):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("input", help="input JSON file, or - for stdin")

    p = sub.add_parser("verify-example", parents=[common])
    p.add_argument("name", choices=sorted(quotients.EXAMPLES))
    p.add_argument("--r", type=int, default=None,
                   help="root parameter for the real-lattice example")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    for key, value in _GLOBAL_DEFAULTS.items():
        if not hasattr(args, key):
            setattr(args, key, value)
    try:
        return COMMANDS[args.command](args)
    except _INPUT_KINDS as exc:
        print(json.dumps({"error": {"kind": exc.kind, "detail": str(exc)}}),
              file=sys.stderr)
        return EXIT_INPUT
    except _PRECONDITION_KINDS as exc:
        print(json.dumps({"error": {"kind": exc.kind, "detail": str(exc)}}),
              file=sys.stderr)
        return EXIT_PRECONDITION
    except CWError as exc:
        print(json.dumps({"error": {"kind": exc.kind, "detail": str(exc)}}),
              file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
