"""Command-line front end.

Every library capability is exposed as a batch subcommand with JSON input
and output:

    cwgeom SUBCOMMAND INPUT [flags]    (INPUT is a JSON file, or - for stdin)
    cwgeom verify-example NAME [flags]

Flags follow the subcommand, and each subcommand accepts only the flags it
reads: every subcommand takes --output FILE and --format json|pretty;
pullback-check also takes --seed (default CW_LAB_SEED or 42), --samples
(at least 1) and --tolerance pullback=VALUE; verify-example takes --r,
for the real-lattice example only.

Exit codes: 0 success (or all checks passed), 1 a verification report
contains a failed check, 2 malformed input or usage, 3 a precondition of
the requested operation does not hold (for instance a resonant
conjugation) or a computed value overflows.  Errors are reported on
stderr as {"error": {"kind": ..., "detail": ...}}.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import core, curvature, dynamics, flat, quotients, serialize
from . import group as grp
from .errors import CWError, InputError, MalformedProfileError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3


class Subcommand(NamedTuple):
    """One subcommand: `load` turns its operand into the positional
    arguments of `call`, `call` runs the library, and `dump` turns the
    result into the JSON payload.  The operand is the input JSON object,
    or one of `names` when the subcommand takes a name instead.  `flags`
    are the extra flags `call` takes as keyword arguments; a false
    `verdict` field of the payload makes the exit code 1.

    Library functions are looked up on their module when called, never
    stored here, so that wrappers installed on a module take effect."""

    load: Callable
    call: Callable
    dump: Callable = lambda payload: payload
    flags: tuple = ()
    names: Optional[tuple] = None
    verdict: Optional[str] = None


def _with_profile(load):
    """Loader of {"profile": ..., ...}: load(profile, data) gives the arguments."""
    return lambda data: load(serialize.load_profile(data.get("profile", {})), data)


def _homotheties(*keys):
    """Loader of {"profile": ..., key: homothety, ...}, one argument per key."""
    return _with_profile(lambda prof, data: [
        serialize.load_homothety(prof, data.get(key, {})) for key in keys])


def _generators(data) -> list:
    gens = data.get("generators", [])
    if not isinstance(gens, list) or not gens:
        raise InputError("'generators' must be a non-empty list of homotheties")
    return gens


def _point(p) -> Optional[list]:
    return None if p is None else serialize.dump_point(p)


def _root(name: str, r: Optional[int]) -> dict:
    """verify_example's keyword arguments for --r, which only the
    real-lattice example reads."""
    if r is None:
        return {}
    if name != "real-lattice":
        raise InputError(f"--r applies only to the real-lattice example, not '{name}'")
    return {"r": r}


def _pullback_check(n, which, seed, samples, tolerance) -> dict:
    """The largest deviation, over random sample points, of a flat map's
    pullback of the Minkowski metric from the conformal multiple of the
    Cahen-Wallach metric it should equal."""
    if which not in ("minkowski", "imaginary"):
        raise InputError(f"unknown map '{which}'; use 'minkowski' or 'imaginary'")
    real = which == "minkowski"
    prof = core.SymmetricProfile(np.eye(n) if real else -np.eye(n))
    rng = np.random.default_rng(seed)
    points = [core.Point(rng.uniform(-1, 1) * (1.0 if real else 0.45 * np.pi),
                         rng.normal(size=n), rng.normal()) for _ in range(samples)]
    g0 = flat.minkowski_metric(n).components
    worst = flat.conformal_defect(
        flat.minkowski_map(n) if real else flat.imaginary_local_map(n),
        lambda q: g0, lambda p: curvature.metric_at(prof, p).components,
        (lambda p: np.exp(2 * p.t)) if real else (lambda p: 1.0 / np.cos(p.t) ** 2), points)
    return {"map": which, "n": n, "samples": samples, "max_residual": worst,
            "pass": worst <= tolerance}


COMMANDS = {
    "classify": Subcommand(
        load=lambda data: [serialize.load_profile(data)],
        call=lambda prof: core.classify(prof),
        dump=lambda cls: {"type": cls.type, "invertible": cls.invertible,
                          "conformally_flat": cls.conformally_flat,
                          "lambda_max_sq": cls.lambda_max_sq}),
    "curvature": Subcommand(
        load=lambda data: [serialize.load_profile(data)],
        call=lambda prof: {
            "riemann": curvature.riemann(prof),
            "ricci": serialize.dump_bilinear(curvature.ricci(prof)),
            "scalar": curvature.scalar(prof),
            "schouten": serialize.dump_bilinear(curvature.schouten(prof)),
            "weyl": curvature.weyl(prof),
            "cotton_max_abs": float(np.max(np.abs(curvature.cotton(prof)))),
            "frame": "t, x_1..x_n, v"}),
    "compose": Subcommand(
        load=_homotheties("phi", "psi"),
        call=lambda phi, psi: grp.compose(phi, psi),
        dump=lambda phi: serialize.dump_homothety(phi)),
    "apply": Subcommand(
        load=_with_profile(lambda prof, data: [
            serialize.load_homothety(prof, data.get("phi", {})),
            serialize.load_point(prof.n, data.get("point"))]),
        call=lambda phi, p: grp.apply(phi, p),
        dump=lambda p: serialize.dump_point(p)),
    "fixed-point": Subcommand(
        load=_homotheties("phi"),
        call=lambda phi: dynamics.fixed_point(phi),
        dump=lambda rep: {"exists": rep.exists, "point": _point(rep.point),
                          "reason": rep.reason, "residual": rep.residual}),
    "essential": Subcommand(
        load=_homotheties("phi"),
        call=lambda phi: {"fixed_point": _point(dynamics.fixed_point(phi).point),
                          "essential": dynamics.is_essential(phi)}),
    "normal-form": Subcommand(
        load=_homotheties("phi"),
        call=lambda phi: dynamics.normal_form(phi),
        dump=lambda res: {"conjugator": serialize.dump_homothety(res.conjugator),
                          "normal": serialize.dump_homothety(res.normal),
                          "residual": res.residual}),
    "orbit": Subcommand(
        load=_with_profile(lambda prof, data: [
            serialize.load_homothety(prof, data.get("gamma", {})),
            serialize.load_homothety(prof, data.get("phi", {})),
            serialize.load_count(data, "K", 60)]),
        call=lambda gamma, phi, K: dynamics.orbit_obstruction_sequence(gamma, phi, K=K),
        dump=lambda rep: {"sequence": [serialize.dump_point(p) for p in rep.points],
                          "limit": serialize.dump_point(rep.limit),
                          "converged": rep.converged, "rate": rep.rate}),
    "pullback-check": Subcommand(
        load=lambda data: [serialize.load_count(data, "n", 2),
                           data.get("map", "minkowski")],
        call=_pullback_check,
        flags=("seed", "samples", "tolerance"),
        verdict="pass"),
    "verify-example": Subcommand(
        load=lambda name: [name],
        call=lambda name, r: quotients.verify_example(name, **_root(name, r)),
        dump=lambda rep: {"example": rep.example, "passed": rep.passed,
                          "checks": [{"name": c.name, "pass": c.passed,
                                      "residual": c.residual} for c in rep.checks],
                          "commentary": rep.commentary},
        flags=("r",),
        names=tuple(sorted(quotients.EXAMPLES)),
        verdict="passed"),
    "pd-report": Subcommand(
        load=_with_profile(lambda prof, data: [
            [serialize.load_homothety(prof, g) for g in _generators(data)],
            serialize.load_count(data, "max_length", 2)]),
        call=lambda gens, max_length: dynamics.pd_necessary_report(
            gens, max_length=max_length),
        dump=lambda rep: {
            "space_type": rep.space_type, "lambda_max_sq": rep.lambda_max_sq,
            "words_checked": rep.words_checked, "clean": rep.clean,
            "obstructions": [{"word": list(o.word), "kind": o.kind, "detail": o.detail}
                             for o in rep.obstructions]}),
}


def _at_least(low: int):
    """argparse type: an integer >= low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got '{text}'") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value
    return parse


def _tolerance(text: str) -> float:
    """argparse type: NAME=VALUE with a known NAME and a positive VALUE."""
    name, sep, value = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError("expected NAME=VALUE")
    if name != "pullback":
        raise argparse.ArgumentTypeError(f"unknown tolerance '{name}'; use 'pullback'")
    try:
        v = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad tolerance value: {value}") from None
    if not v > 0:
        raise argparse.ArgumentTypeError("tolerances must be positive")
    return v


def _flags() -> dict:
    """The argparse settings of each flag.  A string default goes through
    the flag's type, so a malformed CW_LAB_SEED is rejected like --seed."""
    return {
        "output": dict(help="write JSON here instead of stdout"),
        "format": dict(choices=["json", "pretty"], default="json"),
        "seed": dict(type=_at_least(0), default=os.environ.get("CW_LAB_SEED") or "42",
                     help="seed of the random samples (default: CW_LAB_SEED or 42)"),
        "samples": dict(type=_at_least(1), default=50, help="number of random samples"),
        "tolerance": dict(type=_tolerance, default=1e-9, metavar="pullback=VALUE",
                          help="largest residual that passes"),
        "r": dict(type=int, help="root parameter of the real-lattice example"),
    }


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are input errors."""

    def error(self, message):
        raise InputError(message)


def build_parser() -> argparse.ArgumentParser:
    flags = _flags()
    parser = _Parser(prog="cwgeom",
                     description="Numerics for Cahen-Wallach Lorentzian symmetric spaces")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, cmd in COMMANDS.items():
        p = sub.add_parser(name)
        if cmd.names:
            p.add_argument("operand", metavar="name", choices=cmd.names)
        else:
            p.add_argument("operand", metavar="input",
                           help="input JSON file, or - for stdin")
        for flag in ("output", "format", *cmd.flags):
            p.add_argument(f"--{flag}", **flags[flag])
    return parser


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


# stands in for a 4-tensor of the payload until its text is spliced in;
# json.dumps writes the NUL as \u0000, which no payload string contains
_TENSOR_MARK = re.compile(r'"\\u0000(\w+)"')


def _emit(args, payload) -> None:
    """Write the payload as JSON.  A 4-tensor at its top level is written
    by serialize.dump_tensor4 into the text json.dumps gives the rest."""
    indent = 2 if args.format == "pretty" else None
    tensors = {}
    if isinstance(payload, dict):
        tensors = {key: serialize.dump_tensor4(value, indent, level=1)
                   for key, value in payload.items()
                   if isinstance(value, curvature.CurvatureTensor4)}
        payload = {key: "\0" + key if key in tensors else value
                   for key, value in payload.items()}
    text = json.dumps(payload, indent=indent, sort_keys=True)
    if tensors:
        text = _TENSOR_MARK.sub(lambda mark: tensors[mark.group(1)], text)
    if not args.output:
        print(text)
        return
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise InputError(f"cannot write output file: {exc}") from exc


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cmd = COMMANDS[args.command]
        operand = args.operand if cmd.names else _read_payload(args.operand)
        # an overflow, or the inf - inf or 0 * inf it leads to, surfaces as
        # a non-finite point, group element or form (exit 3), so numpy's
        # warning would only put a second, non-JSON line on stderr
        with np.errstate(over="ignore", invalid="ignore"):
            result = cmd.call(*cmd.load(operand),
                              **{flag: getattr(args, flag) for flag in cmd.flags})
            payload = cmd.dump(result)
        _emit(args, payload)
        return EXIT_CHECK_FAILED if cmd.verdict and not payload[cmd.verdict] else EXIT_OK
    except CWError as exc:
        print(json.dumps({"error": {"kind": exc.kind, "detail": str(exc)}}),
              file=sys.stderr)
        return (EXIT_INPUT if isinstance(exc, (InputError, MalformedProfileError))
                else EXIT_PRECONDITION)


if __name__ == "__main__":
    sys.exit(main())
