"""Command-line front end.

Every library capability is exposed as a batch subcommand with JSON input
and output:

    cwgeom SUBCOMMAND INPUT [flags]    (INPUT is a JSON file, or - for stdin)
    cwgeom verify-example NAME [flags]

Flags follow the subcommand, and each subcommand accepts only the flags it
reads: every subcommand takes --output FILE and --format json|pretty;
pullback-check also takes --seed (default 42), --samples and
--tolerance pullback=VALUE (finite, > 0, default core.PULLBACK_TOL);
verify-example takes --r, for the real-lattice example only.  Bounds:
every profile, and the n of a pullback-check, has n <= 1024, and a
curvature profile n <= 64; a pullback-check has 1 <= samples <= 10000
with samples * (n+2)^2 <= 50 * 1026^2; an orbit has K <= 10000 and
K * (n+2)^2 <= 3e8 (the largest requests took 0.6 s and 80 MB at n = 64,
K = 10000, 1.2 s and 116 MB at n = 256, K = 4506, and 1.2 s and 139 MB
at n = 1024, K = 284); a pd-report on an n x n profile with g generators
and max_length L has at most 100000 reduced words, sum over k <= L of
2g(2g-1)^(k-1), and words * (n+2)^2 <= 2e7 (the MAX_ constants below).

Exit codes: 0 success (or all checks passed), 1 a verification report
contains a failed check, 2 malformed input or usage, 3 a precondition of
the requested operation does not hold (for instance a resonant
conjugation) or a computed value overflows.  Errors are reported on
stderr as {"error": {"kind": ..., "detail": ...}}.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import partial
from typing import Callable, NamedTuple, Optional

import numpy as np

from . import core, curvature, dynamics, flat, quotients, serialize
from . import group as grp
from .errors import CWError, InputError, MalformedProfileError

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_INPUT = 2
EXIT_PRECONDITION = 3

# the largest n of a profile, and of a pullback-check: classify took 114 MB
# (ru_maxrss) on a 1024 x 1024 profile, mostly to load its JSON
MAX_PROFILE_N = 1024
_profile = partial(serialize.load_profile, high=MAX_PROFILE_N)  # every profile the CLI loads
# the largest n of a curvature profile: the reply holds two dense (n+2)^4
# tensors at about 11 B per index, 210 MB written in 0.6 s at n = 64 (37 MB
# ru_maxrss), which would be about 12 TB at n = 1024
MAX_CURVATURE_N = 64
# pullback-check bounds: samples are drawn one by one in a Python loop, and
# the default 50 at n = 1024 hold (50, n+2, n+2) arrays of 420 MB each,
# which peaked at 1.69 GB (ru_maxrss)
MAX_PULLBACK_SAMPLES = 10_000
MAX_PULLBACK_ENTRIES = 50 * (MAX_PROFILE_N + 2) ** 2  # samples * (n+2)^2
# the longest orbit: about 0.2 s and 37 MB (ru_maxrss) at n = 1
MAX_ORBIT_K = 10_000
# the most K * (n+2)^2 of an orbit, the work of its K steps, each a (2, n)
# block of rows times an n x n matrix.  The largest admitted requests, in
# a fresh process (cli.main time, best of 3, and ru_maxrss; one BLAS
# thread, imaginary S, c_gamma = 1, s_gamma = 0 or 0.5): 0.62 s and 80 MB
# at n = 64, K = 10000; 1.23 s and 116 MB at n = 256, K = 4506; 1.19 s and
# 139 MB at n = 1024, K = 284, where K = 18 took 0.64 s and 125 MB.
# Writing the (K, n+2) sequence as JSON takes most of the time past the
# loading of the profile.
MAX_ORBIT_ENTRIES = 300_000_000
# the most reduced words of a pd-report sweep: at n = 2 and 2 generators,
# L = 9 (39364 words) took about 0.3 s and 35 MB (ru_maxrss), 158 generators at
# L = 2 (99856 words) 0.4 s and 38 MB
MAX_PD_WORDS = 100_000
# the most words * (n+2)^2 of a pd-report sweep, which holds about one
# level of words with an n x n matrix each, its 2g letters and one block:
# with 2 generators, 23 MB above the loaded payload at n = 32, L = 8
# (0.5 s), 32 MB at n = 64, L = 7 (0.7 s) and 89 MB at n = 1024, L = 2
# (2 s), of which the letters take 32 MB
MAX_PD_ENTRIES = 20_000_000


class Subcommand(NamedTuple):
    """One subcommand: `load` turns its operand into the positional
    arguments of `call`, `call` runs the library, and `dump` turns the
    result into the payload that serialize.dump_json writes.  The operand
    is the input JSON object, or one of `names` when the subcommand takes
    a name instead.  `flags` are the extra flags `call` takes as keyword
    arguments; a false `verdict` field of the payload makes the exit code 1.

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
    return lambda data: load(_profile(data.get("profile", {})), data)


def _homotheties(*keys):
    """Loader of {"profile": ..., key: homothety, ...}, one argument per key."""
    return _with_profile(lambda prof, data: [
        serialize.load_homothety(prof, data.get(key, {})) for key in keys])


def _generators(data) -> list:
    gens = data.get("generators", [])
    if not isinstance(gens, list) or not gens:
        raise InputError("'generators' must be a non-empty list of homotheties")
    return gens


def _max_length(data, n: int) -> int:
    """The max_length L of a pd-report payload on an n x n profile, refused
    when its sweep has more than MAX_PD_WORDS reduced words, 2g(2g-1)^(k-1)
    of each length k <= L with g generators, or MAX_PD_ENTRIES words * (n+2)^2."""
    max_length = serialize.load_count(data, "max_length", 2)
    letters = 2 * len(_generators(data))
    words, level = 0, letters
    for _ in range(max_length):
        words += level
        if words > MAX_PD_WORDS:
            raise InputError(f"'max_length' = {max_length} asks for more than {MAX_PD_WORDS} "
                             f"words of {letters // 2} generator(s)")
        if words * (n + 2) ** 2 > MAX_PD_ENTRIES:
            raise InputError(f"'max_length' = {max_length} asks for more than "
                             f"{MAX_PD_ENTRIES} words * (n+2)^2 at n = {n}")
        level *= letters - 1
    return max_length


def _orbit_length(data, n: int) -> int:
    """The K of an orbit payload on an n x n profile, refused past
    MAX_ORBIT_K or past MAX_ORBIT_ENTRIES K * (n+2)^2."""
    K = serialize.load_count(data, "K", 60, high=MAX_ORBIT_K)
    if K * (n + 2) ** 2 > MAX_ORBIT_ENTRIES:
        raise InputError(f"'K' = {K} asks for more than {MAX_ORBIT_ENTRIES} "
                         f"K * (n+2)^2 at n = {n}")
    return K


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
    if samples > MAX_PULLBACK_SAMPLES or samples * (n + 2) ** 2 > MAX_PULLBACK_ENTRIES:
        raise InputError(f"{samples} samples at n = {n} exceed {MAX_PULLBACK_SAMPLES} "
                         f"samples or {MAX_PULLBACK_ENTRIES} samples * (n+2)^2")
    real = which == "minkowski"
    prof = core.SymmetricProfile(np.eye(n) if real else -np.eye(n))
    rng = np.random.default_rng(seed)
    # t is uniform and x, v normal: one draw loop keeps the seeded order
    points = np.array([[rng.uniform(-1, 1) * (1.0 if real else 0.45 * np.pi),
                        *rng.normal(size=n), rng.normal()] for _ in range(samples)])
    g0 = flat.minkowski_metric(n)
    worst = flat.conformal_defect(
        flat.minkowski_map(n) if real else flat.imaginary_local_map(n),
        lambda a: g0, partial(curvature.metric_at, prof),
        (lambda a: np.exp(2 * a[..., 0])) if real else (lambda a: 1.0 / np.cos(a[..., 0]) ** 2),
        points)
    return {"map": which, "n": n, "samples": samples, "max_residual": worst,
            "pass": bool(core.within(worst, tolerance))}


COMMANDS = {
    "classify": Subcommand(
        load=lambda data: [_profile(data)],
        call=lambda prof: core.classify(prof),
        dump=lambda cls: {"type": cls.type, "invertible": cls.invertible,
                          "conformally_flat": cls.conformally_flat,
                          "lambda_max_sq": cls.lambda_max_sq}),
    "curvature": Subcommand(
        load=lambda data: [serialize.load_profile(data, high=MAX_CURVATURE_N)],
        call=lambda prof: {
            "riemann": curvature.riemann(prof),
            "ricci": curvature.ricci(prof),
            "scalar": curvature.scalar(prof),
            "schouten": curvature.schouten(prof),
            "weyl": curvature.weyl(prof),
            "cotton_max_abs": float(np.max(np.abs(curvature.cotton(prof)))),
            "frame": "t, x_1..x_n, v"}),
    "compose": Subcommand(
        load=_homotheties("phi", "psi"),
        call=lambda phi, psi: grp.compose(phi, psi)),
    "apply": Subcommand(
        load=_with_profile(lambda prof, data: [
            serialize.load_homothety(prof, data.get("phi", {})),
            serialize.load_reals(data.get("point"), "point", (prof.n + 2,))]),
        call=lambda phi, p: grp.apply(phi, p)),
    "fixed-point": Subcommand(
        load=_homotheties("phi"),
        call=lambda phi: dynamics.fixed_point(phi),
        dump=lambda rep: {"exists": rep.exists, "point": rep.point,
                          "reason": rep.reason, "residual": rep.residual}),
    "essential": Subcommand(
        load=_homotheties("phi"),
        call=lambda phi: dynamics.essential_fixed_point(phi),
        dump=lambda rep: {"fixed_point": rep.point, "essential": rep.exists}),
    "normal-form": Subcommand(
        load=_homotheties("phi"),
        call=lambda phi: dynamics.normal_form(phi),
        dump=lambda res: {"conjugator": res.conjugator, "normal": res.normal,
                          "residual": res.residual}),
    "orbit": Subcommand(
        load=_with_profile(lambda prof, data: [
            serialize.load_homothety(prof, data.get("gamma", {})),
            serialize.load_homothety(prof, data.get("phi", {})),
            _orbit_length(data, prof.n)]),
        call=lambda gamma, phi, K: dynamics.orbit_obstruction_sequence(gamma, phi, K=K),
        dump=lambda rep: {"sequence": rep.sequence, "limit": rep.limit,
                          "converged": rep.converged, "rate": rep.rate}),
    "pullback-check": Subcommand(
        load=lambda data: [serialize.load_count(data, "n", 2, high=MAX_PROFILE_N),
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
            _max_length(data, prof.n)]),
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
    """argparse type: NAME=VALUE with a known NAME and a finite positive
    VALUE (an infinite one would pass any residual)."""
    name, sep, value = text.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError("expected NAME=VALUE")
    if name != "pullback":
        raise argparse.ArgumentTypeError(f"unknown tolerance '{name}'; use 'pullback'")
    try:
        v = float(value)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad tolerance value: {value}") from None
    if not (v > 0 and np.isfinite(v)):
        raise argparse.ArgumentTypeError("tolerances must be finite and positive")
    return v


def _flags() -> dict:
    """The argparse settings of each flag."""
    return {
        "output": dict(help="write JSON here instead of stdout"),
        "format": dict(choices=["json", "pretty"], default="json"),
        "seed": dict(type=_at_least(0), default=42, help="seed of the random samples"),
        "samples": dict(type=_at_least(1), default=50, help="number of random samples"),
        "tolerance": dict(type=_tolerance, default=core.PULLBACK_TOL, metavar="pullback=VALUE",
                          help="largest residual that passes"),
        "r": dict(type=_at_least(3), help="root parameter of the real-lattice example"),
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
        except (OSError, UnicodeDecodeError) as exc:
            raise InputError(f"cannot read input file: {exc}") from exc
    if not text.strip():
        raise InputError("empty input")
    data = serialize.parse_json(text)
    if not isinstance(data, dict):
        raise InputError("input must be a JSON object")
    return data


def _emit(args, payload) -> None:
    """Write the payload as JSON to stdout or to --output."""
    indent = 2 if args.format == "pretty" else None
    if not args.output:
        return serialize.dump_json(payload, sys.stdout, indent)
    try:
        with open(args.output, "w", encoding="utf-8") as fh:
            serialize.dump_json(payload, fh, indent)
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
        sys.stderr.write(json.dumps({"error": {"kind": exc.kind, "detail": str(exc)}}) + "\n")
        return (EXIT_INPUT if isinstance(exc, (InputError, MalformedProfileError))
                else EXIT_PRECONDITION)


if __name__ == "__main__":
    sys.exit(main())
