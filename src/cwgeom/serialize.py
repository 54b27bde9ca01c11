"""JSON schemas shared by the library and the CLI.

Schemas (a real is a JSON number, an integer or a float, never a string
or a boolean):
    profile     {"n": int >= 1, "S": [[real]], "tolerance": real > 0}
                ("n" and "tolerance" optional; the tolerance, default
                core.PROFILE_TOL, scales SymmetricProfile's symmetry,
                spectral grouping, zero-eigenvalue and centraliser checks)
    homothety   {"b": real, "beta0": [real], "beta1": [real],
                 "c": real, "eps": +-1, "A": [[real]], "s": real}
                (beta0 and beta1 of n entries, A n x n, for an n x n profile)
    point       [t, x_1, ..., x_n, v]   (reals)

`dump_json` is the one writer of JSON output and the one owner of each
library type's JSON form.
"""

from __future__ import annotations

import json
import sys
from itertools import chain
from typing import Any, Optional

import numpy as np

from .core import PROFILE_TOL, BetaSolution, SymmetricProfile
from .errors import InputError


# the largest |s| for which the scale factors e^{+-2s} of a homothety and
# its inverse are finite floats
MAX_LOG_SCALE = 0.5 * float(np.log(np.finfo(float).max))
# the size of every write of JSON output but the last (see dump_json)
OUTPUT_BLOCK = 1 << 16


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InputError(message)


def _is_number(value: Any) -> bool:
    """Whether a JSON value is a number: an int or a float, not a bool."""
    return type(value) is float or type(value) is int


def load_reals(value: Any, what: str, shape: Optional[tuple] = None) -> np.ndarray:
    """The finite float array of a JSON value, a number or nested lists of
    numbers, of the given shape when that is given: the one reader of JSON
    numbers."""
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise InputError(f"{what} must be a numeric array: {exc}") from exc
    # float() reads strings and bools too, so a regular array of a.ndim
    # levels has its leaves checked
    leaves = [value]
    for _ in range(a.ndim):
        leaves = chain.from_iterable(leaves)
    _require(all(map(_is_number, leaves)), f"{what} must hold JSON numbers only")
    _require(bool(np.all(np.isfinite(a))), f"{what} has non-finite entries")
    _require(shape is None or a.shape == shape, f"{what} must have shape {shape}, got {a.shape}")
    return a


def load_real(data: dict, key: str, default: float) -> float:
    """The finite real field `key` of a JSON object."""
    return float(load_reals(data.get(key, default), f"'{key}'", ()))


def load_count(data: dict, key: str, default: int, high: Optional[int] = None) -> int:
    """The positive integer field `key` of a JSON object, at most `high`
    when that is given."""
    value = data.get(key, default)
    _require(isinstance(value, int) and not isinstance(value, bool) and value >= 1,
             f"'{key}' must be a positive integer, got {value!r}")
    _require(high is None or value <= high, f"'{key}' = {value} exceeds its largest value {high}")
    return value


def load_profile(data: Any, high: int) -> SymmetricProfile:
    """The profile of a JSON object, at most `high` x `high`."""
    _require(isinstance(data, dict), "profile must be a JSON object")
    _require("S" in data, "profile is missing the field 'S'")
    S = load_reals(data["S"], "profile field 'S'")
    _require(S.size <= high * high,
             f"'S' of shape {S.shape} exceeds the largest profile, {high} x {high}")
    if "n" in data:
        n = load_count(data, "n", 1)
        _require(S.shape == (n, n), f"'S' shape {S.shape} does not match n = {n}")
    return SymmetricProfile(S, tolerance=load_real(data, "tolerance", PROFILE_TOL))


def load_homothety(profile: SymmetricProfile, data: Any):
    """The group.Homothety of a JSON object on `profile`."""
    from .group import Homothety

    _require(isinstance(data, dict), "homothety must be a JSON object")
    eps = load_real(data, "eps", 1.0)
    _require(eps in (1.0, -1.0), "'eps' must be +1 or -1")
    s = load_real(data, "s", 0.0)
    _require(abs(s) <= MAX_LOG_SCALE,
             f"'s' = {s} overflows the scale factor e^(2s); |s| must be at most "
             f"{MAX_LOG_SCALE:.2f}")
    n = profile.n
    beta = BetaSolution(profile, *(load_reals(data[key], f"'{key}'", (n,)) if key in data
                                   else np.zeros(n) for key in ("beta0", "beta1")))
    A = data.get("A")
    return Homothety(profile, b=load_real(data, "b", 0.0), beta=beta, c=load_real(data, "c", 0.0),
                     eps=int(eps), A=None if A is None else load_reals(A, "'A'", (n, n)), s=s)


def _marks(indent: Optional[int], level: int, brackets: str = "[]") -> tuple:
    """The opening, separator and closing text of a JSON list or object `level` deep."""
    if indent is None:
        return brackets[0], ", ", brackets[1]
    pad = "\n" + " " * (indent * (level + 1))
    return brackets[0] + pad, "," + pad, "\n" + " " * (indent * level) + brackets[1]


def _loaded(module: str, name: str):
    """The class `name` of the package module `module` when that module
    is loaded, else (), which no value is an instance of: a value of the
    class exists only once its module is loaded, so this tells it apart
    without importing the module."""
    mod = sys.modules.get(f"{__package__}.{module}")
    return () if mod is None else getattr(mod, name)


def _write_tensor4(T, write, indent: Optional[int], level: int) -> None:
    """Write a curvature tensor's dense components as json.dumps writes
    T.components.tolist() `level` deep, one (n+2)-slice at a time, from
    the block M without building the dense array.

    Only the rows [i,0,j,:], [0,i,0,:], [i,0,0,:] and [0,i,j,:] hold
    nonzeros; every other row, and every [x,y,:,:] block of such rows,
    is one precomputed all-zero string."""
    n, sign = T.n, T.sign
    m = n + 2
    zero = json.dumps(sign * 0.0)
    # the entries of T.components: sign * (M_ij + 0.0) at [i,0,j,0] and
    # [0,i,0,j], sign * (0.0 - M_ij) at [i,0,0,j] and [0,i,j,0]; a float
    # holds no ", ", so splitting json.dumps of a row gives its entries
    plus = [json.dumps(row)[1:-1].split(", ") for row in (sign * (T.block + 0.0)).tolist()]
    minus = [json.dumps(row)[1:-1].split(", ") for row in (sign * (0.0 - T.block)).tolist()]

    def lister(depth):
        """The writer of a JSON list of written items `depth` levels below T."""
        first, sep, last = _marks(indent, level + depth)
        return lambda items: first + sep.join(items) + last

    row, block, part = lister(3), lister(2), lister(1)
    zero_row = row([zero] * m)
    zero_block = block([zero_row] * m)

    def nonzero_block(middle, firsts):
        """[x,y,:,:] with row 0 (0, middle, 0) and row j (firsts[j], 0, ..., 0)."""
        return block([row([zero] + middle + [zero])]
                     + [row([v] + [zero] * (m - 1)) for v in firsts] + [zero_row])

    first, sep, last = _marks(indent, level)
    # [0,i,0,:] = (0, sign M_i., 0) and [0,i,j,0] = -sign M_ij
    write(first + part([zero_block] + [nonzero_block(plus[i], minus[i]) for i in range(n)]
                       + [zero_block]))
    # [i,0,0,:] = (0, -sign M_i., 0) and [i,0,j,0] = sign M_ij
    for i in range(n):
        write(sep + part([nonzero_block(minus[i], plus[i])] + [zero_block] * (m - 1)))
    write(sep + part([zero_block] * m) + last)


def _jsonable(value: Any) -> Any:
    """The JSON form of a library value; json.dumps's `default` hook."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, _loaded("group", "Homothety")):
        return {"b": value.b, "beta0": value.beta.beta0.tolist(),
                "beta1": value.beta.beta1.tolist(), "c": value.c, "eps": value.eps,
                "A": value.A.tolist(), "s": value.s}
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def dump_json(payload: Any, fh, indent: Optional[int] = None) -> None:
    """Write `payload` to `fh` byte for byte as
    json.dumps(payload, indent=indent, sort_keys=True) + "\n" would, with
    homotheties and arrays in their JSON form.  A CurvatureTensor4
    at the top level of a dict is written from its block, one (n+2)-slice
    at a time, so its dense text is never held whole.
    The ASCII text reaches `fh` in writes of OUTPUT_BLOCK characters and a
    shorter last one, so a reader that takes a pipe 32 KiB at a time (as
    subprocess.communicate does) sees the same reads on every run."""
    held = ""

    def write(text):
        nonlocal held
        held += text
        cut = len(held) - len(held) % OUTPUT_BLOCK
        for k in range(0, cut, OUTPUT_BLOCK):
            fh.write(held[k:k + OUTPUT_BLOCK])
        held = held[cut:]

    def dumps(value):
        return json.dumps(value, indent=indent, sort_keys=True, default=_jsonable)

    if not (isinstance(payload, dict) and payload):
        write(dumps(payload) + "\n")
    else:
        # a value's own line breaks move one level in; that is exact, as
        # no JSON string holds a raw newline
        pad = "\n" + " " * (indent or 0)
        first, sep, last = _marks(indent, 0, "{}")
        tensor = _loaded("curvature", "CurvatureTensor4")
        for k, key in enumerate(sorted(payload)):
            write((sep if k else first) + json.dumps(key) + ": ")
            if isinstance(payload[key], tensor):
                _write_tensor4(payload[key], write, indent, level=1)
            else:
                write(dumps(payload[key]).replace("\n", pad))
        write(last + "\n")
    fh.write(held)


def parse_json(text: str) -> Any:
    """The JSON value of a text; an input error for text that is not JSON,
    an integer literal past Python's digit limit, or nesting past the
    recursion limit."""
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
