"""JSON schemas shared by the library and the CLI.

Schemas:
    profile     {"n": int >= 1, "S": [[real]]}
    beta        {"beta0": [real], "beta1": [real]}
    homothety   {"b": real, "beta0": [real], "beta1": [real],
                 "c": real, "eps": +-1, "A": [[real]], "s": real}
    point       [t, x_1, ..., x_n, v]
"""

from __future__ import annotations

import json
import math
from typing import Any, Optional

import numpy as np

from .core import BetaSolution, Point, SymmetricProfile
from .curvature import CurvatureTensor4, SymBilinear
from .errors import CWError, InputError
from .group import Homothety


# the largest |s| for which the scale factors e^{+-2s} of a homothety and
# its inverse are finite floats
MAX_LOG_SCALE = 0.5 * float(np.log(np.finfo(float).max))


def _require(cond: bool, message: str) -> None:
    if not cond:
        raise InputError(message)


def _real_array(value: Any, what: str) -> np.ndarray:
    try:
        a = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"{what} must be a numeric array: {exc}") from exc
    _require(bool(np.all(np.isfinite(a))), f"{what} has non-finite entries")
    return a


def load_real(data: dict, key: str, default: float) -> float:
    """The finite real field `key` of a JSON object."""
    try:
        value = float(data.get(key, default))
    except (TypeError, ValueError) as exc:
        raise InputError(f"'{key}' must be a real number: {exc}") from exc
    _require(bool(np.isfinite(value)), f"'{key}' must be finite")
    return value


def load_count(data: dict, key: str, default: int) -> int:
    """The positive integer field `key` of a JSON object."""
    value = data.get(key, default)
    _require(isinstance(value, int) and not isinstance(value, bool) and value >= 1,
             f"'{key}' must be a positive integer, got {value!r}")
    return value


def load_profile(data: Any) -> SymmetricProfile:
    _require(isinstance(data, dict), "profile must be a JSON object")
    _require("S" in data, "profile is missing the field 'S'")
    try:
        S = np.asarray(data["S"], dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"profile field 'S' is not a numeric matrix: {exc}") from exc
    if "n" in data:
        n = load_count(data, "n", 1)
        _require(S.shape == (n, n), f"'S' shape {S.shape} does not match n = {n}")
    return SymmetricProfile(S, tolerance=load_real(data, "tolerance", 1e-9))


def load_beta(profile: SymmetricProfile, data: Any) -> BetaSolution:
    _require(isinstance(data, dict), "beta must be a JSON object")
    zero = np.zeros(profile.n)
    return BetaSolution(profile, _real_array(data.get("beta0", zero), "'beta0'"),
                        _real_array(data.get("beta1", zero), "'beta1'"))


def load_homothety(profile: SymmetricProfile, data: Any) -> Homothety:
    _require(isinstance(data, dict), "homothety must be a JSON object")
    eps = load_real(data, "eps", 1.0)
    _require(eps in (1.0, -1.0), "'eps' must be +1 or -1")
    s = load_real(data, "s", 0.0)
    _require(abs(s) <= MAX_LOG_SCALE,
             f"'s' = {s} overflows the scale factor e^(2s); |s| must be at most "
             f"{MAX_LOG_SCALE:.2f}")
    beta = load_beta(profile, data)
    A = data.get("A")
    try:
        return Homothety(profile,
                         b=load_real(data, "b", 0.0),
                         beta=beta,
                         c=load_real(data, "c", 0.0),
                         eps=int(eps),
                         A=None if A is None else _real_array(A, "'A'"),
                         s=s)
    except CWError:
        raise
    except (TypeError, ValueError) as exc:
        raise InputError(f"malformed homothety data: {exc}") from exc


def dump_homothety(phi: Homothety) -> dict:
    return {"b": phi.b, "beta0": phi.beta.beta0.tolist(),
            "beta1": phi.beta.beta1.tolist(), "c": phi.c, "eps": phi.eps,
            "A": phi.A.tolist(), "s": phi.s}


def load_point(n: int, data: Any) -> Point:
    a = _real_array(data, "point")
    _require(a.shape == (n + 2,), f"point must have {n + 2} coordinates")
    return Point.from_array(a)


def dump_point(p: Point) -> list:
    return p.as_array().tolist()


def dump_bilinear(T: SymBilinear) -> list:
    return T.components.tolist()


def _json_float(x: float) -> str:
    """A float as json.dumps writes it."""
    if x != x:
        return "NaN"
    if x == math.inf:
        return "Infinity"
    if x == -math.inf:
        return "-Infinity"
    return float.__repr__(x)


def _json_list(items: list, indent: Optional[int], level: int) -> str:
    """A JSON list of already written items, as json.dumps lays out a list
    nested `level` deep."""
    if indent is None:
        return "[" + ", ".join(items) + "]"
    pad = "\n" + " " * (indent * (level + 1))
    return "[" + pad + ("," + pad).join(items) + "\n" + " " * (indent * level) + "]"


def dump_tensor4(T: CurvatureTensor4, indent: Optional[int] = None,
                 level: int = 0) -> str:
    """The JSON text of a block tensor's dense components, byte for byte as
    json.dumps(T.components.tolist(), indent=indent) writes it `level` deep,
    written from the block M without building the dense array.

    Only the rows [i,0,j,:], [0,i,0,:], [i,0,0,:] and [0,i,j,:] hold
    nonzeros; every other row, and every [x,y,:,:] block of such rows,
    is one precomputed all-zero string."""
    if T.block is None:
        raise ValueError("dump_tensor4 writes block tensors only")
    n, sign = T.n, T.sign
    m = n + 2
    zero = _json_float(sign * 0.0)
    # the entries of T.components: sign * (M_ij + 0.0) at [i,0,j,0] and
    # [0,i,0,j], sign * (0.0 - M_ij) at [i,0,0,j] and [0,i,j,0]
    plus = [[_json_float(x) for x in row] for row in (sign * (T.block + 0.0)).tolist()]
    minus = [[_json_float(x) for x in row] for row in (sign * (0.0 - T.block)).tolist()]

    def row(entries):
        return _json_list(entries, indent, level + 3)

    def block(rows):
        return _json_list(rows, indent, level + 2)

    zero_row = row([zero] * m)
    zero_block = block([zero_row] * m)

    def nonzero_block(middle, firsts):
        """[x,y,:,:] with row 0 (0, middle, 0) and row j (firsts[j], 0, ..., 0)."""
        return block([row([zero] + middle + [zero])]
                     + [row([v] + [zero] * (m - 1)) for v in firsts] + [zero_row])

    # [0,i,0,:] = (0, sign M_i., 0) and [0,i,j,0] = -sign M_ij
    t_slice = [zero_block] + [nonzero_block(plus[i], minus[i]) for i in range(n)] + [zero_block]
    # [i,0,0,:] = (0, -sign M_i., 0) and [i,0,j,0] = sign M_ij
    x_slices = [[nonzero_block(minus[i], plus[i])] + [zero_block] * (m - 1) for i in range(n)]
    slices = [t_slice, *x_slices, [zero_block] * m]
    return _json_list([_json_list(s, indent, level + 1) for s in slices], indent, level)


def parse_json(text: str) -> Any:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"invalid JSON: {exc}") from exc
