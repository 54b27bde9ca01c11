"""Seeded raw inputs shared by the workloads.

Everything here is plain numpy built from the workload's random
generator; the library sees only the numbers produced here.  A profile is
S = Q diag(w) Q^T with a seeded orthogonal Q and eigenvalues w whose signs
fix the profile type, so the benchmark knows the spectrum independently
of the library's eigendecomposition.
"""

from __future__ import annotations

import numpy as np

PROFILE_TYPES = ("real", "mixed", "imaginary", "degenerate")
PARAM_TOL = 1e-9  # the library's tolerance for a zero c or s


def eigenvalues(rng, kind, n):
    """Distinct eigenvalues, at least 0.3 apart, with the signs of `kind`."""
    mags = 0.5 + 0.3 * np.arange(n) + rng.uniform(0.0, 0.2, size=n)
    mags = rng.permutation(mags)
    if kind == "real":
        return mags
    if kind == "imaginary":
        return -mags
    if kind == "mixed":
        signs = np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        return mags * signs
    if kind == "degenerate":
        w = mags * np.where(np.arange(n) % 2 == 0, 1.0, -1.0)
        w[0] = 0.0
        return w
    raise ValueError(f"unknown profile type {kind!r}")


def profile(rng, kind, n):
    """Raw profile data: S, its eigenvalues w and eigenvectors Q."""
    w = eigenvalues(rng, kind, n)
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    S = Q @ np.diag(w) @ Q.T
    return {"S": 0.5 * (S + S.T), "w": w, "Q": Q, "kind": kind, "n": n}


def centraliser_matrix(rng, prof):
    """A seeded element of C_O(n)(S): sign flips on the (simple)
    eigenspaces of S."""
    signs = rng.choice([-1.0, 1.0], size=prof["n"])
    return prof["Q"] @ np.diag(signs) @ prof["Q"].T


def element(rng, prof, strict=True, eps=None, c=None):
    """Raw homothety parameters (b, beta0, beta1, c, eps, A, s)."""
    n = prof["n"]
    s = float(rng.uniform(0.1, 0.6) * rng.choice([-1, 1])) if strict else 0.0
    return {
        "b": float(rng.normal()),
        "beta0": 0.3 * rng.normal(size=n),
        "beta1": 0.3 * rng.normal(size=n),
        "c": float(rng.uniform(0.3, 1.2) * rng.choice([-1, 1])) if c is None else c,
        "eps": int(rng.choice([-1, 1])) if eps is None else eps,
        "A": centraliser_matrix(rng, prof),
        "s": s,
    }


def as_json(params):
    """The CLI's homothety schema for raw parameters."""
    return {k: (v.tolist() if isinstance(v, np.ndarray) else v)
            for k, v in params.items()}


def build_profile(cw, prof):
    return cw.core.SymmetricProfile(prof["S"])


def build_element(cw, P, params):
    return cw.group.Homothety(
        P, b=params["b"],
        beta=cw.core.BetaSolution(P, params["beta0"], params["beta1"]),
        c=params["c"], eps=params["eps"], A=params["A"], s=params["s"])


def quotient_law_report(gens, prof, max_length):
    """Independent oracle for pd_necessary_report.

    Runs the same left fold over the same words, but in the quotient
    E(1) x R, where (eps, c, s) compose as (e1 e2, c1 + e1 c2, s1 + s2).
    The space type and lambda_max^2 come from the generated spectrum.
    Returns (words checked, [(word, kind), ...]).
    """
    import itertools

    letters = []
    for i, g in enumerate(gens):
        letters.append((i + 1, (g["eps"], g["c"], g["s"])))
        letters.append((-(i + 1), (g["eps"], -g["eps"] * g["c"], -g["s"])))
    w = prof["w"]
    positive = w[w > 0]
    lam_sq = float(np.max(positive)) if positive.size else None
    seen = 0
    obstructions = []
    for length in range(1, max_length + 1):
        for combo in itertools.product(letters, repeat=length):
            word = tuple(idx for idx, _ in combo)
            if any(word[i] == -word[i + 1] for i in range(length - 1)):
                continue
            eps, c, s = 1, 0.0, 0.0
            for _, (e2, c2, s2) in combo:
                eps, c, s = eps * e2, c + eps * c2, s + s2
            seen += 1
            if abs(s) <= PARAM_TOL:
                continue
            if eps == -1 or abs(c) <= PARAM_TOL:
                obstructions.append((word, "fixed-point"))
            elif prof["kind"] == "imaginary":
                obstructions.append((word, "imaginary-strict"))
            elif lam_sq is not None and (s / c) ** 2 > lam_sq + 1e-12:
                obstructions.append((word, "inequality"))
    return seen, obstructions


def riemann_oracle(S):
    """Dense R = -S kn (dt)^2 in frame (t, x, v), built by index
    placement: R_{itjt} = R_{titj} = -S_ij, R_{ittj} = R_{tijt} = S_ij."""
    n = S.shape[0]
    R = np.zeros((n + 2,) * 4)
    x = slice(1, n + 1)
    R[x, 0, x, 0] = -S
    R[0, x, 0, x] = -S
    R[x, 0, 0, x] = S
    R[0, x, x, 0] = S
    return R


def element_distance_to_identity(phi):
    """max |parameter - identity parameter|, computed without the library."""
    n = phi.A.shape[0]
    if phi.eps != 1:
        return np.inf
    return max(abs(phi.b), float(np.max(np.abs(phi.beta.beta0))),
               float(np.max(np.abs(phi.beta.beta1))), abs(phi.c),
               float(np.max(np.abs(phi.A - np.eye(n)))), abs(phi.s))


def parameter_scale(phi):
    """Largest parameter magnitude of a group element (at least 1)."""
    return max(1.0, abs(phi.b), float(np.max(np.abs(phi.beta.beta0))),
               float(np.max(np.abs(phi.beta.beta1))), abs(phi.c),
               float(np.max(np.abs(phi.A))), abs(phi.s))
