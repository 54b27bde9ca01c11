"""pd-sweep: pd_necessary_report in process over seeded generator sets.

Small-n group arithmetic bound by Python overhead.  One cycle holds every
(profile type, generator count, max_length) pair once, so the word count
per cycle is fixed and only the values and the order depend on the seed.
"""

from __future__ import annotations

import inputs
from harness import Request

# (generators, max_length); n alternates between 2 and 4 across the table.
COMBOS = ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3))
TINY_COMBOS = ((2, 2),)

# Seconds one cycle takes at nominal machine speed at the time of writing;
# a run repeats the cycle ceil(--seconds / NOMINAL_CYCLE_S) times.
NOMINAL_CYCLE_S = 2.3


def words(gens, max_length):
    letters = 2 * gens
    return sum(letters * (letters - 1) ** (k - 1) for k in range(1, max_length + 1))


def pd_request(cw, rng, kind, n, gens, max_length, label="pd"):
    """One pd_necessary_report request with its quotient-law check."""
    prof = inputs.profile(rng, kind, n)
    raw = [inputs.element(rng, prof, strict=bool(rng.integers(0, 4)))
           for _ in range(gens)]
    P = inputs.build_profile(cw, prof)
    elems = [inputs.build_element(cw, P, g) for g in raw]
    expected = []

    def call():
        return cw.dynamics.pd_necessary_report(elems, max_length=max_length)

    def check(rep):
        if not expected:
            expected.append(inputs.quotient_law_report(raw, prof, max_length))
        seen, obstructions = expected[0]
        got = [(tuple(o.word), o.kind) for o in rep.obstructions]
        if rep.words_checked != seen:
            return f"words_checked {rep.words_checked} != {seen}"
        if got != obstructions:
            return f"{len(got)} obstructions, quotient law gives {len(obstructions)}"
        if rep.space_type != kind:
            return f"space type {rep.space_type} != {kind}"
        return None

    return Request(f"{label} {kind} n={n} g={gens} L={max_length}", call, check,
                   words=words(gens, max_length))


def build(cw, rng, size):
    combos = COMBOS if size == "full" else TINY_COMBOS
    cycle = []
    for i, kind in enumerate(inputs.PROFILE_TYPES):
        for j, (gens, max_length) in enumerate(combos):
            n = 2 if (i + j) % 2 == 0 else 4
            cycle.append(pd_request(cw, rng, kind, n, gens, max_length))
    order = rng.permutation(len(cycle))
    cycle = [cycle[k] for k in order]
    info = {"n": [2, 4], "generators": sorted({g for g, _ in combos}),
            "max_length": sorted({L for _, L in combos}),
            "profile_types": list(inputs.PROFILE_TYPES),
            "requests_per_cycle": len(cycle),
            "words_per_cycle": sum(r.words for r in cycle)}
    return cycle, info
