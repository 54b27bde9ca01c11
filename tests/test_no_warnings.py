"""The library's no-warning contract: on finite input, every public
operation returns or raises a CWError, and lets no numpy RuntimeWarning
through (the suite turns each such warning into a failure), however far
its parameters sit from unit scale."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cwgeom.core import BetaSolution, SymmetricProfile, beta_eval
from cwgeom.dynamics import (fixed_point, normal_form, orbit_obstruction_sequence,
                             pd_necessary_report)
from cwgeom.errors import CWError
from cwgeom.group import (Homothety, apply, compose, differential, homothety_factor_check,
                          inverse, power)

from conftest import haar_orthogonal, random_centralising_orthogonal
from test_group_law import KINDS

BIG = st.floats(-1e300, 1e300)
DATA = st.lists(BIG, min_size=3, max_size=3)
ELEMENT = st.tuples(BIG, DATA, DATA, BIG, st.sampled_from([1, -1]), st.floats(-300.0, 300.0))


def _profile(kind, n, mags, rotated, rng):
    """S = O diag(w) O^T with eigenvalue signs of the given type, |w| the
    drawn magnitudes, O a Haar frame or the identity."""
    signs = {"real": [1, 1, 1], "imaginary": [-1, -1, -1], "mixed": [1, -1, -1],
             "degenerate": [0, 1, -1]}[kind][:n]
    O = haar_orthogonal(rng, n) if rotated else np.eye(n)
    return SymmetricProfile(O @ np.diag(np.multiply(signs, mags[:n])) @ O.T)


def _calls(prof, rng, first, second, point):
    """The public operations on two elements over prof built from the
    drawn (b, beta0, beta1, c, eps, s), one point and its time."""
    A = random_centralising_orthogonal(prof, rng)
    phi, psi = (Homothety(prof, b=b, beta=BetaSolution(prof, b0[:prof.n], b1[:prof.n]), c=c,
                          eps=eps, A=A, s=s) for b, b0, b1, c, eps, s in (first, second))
    gamma = Homothety(prof, c=psi.c, A=A.T, s=psi.s)
    p = np.array(point[:prof.n + 2])
    return [lambda: compose(phi, psi), lambda: inverse(phi), lambda: power(phi, 5),
            lambda: power(phi, -5), lambda: apply(phi, p), lambda: differential(phi, p),
            lambda: beta_eval(phi.beta, p[0]), lambda: fixed_point(phi),
            lambda: normal_form(phi), lambda: orbit_obstruction_sequence(gamma, phi, K=5),
            lambda: pd_necessary_report([phi, psi], 2),
            lambda: homothety_factor_check(phi, p)]


@settings(max_examples=150, deadline=None)
@given(kind=st.sampled_from(KINDS), n=st.integers(1, 3),
       mags=st.lists(st.floats(1e-300, 1e300), min_size=3, max_size=3), rotated=st.booleans(),
       seed=st.integers(0, 2**32 - 1), first=ELEMENT, second=ELEMENT,
       point=st.lists(st.floats(-1e200, 1e200), min_size=5, max_size=5))
def test_every_operation_returns_or_raises_a_library_error(kind, n, mags, rotated, seed, first,
                                                          second, point):
    rng = np.random.default_rng(seed)
    try:
        calls = _calls(_profile(kind, max(n, 2) if kind == "mixed" else n, mags, rotated, rng),
                       rng, first, second, point)
    except CWError:
        return
    for call in calls:
        try:
            call()
        except CWError:
            pass
