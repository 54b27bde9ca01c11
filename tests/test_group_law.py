"""The spectral-coordinate group law: closed-form beta against the
per-block reference, the product and inverse against pointwise action,
and what each group operation costs in calls to the layer below."""

import math
import warnings
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cwgeom.group as grp
from cwgeom.core import (
    BetaSolution,
    SymmetricProfile,
    beta_eval,
    classify,
    require_phase,
)
from cwgeom.dynamics import orbit_obstruction_sequence
from cwgeom.errors import IncompatibleProfileError, OverflowingValueError, PreconditionError
from cwgeom.group import Homothety, apply, compose, differential, identity, inverse, power

from conftest import eigenspaces, random_centralising_orthogonal
from oracles import bit_equal, branch_loop_flow

KINDS = ("real", "imaginary", "mixed", "degenerate")


def block_loop_beta_eval(beta, t):
    """Reference: one closed form per spectral block, summed block by block."""
    p = beta.profile
    value = np.zeros(p.n)
    deriv = np.zeros(p.n)
    for ev, Q in eigenspaces(p):
        y0 = Q.T @ beta.beta0
        y1 = Q.T @ beta.beta1
        if ev > 0:
            lam = np.sqrt(ev)
            y = y0 * np.cosh(lam * t) + (y1 / lam) * np.sinh(lam * t)
            yd = y0 * lam * np.sinh(lam * t) + y1 * np.cosh(lam * t)
        elif ev < 0:
            mu = np.sqrt(-ev)
            y = y0 * np.cos(mu * t) + (y1 / mu) * np.sin(mu * t)
            yd = -y0 * mu * np.sin(mu * t) + y1 * np.cos(mu * t)
        else:
            y = y0 + y1 * t
            yd = y1
        value += Q @ y
        deriv += Q @ yd
    return value, deriv


def spectral_profile(kind, n, rng, repeat):
    """S = Q diag(w) Q^T with eigenvalue signs of the given type, |w| in
    [0.25, 2.25], and w[1] = w[0] (a repeated eigenvalue) if repeat."""
    if kind == "mixed":
        n = max(n, 2)
    mags = rng.uniform(0.25, 2.25, size=n)
    signs = {"real": np.ones(n), "imaginary": -np.ones(n),
             "mixed": np.where(np.arange(n) % 2 == 0, 1.0, -1.0),
             "degenerate": rng.choice([-1.0, 1.0], size=n)}[kind]
    w = signs * mags
    if kind == "degenerate":
        w[-1] = 0.0
    if repeat and n >= 2:
        w[1] = w[0]
    Q, _ = np.linalg.qr(rng.normal(size=(n, n)))
    return SymmetricProfile(Q @ np.diag(w) @ Q.T)


def element(prof, rng):
    return Homothety(prof, b=float(rng.uniform(-2, 2)),
                     beta=BetaSolution(prof, rng.uniform(-2, 2, prof.n),
                                       rng.uniform(-2, 2, prof.n)),
                     c=float(rng.uniform(-1.5, 1.5)), eps=int(rng.choice([-1, 1])),
                     A=random_centralising_orthogonal(prof, rng),
                     s=float(rng.uniform(-1, 1)))


def scale(prof, *elements, t=0.0):
    """Size of the parameters: the largest |parameter| (e^|s| for s), times
    the largest growth factor of beta over the times the law evaluates it
    at.  The v-part is quadratic in the parameters, so errors are judged
    against scale^2."""
    r = math.sqrt(float(np.max(np.abs(prof.eigenvalues))))
    reach = abs(t) + sum(abs(e.c) for e in elements)
    size = max([1.0] + [max(abs(e.b), float(np.max(np.abs(e.beta.beta0))),
                            float(np.max(np.abs(e.beta.beta1))), abs(e.c),
                            math.exp(abs(e.s))) for e in elements])
    return len(elements) * size * (1 + r) * (1 + reach) * math.cosh(r * reach)


profiles = st.builds(
    lambda kind, n, seed, repeat: spectral_profile(kind, n, np.random.default_rng(seed), repeat),
    st.sampled_from(KINDS), st.integers(1, 5), st.integers(0, 2**32 - 1), st.booleans())


class TestProfiles:
    @pytest.mark.parametrize("kind", KINDS)
    def test_generator_gives_each_type(self, kind):
        prof = spectral_profile(kind, 4, np.random.default_rng(0), True)
        assert classify(prof).type == kind
        dims = [basis.shape[1] for _, basis in eigenspaces(prof)]
        assert dims[0] == 2 or dims[-1] == 2


@settings(max_examples=200, deadline=None)
@given(prof=profiles, seed=st.integers(0, 2**32 - 1), t=st.floats(-3.0, 3.0))
def test_beta_eval_matches_block_loop(prof, seed, t):
    rng = np.random.default_rng(seed)
    beta = BetaSolution(prof, rng.uniform(-2, 2, prof.n), rng.uniform(-2, 2, prof.n))
    val, der = beta_eval(beta, t)
    ref_val, ref_der = block_loop_beta_eval(beta, t)
    r = math.sqrt(float(np.max(np.abs(prof.eigenvalues))))
    tol = 1e-14 * prof.n * (1 + r) * (1 + abs(t)) * math.cosh(r * t)
    assert np.max(np.abs(val - ref_val)) <= tol
    assert np.max(np.abs(der - ref_der)) <= tol


@settings(max_examples=200, deadline=None)
@given(prof=profiles, seed=st.integers(0, 2**32 - 1))
def test_compose_acts_as_pointwise_composition(prof, seed):
    rng = np.random.default_rng(seed)
    phi, psi = element(prof, rng), element(prof, rng)
    p = rng.uniform(-2, 2, prof.n + 2)
    err = np.max(np.abs(apply(compose(phi, psi), p) - apply(phi, apply(psi, p))))
    assert err <= 1e-14 * scale(prof, phi, psi, t=p[0]) ** 2


@settings(max_examples=200, deadline=None)
@given(prof=profiles, seed=st.integers(0, 2**32 - 1))
def test_inverse_undoes_the_element(prof, seed):
    rng = np.random.default_rng(seed)
    phi = element(prof, rng)
    p = rng.uniform(-2, 2, prof.n + 2)
    inv = inverse(phi)
    size = scale(prof, phi, phi, t=p[0]) ** 2
    assert np.max(np.abs(apply(inv, apply(phi, p)) - p)) <= 1e-14 * size
    for prod in (compose(phi, inv), compose(inv, phi)):
        assert grp.element_distance(prod, identity(prof)) <= 1e-14 * size


class TestOverflow:
    """A product or inverse whose central parameter overflows raises, as
    a point with a non-finite coordinate does."""

    prof = SymmetricProfile([[1.0]])

    def test_compose(self):
        with pytest.raises(OverflowingValueError):
            compose(Homothety(self.prof, s=354.0), Homothety(self.prof, b=100.0))

    def test_inverse(self):
        with pytest.raises(OverflowingValueError):
            inverse(Homothety(self.prof, b=100.0, s=-354.0))

    def test_differential(self):
        """e^{2s}, the v-v entry of the Jacobian, is past the float range
        at s = 400: an error, and no numpy warning on the way."""
        with warnings.catch_warnings(record=True) as seen:
            warnings.simplefilter("always")
            with pytest.raises(OverflowingValueError):
                differential(Homothety(self.prof, s=400.0), np.zeros(3))
        assert seen == []

    def test_rows_taken_or_stacked_are_not_checked_again(self, monkeypatch):
        """_stack and _take assemble rows of valid elements without the
        finiteness gate, which still judges each product and inverse of
        such rows."""
        rng = np.random.default_rng(3)
        P = spectral_profile("mixed", 3, rng, True)
        phis = [element(P, rng) for _ in range(3)]

        def refuse(*args):
            raise AssertionError("a valid row checked again")

        with monkeypatch.context() as m:
            m.setattr(grp, "_require_finite_params", refuse)
            batch = grp._stack(phis)
            rows = [grp._take(batch, 1), grp._take(batch, [2, 0])]
        assert all(map(np.array_equal, grp._params(rows[0]), grp._params(phis[1])))
        assert all(map(np.array_equal, grp._params(grp._take(rows[1], 1)), grp._params(phis[0])))
        big = grp._stack([Homothety(self.prof, s=354.0), Homothety(self.prof, b=100.0, s=-354.0)])
        with pytest.raises(OverflowingValueError):
            compose(grp._take(big, [0]), grp._take(big, [1]))
        with pytest.raises(OverflowingValueError):
            inverse(grp._take(big, 1))

    def test_stack_refuses_a_second_profile(self):
        """A batch has one profile: _stack refuses elements over another,
        as compose refuses to combine them, and takes equal profiles."""
        other = SymmetricProfile(2.0 * self.prof.S)
        with pytest.raises(IncompatibleProfileError):
            grp._stack([Homothety(self.prof, c=1.0), Homothety(other, s=0.5)])
        twin = SymmetricProfile(self.prof.S.copy())
        assert grp._stack([Homothety(self.prof), Homothety(twin, c=1.0)]).profile is self.prof

    def test_a_zero_factor_survives_an_overflowing_scale(self):
        """e^{800} is inf, and inf * 0 is NaN, but the exact term of a zero
        b, beta or v is that zero: a dilation fixes the origin."""
        P = self.prof
        prod = compose(Homothety(P, s=400.0), Homothety(P))
        assert (prod.b, prod.s) == (0.0, 400.0) and not prod.beta.beta0.any()
        inv = inverse(Homothety(P, s=-400.0))
        assert (inv.b, inv.s) == (0.0, 400.0) and not inv.beta.beta1.any()
        assert apply(Homothety(P, s=400.0), np.zeros(3)).tolist() == [0.0, 0.0, 0.0]

    def test_a_partly_zero_factor_still_raises(self):
        """Only a factor entry that is exactly 0 keeps its zero: a factor
        (1, 0), beta2(0) in compose, A beta(0) in inverse and A x in apply,
        overflows in each operation.  On S = -I, A may turn beta2(0) into
        A1 beta2(0) with no zero entry, which overflows all the same."""
        P = SymmetricProfile(-np.eye(2))
        turn = np.array([[0.6, -0.8], [0.8, 0.6]])
        partly = BetaSolution(P, [1.0, 0.0], [0.0, 0.0])
        for A in (np.eye(2), turn):
            with pytest.raises(OverflowingValueError):
                compose(Homothety(P, s=720.0, A=A), Homothety(P, beta=partly))
        with pytest.raises(OverflowingValueError):
            inverse(Homothety(P, s=-720.0, beta=partly))
        with pytest.raises(OverflowingValueError):
            apply(Homothety(P, s=720.0), [0.0, 1.0, 0.0, 0.0])

    def test_overflowing_rows_leave_the_other_rows_bit_identical(self):
        """In a batch, each row is what it is alone, bit for bit, in the
        sign of zeros too: e^{2s} overflows in compose and apply at s =
        400, e^{-2s} in inverse at s = -400 and e^{s} in compose and apply
        at s = 720, and the zeros of those rows stay zeros."""
        P = SymmetricProfile(np.diag([1.0, -2.0]))
        rng = np.random.default_rng(7)
        phis = [Homothety(P, s=400.0), Homothety(P, s=-400.0),
                Homothety(P, s=720.0, A=-np.eye(2)), element(P, rng), element(P, rng)]
        psis = [identity(P)] * 3 + [element(P, rng), element(P, rng)]
        products, inverses = compose(grp._stack(phis), grp._stack(psis)), inverse(grp._stack(phis))
        for got, alone in ((products, map(compose, phis, psis)), (inverses, map(inverse, phis))):
            for k, want in enumerate(alone):
                assert all(map(bit_equal, grp._params(grp._take(got, k)), grp._params(want))), k
        for got, k in ((products, 0), (products, 2), (inverses, 1)):
            row = grp._take(got, k)
            assert row.b == 0.0 and not row.beta.beta0.any() and not row.beta.beta1.any()
        # each row at its own point, the origin where e^{s} overflows
        points = rng.uniform(-1, 1, (5, 1, 4))
        points[[0, 2]] = 0.0
        images = apply(grp._take(grp._stack(phis), np.s_[:, None]), points)
        assert not images[[0, 2]].any()
        for k, phi in enumerate(phis):
            assert bit_equal(images[k], apply(phi, points[k])), k


def first_error(*calls):
    """The type and message of what the first raising call raises, or None."""
    for call in calls:
        try:
            call()
        except (PreconditionError, OverflowingValueError) as exc:
            return type(exc), str(exc)
    return None


class TestRowByRow:
    """A batched compose or inverse raises what the loop over its rows,
    in np.ndindex order, raises first.  On S = [[-1]] a row overflows
    where e^{708} b is inf, and loses its phase where a nonzero beta is
    read at t = 8e15; the batch alone would find every lost phase before
    any overflow."""

    prof = SymmetricProfile([[-1.0]])
    beta = BetaSolution(prof, [0.5], [0.2])
    ORDERS = ["overflow-then-phase", "phase-then-overflow", "both-in-one-row"]

    def rows(self, order):
        """(phi, psi) rows: a finite row, then the order's failing rows."""
        P = self.prof
        ok = (Homothety(P, s=0.3, beta=self.beta), Homothety(P, b=1.0, c=0.4))
        over = (Homothety(P, s=354.0), Homothety(P, b=100.0))
        phase = (Homothety(P, beta=self.beta), Homothety(P, c=8e15))
        both = (Homothety(P, s=354.0, beta=self.beta), Homothety(P, b=100.0, c=8e15))
        return [ok, *{"overflow-then-phase": [over, phase, ok],
                      "phase-then-overflow": [phase, over, ok],
                      "both-in-one-row": [ok, both, over]}[order]]

    @pytest.mark.parametrize("order", ORDERS)
    def test_equal_batches(self, order):
        phis, psis = zip(*self.rows(order))
        want = first_error(*(lambda a=a, b=b: compose(a, b) for a, b in zip(phis, psis)))
        assert want[0] is (OverflowingValueError if order == "overflow-then-phase"
                           else PreconditionError)
        assert first_error(lambda: compose(grp._stack(phis), grp._stack(psis))) == want

    @pytest.mark.parametrize("order", ORDERS)
    def test_a_single_element_against_a_batch(self, order):
        """One element broadcasts against every row, on either side."""
        P = self.prof
        phi = Homothety(P, s=354.0, beta=self.beta)
        psis = {"overflow-then-phase": [Homothety(P, c=0.1), Homothety(P, b=100.0),
                                        Homothety(P, c=8e15)],
                "phase-then-overflow": [Homothety(P, c=0.1), Homothety(P, c=8e15),
                                        Homothety(P, b=100.0)],
                "both-in-one-row": [Homothety(P, c=0.1), Homothety(P, b=100.0, c=8e15),
                                    Homothety(P, b=100.0)]}[order]
        want = first_error(*(lambda b=b: compose(phi, b) for b in psis))
        assert want[0] is (OverflowingValueError if order == "overflow-then-phase"
                           else PreconditionError)
        assert first_error(lambda: compose(phi, grp._stack(psis))) == want
        phis, psis = zip(*self.rows(order))
        for psi in (psis[1], psis[2]):
            want = first_error(*(lambda a=a: compose(a, psi) for a in phis))
            assert first_error(lambda: compose(grp._stack(phis), psi)) == want

    @pytest.mark.parametrize("order", ORDERS)
    def test_a_column_batch_against_a_row_batch(self, order):
        """A (B, 1) batch against a (M,) batch is the (B, M) batch of
        every pair, its rows in np.ndindex order."""
        phis, psis = zip(*self.rows(order))
        column = grp._take(grp._stack(phis), np.s_[:, None])
        want = first_error(*(lambda a=a, b=b: compose(a, b) for a in phis for b in psis))
        assert want is not None
        assert first_error(lambda: compose(column, grp._stack(psis))) == want

    @pytest.mark.parametrize("order", ORDERS)
    def test_inverse(self, order):
        """e^{-2s} b overflows at s = -354, b = 100, and the inverse reads
        beta at t = -8e15 for c = 8e15."""
        P = self.prof
        over, phase = Homothety(P, b=100.0, s=-354.0), Homothety(P, c=8e15, beta=self.beta)
        both = Homothety(P, b=100.0, s=-354.0, c=8e15, beta=self.beta)
        phis = [identity(P), *{"overflow-then-phase": [over, phase],
                               "phase-then-overflow": [phase, over],
                               "both-in-one-row": [both, over]}[order]]
        want = first_error(*(lambda a=a: inverse(a) for a in phis))
        assert want[0] is (OverflowingValueError if order == "overflow-then-phase"
                           else PreconditionError)
        assert first_error(lambda: inverse(grp._stack(phis))) == want


@pytest.mark.parametrize("kind", KINDS)
def test_compose_reads_A_by_value_not_by_memory_order(kind):
    """Every A is in C order, where it enters and after an inverse: an
    element built from an F-ordered or transposed-view A composes, on
    either side, bit for bit as the one built from its C-ordered copy."""
    rng = np.random.default_rng(4)
    prof = spectral_profile(kind, 4, rng, True)
    phi, psi = element(prof, rng), element(prof, rng)

    def layouts(e):
        A = np.ascontiguousarray(e.A)
        return [replace(e, A=A), replace(e, A=np.asfortranarray(A)),
                replace(e, A=np.ascontiguousarray(A.T).T)]

    want = grp._params(compose(*(layouts(e)[0] for e in (phi, psi))))
    for a in layouts(phi):
        for b in layouts(psi):
            assert all(map(bit_equal, grp._params(compose(a, b)), want))
    assert inverse(phi).A.flags.c_contiguous
    assert inverse(grp._stack([phi, psi])).A.flags.c_contiguous


class TestWithInverses:
    """`_with_inverses`, the letters of the PD sweep and of
    `self_adjacency`: row 2i is element i and row 2i + 1 its inverse, row
    i of the batched inverse, bit for bit."""

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_rows_are_the_elements_and_their_inverses_bit_for_bit(self, kind, m):
        rng = np.random.default_rng(10 * m)
        prof = spectral_profile(kind, m, rng, repeat=False)
        elems = [element(prof, rng) for _ in range(m)]
        letters, inverses = grp._with_inverses(elems), inverse(grp._stack(elems))
        assert letters.c.shape == (2 * m,) and letters.A.flags.c_contiguous
        for i, phi in enumerate(elems):
            for row, want in ((2 * i, phi), (2 * i + 1, grp._take(inverses, i))):
                got = grp._take(letters, row)
                assert all(map(bit_equal, grp._params(got), grp._params(want))), (i, row)
                assert got.A.flags.c_contiguous
            # a batch evaluates beta through gemm, one element through gemv
            assert grp.element_distance(grp._take(letters, 2 * i + 1), inverse(phi)) <= 1e-14

    @pytest.mark.parametrize("first", [True, False])
    def test_an_overflowing_inverse_raises_as_it_does_alone(self, first):
        # on S = (1) the inverse of a c = 1000 element reads the flow at
        # |t| = 1000, where cosh overflows
        prof = SymmetricProfile([[1.0]])
        big, fine = Homothety(prof, c=1000.0), Homothety(prof, c=1.0, s=0.5)
        with pytest.raises(OverflowingValueError) as alone:
            inverse(big)
        with pytest.raises(OverflowingValueError) as batched:
            grp._with_inverses([big, fine] if first else [fine, big])
        assert str(batched.value) == str(alone.value)


def counter(monkeypatch, owner, name):
    """Count the calls of owner.name for the rest of the test."""
    calls = []
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


class TestCost:
    @pytest.fixture
    def pair(self):
        rng = np.random.default_rng(7)
        prof = spectral_profile("mixed", 4, rng, True)
        return element(prof, rng), element(prof, rng)

    def test_compose_and_inverse_evaluate_beta_once(self, pair, monkeypatch):
        phi, psi = pair
        calls = counter(monkeypatch, grp, "beta_eval")
        compose(phi, psi)
        assert len(calls) == 1
        inverse(phi)
        assert len(calls) == 2

    def test_internal_products_skip_the_centraliser_check(self, pair, monkeypatch):
        phi, psi = pair
        calls = counter(monkeypatch, SymmetricProfile, "in_centraliser")
        compose(phi, psi)
        inverse(phi)
        power(phi, -7)
        assert calls == []
        # the public constructor still checks
        Homothety(phi.profile, A=phi.A)
        assert len(calls) == 1

    def test_the_constructor_checks_A_once(self, pair, monkeypatch):
        """A drifted A costs one centraliser check where it enters, and
        enters orthogonal."""
        phi, _ = pair
        calls = counter(monkeypatch, SymmetricProfile, "in_centraliser")
        fixed = Homothety(phi.profile, A=phi.A * (1 + 2e-9))
        assert len(calls) == 1
        assert np.max(np.abs(fixed.A.T @ fixed.A - np.eye(phi.profile.n))) <= 1e-12

    def test_products_never_project(self, pair, monkeypatch):
        """Only the entry gate calls np.linalg.svd: products, inverses,
        powers and orbits of valid elements keep A as the group law gives it."""
        phi, psi = pair
        gamma = Homothety(phi.profile, c=0.4, s=0.3, A=psi.A * (1 + 2e-9))

        def refuse(*args, **kwargs):
            raise AssertionError("A projected after it entered")

        monkeypatch.setattr(np.linalg, "svd", refuse)
        compose(phi, psi)
        inverse(phi)
        power(phi, -7)
        power(gamma, 20)
        orbit_obstruction_sequence(gamma, phi, K=60)

    def test_power_squares(self, monkeypatch):
        # imaginary type and a small s, so that phi^1000 stays finite
        rng = np.random.default_rng(8)
        prof = spectral_profile("imaginary", 3, rng, False)
        phi = Homothety(prof, b=1.0, beta=BetaSolution(prof, rng.normal(size=3)),
                        c=0.5, s=1e-3)
        calls = counter(monkeypatch, grp, "compose")
        power(phi, 1000)
        assert len(calls) <= 2 * math.ceil(math.log2(1000))

    @pytest.mark.parametrize("k", [*range(1, 10), 20, -5, -37, 1000])
    def test_power_makes_the_squarings_and_one_product_per_further_bit(self, monkeypatch, k):
        """floor(log2|k|) squarings, and one product per set bit of |k|
        past the lowest, which starts the fold: nothing composes with the
        identity."""
        rng = np.random.default_rng(8)
        prof = spectral_profile("imaginary", 3, rng, False)
        phi = Homothety(prof, b=1.0, beta=BetaSolution(prof, rng.normal(size=3)),
                        c=0.5, s=1e-3)
        calls = counter(monkeypatch, grp, "compose")
        power(phi, k)
        assert len(calls) == abs(k).bit_length() - 1 + bin(abs(k)).count("1") - 1


def identity_started_power(phi, k):
    """Reference for power: the repeated-squaring fold from the identity."""
    out = identity(phi.profile)
    base = phi if k >= 0 else inverse(phi)
    k = abs(k)
    while k:
        if k & 1:
            out = compose(out, base)
        k >>= 1
        if k:
            base = compose(base, base)
    return out


@pytest.mark.parametrize("kind", KINDS)
def test_power_equals_the_identity_started_fold(kind):
    """Folding from the first factor drops only the product with the
    identity, which returns that factor but for the sign of a zero: every
    parameter is np.array_equal to the reference's."""
    rng = np.random.default_rng(12)
    prof = spectral_profile(kind, 3, rng, True)
    phi = element(prof, rng)
    for k in [*range(1, 10), 20, -5]:
        got, want = power(phi, k), identity_started_power(phi, k)
        assert all(map(np.array_equal, grp._params(got), grp._params(want))), k
    zero = power(phi, 0)
    assert all(map(np.array_equal, grp._params(zero), grp._params(identity(prof))))


@pytest.mark.parametrize("repeat", [False, True])
@pytest.mark.parametrize("kind", KINDS)
def test_flow_equals_the_branch_loop(kind, repeat):
    """The flow tables run each function once on its branch's columns:
    (ch, sh, d0) equal the branch-by-branch loop bit for bit, for a
    Python float, a numpy float, a 0-d array and an array of times."""
    rng = np.random.default_rng(13)
    for n in (1, 2, 5, 9):
        prof = spectral_profile(kind, n, rng, repeat)
        for t in (float(rng.uniform(-3, 3)), np.float64(rng.uniform(-40, 40)),
                  np.asarray(rng.uniform(-3, 3)), rng.uniform(-3, 3, size=(3, 4)), -0.0, 0):
            assert all(map(bit_equal, prof.flow(t), branch_loop_flow(prof, t))), (n, t)


@pytest.mark.parametrize("time", [float, np.float64, np.asarray, lambda t: np.array([0.5, t])],
                         ids=["float", "float64", "0-d", "array"])
@pytest.mark.parametrize("kind", ["imaginary", "mixed"])
def test_the_phase_gate_refuses_every_time_type_at_the_limit(kind, time):
    """A float time below every column's limit passes at once; |t| at or
    past the fastest column's limit is refused whatever the time's type."""
    prof = spectral_profile(kind, 3, np.random.default_rng(14), False)
    limit, y = prof._phase_limit.min(), np.ones(prof.n)
    for t in (limit, -limit, np.nextafter(limit, np.inf), 1e300):
        with pytest.raises(PreconditionError):
            require_phase(prof, time(t), y, y)
    require_phase(prof, time(np.nextafter(limit, 0.0)), y, y)


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(KINDS), n=st.integers(2, 32), seed=st.integers(0, 2**32 - 1),
       k=st.integers(-1000, 1000), m=st.integers(1, 200))
def test_products_drift_from_orthogonal_by_n_eps_each(kind, n, seed, k, m):
    """Nothing re-projects A after it enters, and none needs to: a float
    matrix product is backward stable, so each product adds about n eps to
    the drift of A^T A from I.  Hence the drift of power(phi, k) is at
    most |k| (d + n eps), with d that of phi's A, and that of a left fold
    of m elements at most m (d + n eps), with d the largest of theirs."""
    rng = np.random.default_rng(seed)
    prof = spectral_profile(kind, n, rng, repeat=True)
    factors = [Homothety(prof, A=random_centralising_orthogonal(prof, rng)) for _ in range(m)]

    def drift(phi):
        return np.max(np.abs(phi.A.T @ phi.A - np.eye(prof.n)))

    per_product = prof.n * np.finfo(float).eps
    assert drift(power(factors[0], k)) <= abs(k) * (drift(factors[0]) + per_product)
    assert drift(reduce(compose, factors)) <= m * (max(map(drift, factors)) + per_product)
