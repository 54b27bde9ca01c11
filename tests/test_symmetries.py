"""Frame symmetry of fixed_point and normal_form: an orthogonal change of
frame O of R^n takes phi = (b, beta, c, eps, A, s) over S to
(b, O beta, c, eps, O A O^T, s) over O S O^T, and a point (t, x, v) to
(t, O x, v).  The fixed-point verdict cannot depend on the frame, and the
fixed points map by (t, O x, v); the normal form's conjugator and
resonance verdict map the same way.  Conjugation by h = (b_h, beta_h, 0,
+1, A_h, 0) keeps each generator's (eps, c, s), so the PD report cannot
change.  For k > 0, (t, x, v) -> (t/k, x, k v) is an isometry from g_S to
g_{k^2 S}, which takes phi to (k b, beta~, c/k, eps, A, s) with
beta~(0) = beta(0) and beta~'(0) = k beta'(0): classify, normal_form,
fixed_point, is_essential and the PD sweep cannot depend on k.  These are
metamorphic relations in the sense of Chen et al., ACM Comput. Surv. 51
(2018)."""

import numpy as np
import pytest

from cwgeom.core import FIXED_POINT_TOL, PARAM_TOL, BetaSolution, SymmetricProfile, classify
from cwgeom.dynamics import fixed_point, is_essential, normal_form, pd_necessary_report
from cwgeom.errors import ResonanceError
from cwgeom.group import Homothety, apply, compose, conjugate, element_distance, inverse

from conftest import (eigenspaces, haar_orthogonal, in_frame, random_centralising_orthogonal,
                      random_homothety, random_profile)
from test_group_law import KINDS, spectral_profile


def _repeated_profile(rng, n):
    """A profile whose first eigenvalue is repeated, in a random frame, so
    that its centraliser holds rotations."""
    w = rng.uniform(-2.0, 2.0, n)
    w[1] = w[0]
    Q = haar_orthogonal(rng, n)
    return SymmetricProfile(Q @ np.diag(w) @ Q.T)


def _draw(rng, prof=None):
    """An element over prof, by default of any of the four types, eps = +-1,
    strict or isometric, c = 0 or not, with or without beta and b, A = I a
    third of the time.  Half the draws are h conjugated by a Heisenberg
    translation g, for an h without beta and b, so that they fix g(t*, 0, 0)
    whenever h has a fixed time."""
    if prof is None:
        n = int(rng.integers(2, 5))
        prof = random_profile(rng, n) if rng.random() < 0.5 else _repeated_profile(rng, n)
    n = prof.n
    strict = bool(rng.integers(2))
    h = Homothety(prof, c=0.0 if rng.random() < 0.5 else float(rng.normal()),
                  eps=int(rng.choice([-1, 1])),
                  A=np.eye(n) if rng.random() < 1 / 3 else random_centralising_orthogonal(prof, rng),
                  s=float(rng.uniform(0.2, 1.0) * rng.choice([-1, 1])) if strict else 0.0)
    zero = np.zeros(n)
    beta = (BetaSolution(prof, rng.normal(size=n), rng.normal(size=n)) if rng.random() < 0.5
            else BetaSolution(prof, zero, zero))
    g = Homothety(prof, b=float(rng.normal()) if rng.random() < 0.5 else 0.0, beta=beta)
    return conjugate(g, h) if rng.random() < 0.5 else compose(g, h)


def test_fixed_points_do_not_depend_on_the_frame():
    rng = np.random.default_rng(11)
    verdicts, misplaced, kinds = [], [], set()
    for _ in range(600):
        phi = _draw(rng)
        O = haar_orthogonal(rng, phi.profile.n)
        rep, moved = fixed_point(phi), fixed_point(in_frame(phi, O))
        kinds.add((phi.eps, phi.is_strict, rep.exists))
        if rep.exists != moved.exists:
            verdicts.append((phi, rep.point, moved.point))
        elif rep.exists:
            t, x, v = rep.point[0], rep.point[1:-1], rep.point[-1]
            want = np.concatenate(([t], O @ x, [v]))
            if not np.max(np.abs(moved.point - want)) <= FIXED_POINT_TOL * max(
                    1.0, float(np.max(np.abs(rep.point)))):
                misplaced.append((phi, rep.point, moved.point))
    assert verdicts == [] and misplaced == []
    # every type is drawn with both verdicts, but a strict eps = -1, which always fixes a point
    assert kinds == {(eps, strict, exists) for eps in (-1, 1) for strict in (False, True)
                     for exists in (False, True)} - {(-1, True, False)}


def test_strict_verdicts_follow_the_theorem_in_every_frame():
    """A strict element fixes a point iff eps = -1 or c = 0, in either frame."""
    rng = np.random.default_rng(12)
    for _ in range(200):
        phi = _draw(rng)
        if not phi.is_strict:
            continue
        expected = phi.eps == -1 or phi.c == 0.0
        assert fixed_point(phi).exists == expected
        assert fixed_point(in_frame(phi, haar_orthogonal(rng, phi.profile.n))).exists == expected


def test_fixed_points_follow_a_conjugation():
    """conjugate(h, phi) = h phi h^{-1}, for a Heisenberg h = (b_h, beta_h,
    0, +1, I, 0), has phi's verdict; where phi fixes one point p at t* it
    fixes apply(h, p), within FIXED_POINT_TOL max(1, |p|), and where phi
    fixes a set (an isometry with eps = +1, or with A fixing a vector) h^{-1}
    takes its point q into phi's fixed set, |phi(q) - q| within
    FIXED_POINT_TOL max(1, |q|).  All four types, a repeated eigenvalue
    half the time, eps = +-1, strict and isometric."""
    rng = np.random.default_rng(23)
    verdicts, misplaced, kinds = [], [], set()
    for draw in range(600):
        prof = spectral_profile(KINDS[draw % 4], int(rng.integers(2, 5)), rng,
                                repeat=bool(rng.integers(2)))
        phi = _draw(rng, prof)
        h = Homothety(prof, b=float(rng.normal()),
                      beta=BetaSolution(prof, rng.normal(size=prof.n), rng.normal(size=prof.n)))
        rep, moved = fixed_point(phi), fixed_point(conjugate(h, phi))
        kinds.add((classify(prof).type, phi.eps, phi.is_strict, rep.exists))
        if rep.exists != moved.exists:
            verdicts.append((phi, h, rep.point, moved.point))
            continue
        if not rep.exists:
            continue
        one_point = phi.is_strict or phi.eps == -1 and np.linalg.svd(
            phi.A - np.eye(prof.n), compute_uv=False).min() > PARAM_TOL
        if one_point:
            q, gap = rep.point, moved.point - apply(h, rep.point)
        else:
            q = apply(inverse(h), moved.point)
            gap = apply(phi, q) - q
        if not np.max(np.abs(gap)) <= FIXED_POINT_TOL * max(1.0, float(np.max(np.abs(q)))):
            misplaced.append((phi, h, rep.point, moved.point))
    assert verdicts == [] and misplaced == []
    # every type is drawn with both verdicts, but a strict eps = -1, which always fixes a point
    assert kinds == {(kind, eps, strict, exists) for kind in KINDS for eps in (-1, 1)
                     for strict in (False, True) for exists in (False, True)} - {
        (kind, -1, True, False) for kind in KINDS}


def _strict_draw(rng):
    """A strict eps = +1 element with b and beta, A a Haar element of the
    centraliser, so a rotation or reflection on a repeated eigenvalue.  A
    third of the draws sit on the resonance s = r c of a positive
    eigenvalue r^2, with A = I on its eigenspace half of those times."""
    n = int(rng.integers(2, 5))
    prof = random_profile(rng, n) if rng.random() < 0.5 else _repeated_profile(rng, n)
    A = random_centralising_orthogonal(prof, rng)
    c = float(rng.normal())
    s = float(rng.uniform(0.2, 1.0) * rng.choice([-1, 1]))
    positive = [(ev, B) for ev, B in eigenspaces(prof) if ev > 0]
    if positive and rng.random() < 1 / 3:
        ev, B = positive[int(rng.integers(len(positive)))]
        s = float(rng.choice([-1, 1]) * np.sqrt(ev) * c)
        if rng.random() < 0.5:
            A += B @ (np.eye(B.shape[1]) - B.T @ A @ B) @ B.T
    beta = BetaSolution(prof, rng.normal(size=n), rng.normal(size=n))
    return Homothety(prof, b=float(rng.normal()), beta=beta, c=c, A=A, s=s)


def _normal_form_or_resonance(phi):
    try:
        return normal_form(phi)
    except ResonanceError:
        return None


def test_normal_forms_do_not_depend_on_the_frame():
    """normal_form(in_frame(phi, O)) refuses phi as resonant exactly where
    normal_form(phi) does, and otherwise has the conjugator in_frame(g, O)
    and the normal form in_frame(N, O), relative to their parameters."""
    rng = np.random.default_rng(13)
    verdicts, errors = [], []
    for _ in range(600):
        phi = _strict_draw(rng)
        O = haar_orthogonal(rng, phi.profile.n)
        res, moved = _normal_form_or_resonance(phi), _normal_form_or_resonance(in_frame(phi, O))
        verdicts.append((res is None, moved is None))
        if res is None or moved is None:
            continue
        for mine, theirs in ((res.conjugator, moved.conjugator), (res.normal, moved.normal)):
            size = max(1.0, abs(mine.b), *np.abs(mine.beta.beta0), *np.abs(mine.beta.beta1),
                       abs(mine.c), abs(mine.s))
            errors.append(element_distance(in_frame(mine, O), theirs) / size)
    assert all(here == there for here, there in verdicts)
    # both verdicts are drawn
    assert {here for here, _ in verdicts} == {False, True}
    assert max(errors) <= 1e-10


def test_pd_reports_do_not_change_under_conjugation():
    """Each generator g conjugated by one h = (b_h, beta_h, 0, +1, A_h, 0)
    has g's (eps, c, s), so the PD report of h g h^{-1} is g's, word for
    word; all four types, n <= 3, max_length <= 3, eps = +-1, c = 0 or not."""
    rng = np.random.default_rng(22)
    kinds = set()
    for draw in range(300):
        prof = spectral_profile(KINDS[draw % 4], int(rng.integers(1, 4)), rng, repeat=False)
        gens = [random_homothety(prof, rng, strict=bool(rng.integers(4)),
                                 c=0.0 if rng.random() < 0.25 else None)
                for _ in range(int(rng.integers(1, 4)))]
        h = Homothety(prof, b=float(rng.normal()),
                      beta=BetaSolution(prof, rng.normal(size=prof.n), rng.normal(size=prof.n)),
                      A=random_centralising_orthogonal(prof, rng))
        max_length = int(rng.integers(1, 4))
        report = pd_necessary_report(gens, max_length)
        assert pd_necessary_report([conjugate(h, g) for g in gens], max_length) == report
        kinds.update(o.kind for o in report.obstructions)
    assert kinds == {"fixed-point", "inequality", "imaginary-strict"}


SCALES = [1e-6, 1e-3, 1e3, 1e6]
# a word's c at least this far from 0 keeps c/k past 10 PARAM_TOL at every scale
CLEAR_C = 10 * PARAM_TOL * max(SCALES)


def _scaled(phi, k, prof):
    """phi's image over prof, the profile of k^2 S, under the isometry
    (t, x, v) -> (t/k, x, k v): (k b, beta~, c/k, eps, A, s)."""
    beta = BetaSolution(prof, phi.beta.beta0, k * phi.beta.beta1)
    return Homothety(prof, b=k * phi.b, beta=beta, c=phi.c / k, eps=phi.eps, A=phi.A, s=phi.s)


def _typed_profile(rng, kind):
    """A profile of the given type, n = 2..4 (1..4 but mixed), an eigenvalue
    repeated half the time, in a Haar frame."""
    S = spectral_profile(kind, int(rng.integers(1, 5)), rng, repeat=bool(rng.integers(2))).S
    O = haar_orthogonal(rng, len(S))
    return SymmetricProfile(O @ S @ O.T)


def _clear_c(rng):
    """c = 0 a fifth of the time, else |c| in [0.3, 1.5], past CLEAR_C: clear
    of the fixed-time read |c| <= PARAM_TOL, which stays absolute."""
    return 0.0 if rng.random() < 0.2 else float(rng.uniform(0.3, 1.5) * rng.choice([-1, 1]))


@pytest.mark.parametrize("k", SCALES)
def test_classify_does_not_depend_on_the_scale(k):
    """The same type, invertibility and flatness over k^2 S as over S, and
    lambda_max^2 times k^2."""
    rng = np.random.default_rng(31)
    for draw in range(400):
        prof = _typed_profile(rng, KINDS[draw % 4])
        here, there = classify(prof), classify(SymmetricProfile(k * k * prof.S))
        assert (there.type, there.invertible, there.conformally_flat) == (
            here.type, here.invertible, here.conformally_flat)
        if here.lambda_max_sq is None:
            assert there.lambda_max_sq is None
        else:
            assert there.lambda_max_sq == pytest.approx(k * k * here.lambda_max_sq, rel=1e-12)


@pytest.mark.parametrize("k", SCALES)
def test_normal_forms_do_not_depend_on_the_scale(k):
    """normal_form refuses the image of phi as resonant exactly where it
    refuses phi, and otherwise its conjugator and normal form are the
    images of phi's, relative to their parameters.  A third of the draws sit
    on the resonance s = r c of a positive eigenvalue r^2, with A = I on its
    eigenspace half of those times."""
    rng = np.random.default_rng(32)
    verdicts, errors = [], []
    for draw in range(200):
        prof = _typed_profile(rng, KINDS[draw % 4])
        A, c = random_centralising_orthogonal(prof, rng), _clear_c(rng)
        s = float(rng.uniform(0.2, 1.0) * rng.choice([-1, 1]))
        positive = [(ev, B) for ev, B in eigenspaces(prof) if ev > 0]
        if positive and c != 0.0 and rng.random() < 1 / 3:
            ev, B = positive[int(rng.integers(len(positive)))]
            s = float(np.sign(s) * np.sqrt(ev) * abs(c))
            if rng.random() < 0.5:
                A += B @ (np.eye(B.shape[1]) - B.T @ A @ B) @ B.T
        phi = Homothety(prof, b=float(rng.normal()), c=c, A=A, s=s,
                        beta=BetaSolution(prof, rng.normal(size=prof.n), rng.normal(size=prof.n)))
        image = SymmetricProfile(k * k * prof.S)
        res, moved = (_normal_form_or_resonance(phi),
                      _normal_form_or_resonance(_scaled(phi, k, image)))
        verdicts.append((res is None, moved is None))
        if res is None or moved is None:
            continue
        for mine, theirs in ((res.conjugator, moved.conjugator), (res.normal, moved.normal)):
            size = max(1.0, abs(mine.b), *np.abs(mine.beta.beta0), *np.abs(mine.beta.beta1),
                       abs(mine.c), abs(mine.s))
            errors.append(element_distance(_scaled(theirs, 1 / k, prof), mine) / size)
    assert all(here == there for here, there in verdicts)
    assert {here for here, _ in verdicts} == {False, True}
    assert max(errors) <= 1e-10


@pytest.mark.parametrize("k", SCALES)
def test_strict_fixed_points_do_not_depend_on_the_scale(k):
    """A strict phi and its image both fix a point, or neither does, by
    fixed_point and by is_essential; the image's point is (t/k, x, k v)."""
    rng = np.random.default_rng(33)
    seen = set()
    for draw in range(200):
        prof = _typed_profile(rng, KINDS[draw % 4])
        phi = random_homothety(prof, rng, strict=True, c=_clear_c(rng))
        image = _scaled(phi, k, SymmetricProfile(k * k * prof.S))
        rep, moved = fixed_point(phi), fixed_point(image)
        assert moved.exists == rep.exists == is_essential(image) == is_essential(phi)
        seen.add(rep.exists)
        if rep.exists:
            back = moved.point * np.r_[k, np.ones(prof.n), 1 / k]
            assert np.max(np.abs(back - rep.point)) <= FIXED_POINT_TOL * max(
                1.0, float(np.max(np.abs(rep.point))))
    assert seen == {False, True}


def _word_parameters(gens, max_length):
    """(eps, c, s) of every reduced word up to max_length, by the quotient
    law (eps_1 eps_2, c_1 + eps_1 c_2, s_1 + s_2); g^-1 is (eps, -eps c, -s)."""
    letters = [p for g in gens for p in ((g.eps, g.c, g.s), (g.eps, -g.eps * g.c, -g.s))]
    level = [((j,), letters[j]) for j in range(len(letters))]
    words = [p for _, p in level]
    for _ in range(max_length - 1):
        level = [(w + (j,), (e * letters[j][0], c + e * letters[j][1], s + letters[j][2]))
                 for w, (e, c, s) in level for j in range(len(letters)) if j != w[-1] ^ 1]
        words += [p for _, p in level]
    return words


def _clear_of_the_absolute_reads(gens, max_length, lam_sq):
    """Whether no word sits near the two reads of the sweep that stay
    absolute, |c| <= PARAM_TOL and PD_SLACK: every word's c is round-off of
    0 or at least CLEAR_C, and its (s/c)^2 is at least 1e-4 relative away
    from lambda_max^2."""
    for _, c, s in _word_parameters(gens, max_length):
        if abs(c) <= 1e-12:
            continue
        if abs(c) < CLEAR_C or (lam_sq is not None and abs((s / c) ** 2 - lam_sq) < 1e-4 * lam_sq):
            return False
    return True


@pytest.mark.parametrize("k", SCALES[1:])
def test_pd_reports_do_not_depend_on_the_scale(k):
    """The images of the generators obstruct in the same words, by the same
    kinds, against lambda_max^2 times k^2; all four types, n <= 4, eps = +-1,
    c = 0 or not, max_length <= 3.  k = 1e-6 would bring k^2 lambda_max^2 to
    the absolute PD_SLACK."""
    rng = np.random.default_rng(34)
    kinds, draws = set(), 0
    while draws < 150:
        prof = _typed_profile(rng, KINDS[draws % 4])
        gens = [random_homothety(prof, rng, strict=bool(rng.integers(4)), c=_clear_c(rng))
                for _ in range(int(rng.integers(1, 4)))]
        max_length = int(rng.integers(1, 4))
        report = pd_necessary_report(gens, max_length)
        if not _clear_of_the_absolute_reads(gens, max_length, report.lambda_max_sq):
            continue
        draws += 1
        image = SymmetricProfile(k * k * prof.S)
        moved = pd_necessary_report([_scaled(g, k, image) for g in gens], max_length)
        assert [(o.word, o.kind) for o in moved.obstructions] == [
            (o.word, o.kind) for o in report.obstructions]
        assert moved.words_checked == report.words_checked
        assert (moved.lambda_max_sq is None) == (report.lambda_max_sq is None)
        if report.lambda_max_sq is not None:
            assert moved.lambda_max_sq == pytest.approx(k * k * report.lambda_max_sq, rel=1e-12)
        kinds.update(o.kind for o in report.obstructions)
    assert kinds == {"fixed-point", "inequality", "imaginary-strict"}


# why two reads of the sweep still depend on the scale
ABSOLUTE_READS = ("ROADMAP items 1 and 22: PD_SLACK and the fixed-time read |c| <= PARAM_TOL "
                  "stay absolute, because tests/test_tolerances.py::"
                  "test_pd_sweep_agrees_with_the_benchmark_on_boundary_words ties both to the "
                  "benchmark's oracle in perfbench/inputs.py")


@pytest.mark.xfail(strict=True, reason=ABSOLUTE_READS)
@pytest.mark.parametrize("k2, c, unit_c, s", [
    # (s/c)^2 is lambda_max^2 (1 + 1e-6): past it by 2e-14 over 1e-8 diag(1, 2),
    # inside the absolute PD_SLACK = 1e-12, and by 2e-6 over diag(1, 2)
    (1e-8, 1.0, 1e-4, 1e-4 * float(np.sqrt(2 * (1 + 1e-6)))),
    # c = 5e-10 is a fixed time, its image c = 5e-4 over diag(1, 2) is not
    (1e12, 5e-10, 5e-4, 0.3),
], ids=["pd-slack", "fixed-time"])
def test_the_absolute_reads_of_the_sweep_depend_on_the_scale(k2, c, unit_c, s):
    """A generator (c, s) over k^2 diag(1, 2) and its image (k c, s) over
    diag(1, 2) should obstruct in the same words, by the same kinds, and
    be essential alike (claim 2)."""
    image = Homothety(SymmetricProfile(k2 * np.diag([1.0, 2.0])), c=c, s=s)
    unit = Homothety(SymmetricProfile(np.diag([1.0, 2.0])), c=unit_c, s=s)
    here, there = pd_necessary_report([image], 1), pd_necessary_report([unit], 1)
    assert [(o.word, o.kind) for o in here.obstructions] == [
        (o.word, o.kind) for o in there.obstructions]
    assert is_essential(image) == is_essential(unit)
