"""Frame symmetry of fixed_point and normal_form: an orthogonal change of
frame O of R^n takes phi = (b, beta, c, eps, A, s) over S to
(b, O beta, c, eps, O A O^T, s) over O S O^T, and a point (t, x, v) to
(t, O x, v).  The fixed-point verdict cannot depend on the frame, and the
fixed points map by (t, O x, v); the normal form's conjugator and
resonance verdict map the same way.  Conjugation by h = (b_h, beta_h, 0,
+1, A_h, 0) keeps each generator's (eps, c, s), so the PD report cannot
change.  These are metamorphic relations in the sense of Chen et al., ACM
Comput. Surv. 51 (2018)."""

import numpy as np

from cwgeom.core import FIXED_POINT_TOL, BetaSolution, SymmetricProfile
from cwgeom.dynamics import fixed_point, normal_form, pd_necessary_report
from cwgeom.errors import ResonanceError
from cwgeom.group import Homothety, compose, conjugate, element_distance

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


def _draw(rng):
    """An element of any of the four types, eps = +-1, strict or isometric,
    c = 0 or not, with or without beta and b, A = I a third of the time.
    Half the draws are h conjugated by a Heisenberg translation g, for an h
    without beta and b, so that they fix g(t*, 0, 0) whenever h has a fixed time."""
    n = int(rng.integers(2, 5))
    prof = random_profile(rng, n) if rng.random() < 0.5 else _repeated_profile(rng, n)
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
