"""End-to-end acceptance suite.

Each test covers one acceptance criterion, prints a single PASS/FAIL
line, and fails loudly if any sub-check misses its tolerance.  All
randomized checks are seeded for reproducibility.
"""

import json
import sys

import numpy as np

from cwgeom.cli import main as cli_main
from cwgeom.core import (
    BetaSolution,
    SymmetricProfile,
    random_centralising_orthogonal,
)
from cwgeom.curvature import (
    kulkarni_nomizu,
    metric_at,
    ricci,
    riemann,
    riemann_finite_difference,
    scalar,
    weyl,
)
from cwgeom.dynamics import (
    block_determinant,
    fixed_point,
    inessential_rescaling,
    is_essential,
    normal_form,
    orbit_obstruction_sequence,
)
from cwgeom.errors import ResonanceError
from cwgeom.flat import (
    flatness_blowup_demo,
    imaginary_local_map,
    minkowski_inversion,
    minkowski_map,
    conformal_defect,
    minkowski_metric,
)
from cwgeom.group import (
    Homothety,
    apply,
    compose,
    conjugate,
    element_distance,
    homothety_factor_check,
    inverse,
)
from cwgeom.quotients import verify_example, verify_real_lattice_example

from conftest import random_homothety, random_point, random_profile
from oracles import minkowski_dilation, trace_with_metric


def report(name, ok, detail=""):
    line = f"[acceptance] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, file=sys.stderr)
    assert ok, line


def test_criterion_1_curvature_oracle():
    """Closed-form curvature agrees with the finite-difference oracle."""
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(20):
        prof = random_profile(rng)
        p = random_point(rng, prof.n)
        g = metric_at(prof, p)
        R_fd = riemann_finite_difference(prof, p)
        worst = max(worst, float(np.max(np.abs(riemann(prof).components - R_fd))))
        ric_fd = trace_with_metric(R_fd, g, slots=(0, 2))
        worst = max(worst, float(np.max(np.abs(ricci(prof) - ric_fd))))
        # the Weyl part of the oracle tensor, rebuilt from its own traces
        scal_fd = float(np.einsum("ij,ij->", np.linalg.inv(g), ric_fd))
        P_fd = (ric_fd - scal_fd / (2 * (prof.n + 1)) * g) / prof.n
        W_fd = R_fd - kulkarni_nomizu(g, P_fd)
        worst = max(worst, float(np.max(np.abs(weyl(prof).components - W_fd))))
        assert abs(scalar(prof)) <= 1e-8 and abs(scal_fd) <= 1e-4
    report("criterion-1 curvature-oracle", worst <= 1e-5,
           f"max deviation {worst:.2e}")


def test_criterion_2_conformal_flatness_biconditional():
    """weyl = 0 iff the profile is a scalar matrix."""
    rng = np.random.default_rng(2)
    ok = True
    for _ in range(50):
        n = int(rng.integers(2, 5))
        lam = float(rng.uniform(-3.0, 3.0))
        if abs(lam) < 0.1:
            lam = 0.5
        scalar_prof = SymmetricProfile(lam * np.eye(n))
        ok = ok and weyl(scalar_prof).max_abs() <= 1e-10
        pert = np.zeros((n, n))
        i, j = rng.integers(0, n, size=2)
        pert[i, j] = pert[j, i] = 1e-3
        if i == j:
            pert[i, j] = 1e-3
        else:
            pert[i, i] = 1e-3  # guarantee the perturbation is not scalar
            pert[j, j] = -1e-3
        perturbed = SymmetricProfile(lam * np.eye(n) + pert)
        ok = ok and weyl(perturbed).max_abs() > 1e-4
    report("criterion-2 conformal-flatness-biconditional", ok)


def test_criterion_3_group_faithfulness():
    """Parameter arithmetic is pointwise faithful; factor e^{2s} holds."""
    rng = np.random.default_rng(3)
    worst_comp = 0.0
    for _ in range(200):
        prof = random_profile(rng)
        phi = random_homothety(prof, rng)
        psi = random_homothety(prof, rng)
        p = random_point(rng, prof.n)
        lhs = apply(compose(phi, psi), p)
        rhs = apply(phi, apply(psi, p))
        scale = max(1.0, float(np.max(np.abs(rhs))))
        worst_comp = max(worst_comp, float(np.max(np.abs(lhs - rhs))) / scale)
    worst_inv = 0.0
    for _ in range(200):
        prof = random_profile(rng)
        phi = random_homothety(prof, rng)
        worst_inv = max(worst_inv,
                        element_distance(compose(phi, inverse(phi)),
                                         Homothety(prof)))
    worst_fac = 0.0
    for _ in range(20):
        prof = random_profile(rng)
        phi = random_homothety(prof, rng, strict=True)
        worst_fac = max(worst_fac, homothety_factor_check(phi, rng=rng))
    ok = worst_comp <= 1e-8 and worst_inv <= 1e-8 and worst_fac <= 1e-8
    report("criterion-3 group-faithfulness", ok,
           f"compose {worst_comp:.2e}, inverse {worst_inv:.2e}, "
           f"factor {worst_fac:.2e}")


def test_criterion_4_fixed_point_essentiality():
    """Fixed-point biconditional and essentiality trichotomy."""
    rng = np.random.default_rng(4)
    branches = [(1, 1.3), (1, 0.0), (-1, 0.8), (-1, 0.0)]
    ok = True
    worst_fp = 0.0
    worst_rescale = 0.0
    for i in range(100):
        eps, c = branches[i % 4]
        prof = random_profile(rng)
        phi = random_homothety(prof, rng, strict=True, eps=eps, c=c)
        rep = fixed_point(phi)
        expected = (eps == -1) or abs(c) <= 1e-12
        ok = ok and rep.exists == expected
        ok = ok and is_essential(phi) == expected
        if rep.exists:
            worst_fp = max(worst_fp, rep.residual)
        else:
            f = inessential_rescaling(phi)
            for _ in range(100):
                p = random_point(rng, prof.n, scale=3.0)
                worst_rescale = max(
                    worst_rescale, abs(f(apply(phi, p)) - (f(p) - phi.s)))
    ok = ok and worst_fp <= 1e-8 and worst_rescale <= 1e-8
    report("criterion-4 fixed-point-essentiality", ok,
           f"fp residual {worst_fp:.2e}, rescale {worst_rescale:.2e}")


def test_criterion_5_normal_form():
    """Normal forms for non-resonant inputs; resonant inputs raise."""
    rng = np.random.default_rng(5)
    worst = 0.0
    done = 0
    while done < 50:
        prof = random_profile(rng)
        phi = random_homothety(prof, rng, strict=True, eps=1)
        try:
            res = normal_form(phi)
        except ResonanceError:
            continue
        done += 1
        worst = max(worst, res.residual)
        assert abs(res.normal.b) <= 1e-12
        assert np.max(np.abs(res.normal.beta.beta0)) <= 1e-12
        assert np.max(np.abs(res.normal.beta.beta1)) <= 1e-12
        assert res.normal.c >= 0.0
        assert element_distance(conjugate(res.conjugator, phi),
                                res.normal) <= 1e-6
    raised = 0
    for k in range(10):
        lam = 0.5 + 0.2 * k
        prof = SymmetricProfile(np.diag([lam ** 2, -1.0]))
        c = 0.7 + 0.05 * k
        phi = Homothety(prof, c=c, s=lam * c,
                        beta=BetaSolution(prof, [1.0, 0.5], [0.0, 0.0]))
        try:
            normal_form(phi)
        except ResonanceError:
            raised += 1
    # block determinant root locus, relative accuracy
    lam, c = 1.1, 0.9
    det_ok = True
    for sgn in (1, -1):
        scale = max(1.0, np.exp(2 * lam * c))
        det_ok = det_ok and abs(
            block_determinant(lam ** 2, sgn * lam * c, c)) <= 1e-8 * scale
    for s in (0.3, -0.5, 2.0):
        expected = (np.exp(s) - np.exp(lam * c)) * (np.exp(s) - np.exp(-lam * c))
        det_ok = det_ok and abs(
            block_determinant(lam ** 2, s, c) - expected) \
            <= 1e-8 * max(1.0, abs(expected))
    ok = worst <= 1e-7 and raised == 10 and det_ok
    report("criterion-5 normal-form", ok,
           f"residual {worst:.2e}, resonant raised {raised}/10")


def test_criterion_6_obstruction_dynamics():
    """Conjugate-orbit convergence at rate e^{-s_gamma}."""
    rng = np.random.default_rng(6)
    ok = True
    worst_rel = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 4))
        prof = SymmetricProfile(-np.diag(rng.uniform(0.5, 4.0, size=n)))
        s_g = float(rng.uniform(0.4, 0.9))
        gamma = Homothety(prof, c=float(rng.uniform(0.5, 1.5)), s=s_g,
                          A=random_centralising_orthogonal(prof, rng))
        phi = random_homothety(prof, rng, eps=1, c=float(rng.uniform(0.5, 1.5)))
        rep = orbit_obstruction_sequence(gamma, phi, K=60)
        ok = ok and rep.converged and rep.rate is not None
        if rep.rate is not None:
            rel = abs(rep.rate - np.exp(-s_g)) / np.exp(-s_g)
            worst_rel = max(worst_rel, rel)
            ok = ok and rel <= 0.1
    report("criterion-6 obstruction-dynamics", ok,
           f"worst rate error {worst_rel:.1%}")


def test_criterion_7_minkowski_maps():
    """Conformal-map pullbacks, conjugated identities, blow-up time."""
    rng = np.random.default_rng(7)
    n = 2
    g0 = minkowski_metric(n)
    F = minkowski_map(n)
    G = imaginary_local_map(n)
    real_prof = SymmetricProfile(np.eye(n))
    imag_prof = SymmetricProfile(-np.eye(n))
    real_pts, imag_pts = [], []
    for _ in range(50):
        real_pts.append(random_point(rng, n))
        imag_pts.append(np.concatenate(([rng.uniform(-1.4, 1.4)], rng.normal(size=n),
                                        [rng.normal()])))
    real_pts, imag_pts = np.array(real_pts), np.array(imag_pts)
    worst_real = conformal_defect(F, lambda q: g0, lambda a: metric_at(real_prof, a),
                                  lambda a: np.exp(2 * a[..., 0]), real_pts)
    worst_imag = conformal_defect(G, lambda q: g0, lambda a: metric_at(imag_prof, a),
                                  lambda a: np.cos(a[..., 0]) ** -2, imag_pts)
    # conjugated identities: t-shift <-> dilation, time reflection <-> inversion
    D = minkowski_dilation(n, 0.6)
    eta = minkowski_inversion(n)
    shift, flip = np.r_[0.6, np.zeros(n + 1)], np.r_[-1.0, np.ones(n), -1.0]
    worst_conj = 0.0
    for _ in range(20):
        p = random_point(rng, n)
        worst_conj = max(worst_conj, float(np.max(np.abs(F(p + shift) - D(F(p))))))
        worst_conj = max(worst_conj, float(np.max(np.abs(F(p * flip) - eta(F(p))))))
        worst_conj = max(worst_conj, conformal_defect(
            eta, lambda r: g0, lambda r: g0, lambda r: 0.25 / r[..., 0] ** 2, F(p)))
    blow = flatness_blowup_demo(-1, y0=0.0)
    ok = (worst_real <= 1e-9 and worst_imag <= 1e-9 and worst_conj <= 1e-8
          and blow["blowup"] and abs(blow["blowup_t"] - np.pi / 2) <= 1e-3)
    report("criterion-7 minkowski-maps", ok,
           f"real {worst_real:.2e}, imag {worst_imag:.2e}, "
           f"conj {worst_conj:.2e}, blow-up {blow['blowup_t']:.6f}")


def test_criterion_8_example_verifications():
    """All four quotient-example verifications pass."""
    ok = True
    details = []
    for name in ("imaginary-torus", "real-lattice", "failed-3d",
                 "removed-fixed-points"):
        rep = verify_example(name)
        ok = ok and rep.passed
        details.append(f"{name}={'ok' if rep.passed else 'FAIL'}")
    for r in (3, 4, 5):
        rep = verify_real_lattice_example(r=r)
        rec = next(c for c in rep.checks if c.name == "recurrence")
        ok = ok and rep.passed and rec.residual <= 1e-9
    report("criterion-8 example-verifications", ok, ", ".join(details))


def test_criterion_9_cli_contract(tmp_path, capsys):
    """Exit codes 0/1/2/3 and schema round-trips on a fixture set."""

    def run(argv):
        code = cli_main(argv)
        out = capsys.readouterr()
        return code, out.out, out.err

    def fixture(name, payload):
        path = tmp_path / name
        path.write_text(payload if isinstance(payload, str)
                        else json.dumps(payload))
        return str(path)

    prof = {"S": [[1.0, 0.0], [0.0, 1.0]]}
    imag = {"S": [[-1.0, 0.0], [0.0, -1.0]]}
    cases = [
        (["classify", fixture("c1.json", prof)], 0),
        (["classify", fixture("c2.json", imag)], 0),
        (["classify", fixture("c3.json", {"S": [[0.0, 1.0], [0.0, 0.0]]})], 2),
        (["classify", fixture("c4.json", "{oops")], 2),
        (["classify", fixture("c5.json", "")], 2),
        (["classify", "/no/such/file.json"], 2),
        (["curvature", fixture("c6.json", prof)], 0),
        (["compose", fixture("c7.json",
                             {"profile": prof, "phi": {"c": 1.0},
                              "psi": {"s": 0.5}})], 0),
        (["apply", fixture("c8.json",
                           {"profile": {"S": [[1.0]]},
                            "phi": {"s": float(np.log(2.0))},
                            "point": [1.0, 1.0, 3.0]})], 0),
        (["fixed-point", fixture("c9.json",
                                 {"profile": prof,
                                  "phi": {"s": 0.5, "c": 1.0}})], 0),
        (["essential", fixture("c10.json",
                               {"profile": prof, "phi": {"c": 1.0}})], 3),
        (["normal-form", fixture("c11.json",
                                 {"profile": {"S": [[1.0]]},
                                  "phi": {"c": 1.0, "s": 1.0,
                                          "beta0": [1.0]}})], 3),
        (["normal-form", fixture("c12.json",
                                 {"profile": imag,
                                  "phi": {"c": -0.5, "s": 0.4,
                                          "beta0": [1.0, 0.0]}})], 0),
        (["orbit", fixture("c13.json",
                           {"profile": imag, "gamma": {"c": 1.0, "s": 0.5},
                            "phi": {"c": 1.0, "beta0": [1.0, 0.0]}})], 0),
        (["pullback-check", fixture("c14.json",
                                    {"n": 2, "map": "minkowski"})], 0),
        (["pd-report", fixture("c15.json",
                               {"profile": imag,
                                "generators": [{"c": 1.0, "s": 0.5}]})], 0),
        (["verify-example", "failed-3d"], 0),
    ]
    ok = True
    for argv, expected in cases:
        code, out, err = run(argv)
        ok = ok and code == expected
        if expected == 0:
            ok = ok and json.loads(out) is not None
        else:
            ok = ok and "error" in json.loads(err)
    # exit code 1: a check that fails cleanly, forced by tightening the
    # pullback tolerance below machine precision
    bad = fixture("c16.json", {"n": 2, "map": "minkowski"})
    code, out, _ = run(["pullback-check", bad, "--tolerance",
                        "pullback=1e-30"])
    ok = ok and code == 1 and json.loads(out)["pass"] is False
    report("criterion-9 cli-contract", ok, f"{len(cases) + 1} fixtures")
