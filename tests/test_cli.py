"""CLI contract: JSON schemas, exit codes, determinism."""

import glob
import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cwgeom
from cwgeom import cli
from cwgeom.cli import main
from cwgeom.errors import InputError

PROFILE = {"n": 2, "S": [[1.0, 0.0], [0.0, 1.0]]}
IMAGINARY = {"n": 2, "S": [[-1.0, 0.0], [0.0, -1.0]]}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(payload if isinstance(payload, str)
                    else json.dumps(payload))
    return str(path)


def run_python(args, stdin=""):
    """Run a fresh interpreter that imports this checkout of cwgeom."""
    src = os.path.dirname(os.path.dirname(cwgeom.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run([sys.executable, *args], input=stdin, env=env,
                          capture_output=True, text=True, timeout=60)


class TestExitCodes:
    def test_classify_ok(self, tmp_path, capsys):
        f = write(tmp_path, "p.json", PROFILE)
        code, out, _ = run(capsys, ["classify", f])
        assert code == 0
        data = json.loads(out)
        assert data["type"] == "real" and data["conformally_flat"]

    def test_classify_mixed(self, tmp_path, capsys):
        f = write(tmp_path, "p.json", {"S": [[1.0, 0.0], [0.0, -2.0]]})
        code, out, _ = run(capsys, ["classify", f])
        assert code == 0
        assert json.loads(out)["type"] == "mixed"

    def test_malformed_profile_exits_2(self, tmp_path, capsys):
        f = write(tmp_path, "bad.json", {"S": [[0.0, 1.0], [0.0, 0.0]]})
        code, _, err = run(capsys, ["classify", f])
        assert code == 2
        assert json.loads(err)["error"]["kind"] == "malformed-profile"

    def test_output_and_error_lines_are_one_write_each(self, tmp_path):
        """A small payload, newline included, and an error line each reach
        their stream in one write, so a pipe's reader never gets part of one."""
        class WriteLog(io.StringIO):
            def __init__(self):
                super().__init__()
                self.sizes = []

            def write(self, text):
                self.sizes.append(len(text))
                return super().write(text)

        for payload, code in ((PROFILE, 0), ({"S": [[0.0, 1.0], [0.0, 0.0]]}, 2)):
            out, err = WriteLog(), WriteLog()
            with redirect_stdout(out), redirect_stderr(err):
                assert main(["classify", write(tmp_path, "p.json", payload)]) == code
            log = out if code == 0 else err
            assert log.sizes == [len(log.getvalue())] and log.getvalue().endswith("}\n")

    def test_invalid_json_exits_2(self, tmp_path, capsys):
        f = write(tmp_path, "bad.json", "{not json")
        code, _, err = run(capsys, ["classify", f])
        assert code == 2
        assert json.loads(err)["error"]["kind"] == "input"

    def test_empty_file_exits_2(self, tmp_path, capsys):
        f = write(tmp_path, "empty.json", "")
        code, _, err = run(capsys, ["classify", f])
        assert code == 2
        assert "empty" in json.loads(err)["error"]["detail"]

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run(capsys, ["classify", "/nonexistent/input.json"])
        assert code == 2
        assert json.loads(err)["error"]["kind"] == "input"

    def test_essential_isometry_exits_3(self, tmp_path, capsys):
        f = write(tmp_path, "iso.json",
                  {"profile": PROFILE, "phi": {"c": 1.0}})
        code, _, err = run(capsys, ["essential", f])
        assert code == 3
        assert json.loads(err)["error"]["kind"] == "precondition"

    def test_essential_finds_the_fixed_point_once(self, tmp_path, capsys, monkeypatch):
        calls = []
        real = cwgeom.dynamics.fixed_point
        monkeypatch.setattr(cwgeom.dynamics, "fixed_point",
                            lambda phi: calls.append(phi) or real(phi))
        strict = write(tmp_path, "e.json", {"profile": PROFILE, "phi": {"s": 0.5}})
        code, out, _ = run(capsys, ["essential", strict])
        assert code == 0 and json.loads(out)["essential"] is True
        assert len(calls) == 1
        iso = write(tmp_path, "iso.json", {"profile": PROFILE, "phi": {"c": 1.0}})
        code, out, err = run(capsys, ["essential", iso])
        assert (code, out) == (3, "")
        assert json.loads(err) == {"error": {
            "kind": "precondition",
            "detail": "essentiality criterion applies to strict homotheties only"}}

    def test_resonant_normal_form_exits_3(self, tmp_path, capsys):
        f = write(tmp_path, "res.json",
                  {"profile": {"S": [[1.0]]},
                   "phi": {"c": 1.0, "s": 1.0, "beta0": [1.0]}})
        code, _, err = run(capsys, ["normal-form", f])
        assert code == 3
        assert json.loads(err)["error"]["kind"] == "resonance"


class TestSchemas:
    def test_curvature(self, tmp_path, capsys):
        f = write(tmp_path, "p.json", {"S": [[2.0, 0.0], [0.0, -1.0]]})
        code, out, _ = run(capsys, ["curvature", f])
        assert code == 0
        data = json.loads(out)
        assert data["scalar"] == 0.0
        assert np.asarray(data["riemann"]).shape == (4, 4, 4, 4)
        assert data["ricci"][0][0] == pytest.approx(-1.0)
        assert data["cotton_max_abs"] <= 1e-12

    def test_compose_apply_round_trip(self, tmp_path, capsys):
        phi = {"c": 0.5, "s": 0.3, "beta0": [1.0, 0.0], "beta1": [0.0, 1.0]}
        psi = {"c": -0.2, "eps": -1, "b": 2.0}
        f = write(tmp_path, "c.json",
                  {"profile": IMAGINARY, "phi": phi, "psi": psi})
        code, out, _ = run(capsys, ["compose", f])
        assert code == 0
        prod = json.loads(out)
        assert set(prod) == {"b", "beta0", "beta1", "c", "eps", "A", "s"}
        # the composite must act like phi after psi
        point = [0.3, 1.0, -1.0, 0.7]
        fa = write(tmp_path, "a1.json",
                   {"profile": IMAGINARY, "phi": prod, "point": point})
        _, out1, _ = run(capsys, ["apply", fa])
        fb = write(tmp_path, "a2.json",
                   {"profile": IMAGINARY, "phi": psi, "point": point})
        _, out2, _ = run(capsys, ["apply", fb])
        mid = json.loads(out2)
        fc = write(tmp_path, "a3.json",
                   {"profile": IMAGINARY, "phi": phi, "point": mid})
        _, out3, _ = run(capsys, ["apply", fc])
        assert np.max(np.abs(np.asarray(json.loads(out1))
                             - np.asarray(json.loads(out3)))) <= 1e-8

    def test_apply_pinned(self, tmp_path, capsys):
        f = write(tmp_path, "a.json",
                  {"profile": {"S": [[1.0]]},
                   "phi": {"s": float(np.log(2.0))},
                   "point": [1.0, 1.0, 3.0]})
        code, out, _ = run(capsys, ["apply", f])
        assert code == 0
        assert json.loads(out) == pytest.approx([1.0, 2.0, 12.0])

    def test_fixed_point(self, tmp_path, capsys):
        f = write(tmp_path, "fp.json",
                  {"profile": PROFILE, "phi": {"s": 0.5, "c": 1.0}})
        code, out, _ = run(capsys, ["fixed-point", f])
        assert code == 0
        data = json.loads(out)
        assert data["exists"] is False
        assert data["reason"] == "none_translation"
        f = write(tmp_path, "fp2.json",
                  {"profile": PROFILE, "phi": {"s": 0.5, "eps": -1, "c": 1.0}})
        code, out, _ = run(capsys, ["fixed-point", f])
        data = json.loads(out)
        assert data["exists"] is True and data["residual"] <= 1e-8

    def test_essential_strict(self, tmp_path, capsys):
        f = write(tmp_path, "e.json",
                  {"profile": PROFILE, "phi": {"s": 0.5}})
        code, out, _ = run(capsys, ["essential", f])
        assert code == 0
        assert json.loads(out)["essential"] is True

    def test_normal_form(self, tmp_path, capsys):
        f = write(tmp_path, "nf.json",
                  {"profile": IMAGINARY,
                   "phi": {"c": -1.0, "s": 0.4, "b": 0.7,
                           "beta0": [1.0, 0.0], "beta1": [0.0, 1.0]}})
        code, out, _ = run(capsys, ["normal-form", f])
        assert code == 0
        data = json.loads(out)
        assert data["residual"] <= 1e-7
        assert data["normal"]["c"] >= 0.0
        assert data["normal"]["b"] == 0.0

    def test_orbit(self, tmp_path, capsys):
        f = write(tmp_path, "o.json",
                  {"profile": IMAGINARY,
                   "gamma": {"c": 1.0, "s": 0.5},
                   "phi": {"c": 1.2, "beta0": [1.0, 0.0]},
                   "K": 60})
        code, out, _ = run(capsys, ["orbit", f])
        assert code == 0
        data = json.loads(out)
        assert data["converged"]
        assert data["limit"][0] == pytest.approx(1.2)
        assert abs(data["rate"] - np.exp(-0.5)) <= 0.1 * np.exp(-0.5)

    def test_pullback_check(self, tmp_path, capsys):
        for which in ("minkowski", "imaginary"):
            f = write(tmp_path, f"pb-{which}.json", {"n": 2, "map": which})
            code, out, _ = run(capsys, ["pullback-check", f])
            assert code == 0
            data = json.loads(out)
            assert data["pass"] and data["max_residual"] <= 1e-9

    def test_pullback_failed_check_exits_1(self, tmp_path, capsys):
        f = write(tmp_path, "pb.json", {"n": 2, "map": "minkowski"})
        code, out, _ = run(capsys, ["pullback-check", f, "--tolerance",
                                    "pullback=1e-30"])
        assert code == 1
        assert json.loads(out)["pass"] is False

    def test_pullback_unknown_map(self, tmp_path, capsys):
        f = write(tmp_path, "pb.json", {"n": 2, "map": "elsewhere"})
        code, _, err = run(capsys, ["pullback-check", f])
        assert code == 2

    def test_verify_examples(self, capsys):
        for name in ("imaginary-torus", "real-lattice", "failed-3d",
                     "removed-fixed-points"):
            code, out, _ = run(capsys, ["verify-example", name])
            assert code == 0
            data = json.loads(out)
            assert data["passed"] and data["example"] == name

    def test_verify_example_r_flag(self, capsys):
        code, out, _ = run(capsys, ["verify-example", "real-lattice",
                                    "--r", "5"])
        assert code == 0
        assert json.loads(out)["passed"]

    def test_pd_report(self, tmp_path, capsys):
        f = write(tmp_path, "pd.json",
                  {"profile": IMAGINARY,
                   "generators": [{"c": 1.0, "s": 0.5}],
                   "max_length": 2})
        code, out, _ = run(capsys, ["pd-report", f])
        assert code == 0
        data = json.loads(out)
        assert data["space_type"] == "imaginary"
        assert not data["clean"]
        assert data["obstructions"][0]["kind"] == "imaginary-strict"

    def test_pd_report_needs_generators(self, tmp_path, capsys):
        f = write(tmp_path, "pd.json", {"profile": IMAGINARY,
                                        "generators": []})
        code, _, err = run(capsys, ["pd-report", f])
        assert code == 2


class TestGlobalFlags:
    def test_determinism_same_seed(self, tmp_path, capsys):
        f = write(tmp_path, "pb.json", {"n": 2, "map": "minkowski"})
        _, out1, _ = run(capsys, ["pullback-check", f, "--seed", "7"])
        _, out2, _ = run(capsys, ["pullback-check", f, "--seed", "7"])
        assert out1 == out2

    def test_output_file_and_pretty(self, tmp_path, capsys):
        f = write(tmp_path, "p.json", PROFILE)
        dest = tmp_path / "out.json"
        code, out, _ = run(capsys, ["classify", f, "--format", "pretty",
                                    "--output", str(dest)])
        assert code == 0 and out == ""
        assert json.loads(dest.read_text())["type"] == "real"

    def test_env_seed(self, tmp_path, capsys, monkeypatch):
        f = write(tmp_path, "pb.json", {"n": 2, "map": "imaginary"})
        monkeypatch.setenv("CW_LAB_SEED", "11")
        _, out1, _ = run(capsys, ["pullback-check", f])
        _, out2, _ = run(capsys, ["pullback-check", f, "--seed", "11"])
        assert out1 == out2

    def test_samples_flag(self, tmp_path, capsys):
        f = write(tmp_path, "pb.json", {"n": 1, "map": "minkowski"})
        code, out, _ = run(capsys, ["pullback-check", f, "--samples", "5"])
        assert code == 0
        assert json.loads(out)["samples"] == 5

    def test_stdin_input(self, tmp_path, capsys, monkeypatch):
        import io
        monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(PROFILE)))
        code, out, _ = run(capsys, ["classify", "-"])
        assert code == 0
        assert json.loads(out)["type"] == "real"


ORBIT = {"profile": IMAGINARY, "gamma": {"c": 1.0, "s": 0.5},
         "phi": {"c": 1.2, "beta0": [1.0, 0.0]}}


@pytest.mark.parametrize("g", [1, 2, 3, 158])
def test_pd_word_bound_admits_its_largest_length(g):
    """A max_length whose sweep over g generators has at most MAX_PD_WORDS
    reduced words, sum over k <= L of 2g(2g-1)^(k-1), loads; one more
    letter does not."""
    def words(L):  # the geometric sum in closed form
        return 2 * L if g == 1 else g * ((2 * g - 1) ** L - 1) // (g - 1)

    largest = 1
    while words(largest + 1) <= cli.MAX_PD_WORDS:
        largest += 1
    data = {"generators": [{}] * g, "max_length": largest}
    assert cli._max_length(data, 1) == largest
    with pytest.raises(InputError):
        cli._max_length(dict(data, max_length=largest + 1), 1)


@pytest.mark.parametrize("n, largest", [(2, 9), (32, 8), (64, 7), (1024, 2)])
def test_pd_entry_bound_admits_its_largest_length(n, largest):
    """Two generators on an n x n profile load up to the largest max_length
    whose 2(3^L - 1) words stay within MAX_PD_WORDS and whose words * (n+2)^2
    stay within MAX_PD_ENTRIES; one more letter does not.  The peak memory
    of n = 32, L = 8 and n = 64, L = 7 was measured."""
    data = {"generators": [{}] * 2, "max_length": largest}
    assert cli._max_length(data, n) == largest
    with pytest.raises(InputError):
        cli._max_length(dict(data, max_length=largest + 1), n)


class TestMalformedPayloads:
    """Malformed payloads exit 2 with a JSON error on stderr and no
    traceback, run in a fresh process as a user would run them."""

    @pytest.mark.parametrize("command, payload", [
        ("compose", [0.1, 0.2, 0.3]),
        ("compose", {"profile": PROFILE, "phi": {"eps": "x"}, "psi": {}}),
        ("orbit", dict(ORBIT, K="a")),
        ("orbit", dict(ORBIT, K=0)),
        ("apply", {"profile": PROFILE, "phi": {"s": 1000.0},
                   "point": [0.1, 0.2, -0.3, 0.4]}),
        ("classify", dict(PROFILE, tolerance="z")),
        ("classify", {"n": True, "S": [[1.0]]}),
        ("classify", {"n": 1.0, "S": [[1.0]]}),
        # the Jacobians of n = 200000 would take 16 TB
        ("pullback-check", {"n": 200000}),
        ("pullback-check", {"n": cli.MAX_PROFILE_N + 1}),
        # K conjugates and K points, held at once
        ("orbit", dict(ORBIT, K=100000000)),
        ("orbit", dict(ORBIT, K=cli.MAX_ORBIT_K + 1)),
        # about 2.7e14 reduced words
        ("pd-report", {"profile": {"S": [[1.0]]}, "max_length": 30,
                       "generators": [{"c": 1.0, "s": 0.1}, {"c": 0.5, "s": -0.2}]}),
        # one generator has 2 words of each length
        ("pd-report", {"profile": PROFILE, "generators": [{"c": 1.0, "s": 0.1}],
                       "max_length": cli.MAX_PD_WORDS // 2 + 1}),
        # 13120 words of 64 x 64 matrices
        ("pd-report", {"profile": {"S": np.eye(64).tolist()}, "max_length": 8,
                       "generators": [{"c": 1.0, "s": 0.1}, {"c": 0.5, "s": -0.2}]}),
        # a profile past MAX_PROFILE_N, refused by every subcommand that loads one
        ("classify", {"S": np.eye(cli.MAX_PROFILE_N + 1).tolist()}),
        ("compose", {"profile": {"S": np.eye(cli.MAX_PROFILE_N + 1).tolist()}}),
    ], ids=["top-level-list", "eps-x", "K-a", "K-0", "apply-s-1000",
            "tolerance-z", "n-true", "n-float", "pullback-n-200000", "pullback-n-above-max",
            "K-100000000", "K-above-max", "pd-length-30", "pd-words-above-max",
            "pd-entries-above-max", "classify-n-above-max", "compose-n-above-max"])
    def test_exits_2_with_json_error(self, command, payload):
        proc = run_python(["-m", "cwgeom.cli", command, "-"], json.dumps(payload))
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        err = json.loads(proc.stderr)["error"]
        assert err["kind"] == "input" and err["detail"]


def test_overflow_exits_3_with_json_error():
    """In-range input whose result overflows is a failed precondition, not
    a traceback."""
    payload = {"profile": {"S": [[1.0]]}, "phi": {"s": 300.0},
               "point": [0.0, 1.0, 1e100]}
    proc = run_python(["-m", "cwgeom.cli", "apply", "-"], json.dumps(payload))
    assert proc.returncode == 3
    assert "Traceback" not in proc.stderr
    # numpy's overflow warning may precede the error line
    err = json.loads(proc.stderr.strip().splitlines()[-1])["error"]
    assert err["kind"] == "overflow" and err["detail"]


@pytest.mark.parametrize("command, payload", [
    ("apply", {"profile": {"S": [[1.0]]}, "phi": {"s": 300.0},
               "point": [0.0, 1.0, 1e100]}),
    # in-range parameters whose product has b = e^{2 s1} b2 = inf
    ("compose", {"profile": {"S": [[1.0]]}, "phi": {"s": 354.0},
                 "psi": {"b": 100.0}}),
    # overflows that go on to inf - inf or 0 * inf in the action
    ("apply", {"profile": {"S": [[2.0]]}, "phi": {"s": 354.0},
               "point": [1.0, 1e300, 0.0]}),
    ("apply", {"profile": {"S": [[1e154]]}, "phi": {"beta1": [1e154]},
               "point": [1e16, 0.0, -2.0]}),
], ids=["apply", "compose", "apply-inf-minus-inf", "apply-zero-times-inf"])
def test_overflow_stderr_is_one_json_document(command, payload):
    """An overflow exits 3 with nothing on stdout, and no numpy warning
    precedes the JSON error: stderr parses whole."""
    proc = run_python(["-m", "cwgeom.cli", command, "-"], json.dumps(payload))
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert json.loads(proc.stderr)["error"]["kind"] == "overflow"


@pytest.mark.parametrize("command, payload, code", [
    ("apply", {"profile": {"S": [[-1.0]]}, "phi": {"beta0": [1.0]},
               "point": [1e300, 1.0, 0.0]}, 3),
    ("compose", {"profile": {"S": [[-1.0]]}, "phi": {"beta0": [1.0]},
                 "psi": {"c": 1e300}}, 3),
    ("compose", {"profile": {"S": [[-1.0]]}, "phi": {}, "psi": {"c": 1e300}}, 0),
    ("apply", {"profile": {"S": [[-1.0]]}, "phi": {"beta0": [1.0]},
               "point": [0.0, 1.0, 0.0]}, 0),
], ids=["apply-lost-phase", "compose-lost-phase", "compose-zero-beta", "apply-t-zero"])
def test_oscillating_beta_at_a_lost_phase_exits_3(command, payload, code, capsys,
                                                   monkeypatch):
    """An oscillating beta with data, evaluated where one ulp of its phase
    is a radian, is a failed precondition rather than a value at a random
    phase; a zero beta, or a moderate time, still gives the answer."""
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    got, out, err = run(capsys, [command, "-"])
    assert got == code
    if code == 3:
        assert out == "" and json.loads(err)["error"]["kind"] == "precondition"
    else:
        assert err == "" and json.loads(out)


@pytest.mark.parametrize("size, code", [(1e-7, 3), (1e-10, 0)])
@pytest.mark.parametrize("part", ["b", "beta0", "beta1"])
def test_orbit_reads_gammas_heisenberg_part_by_one_threshold(part, size, code, capsys,
                                                             monkeypatch):
    """gamma's b and beta are read as 0 by the same PARAM_TOL, whatever the
    profile's own tolerance: past it, gamma leaves E(1) x C_O(n)(S) x R."""
    payload = {"profile": {"S": [[-1.0]], "tolerance": 1e-5},
               "gamma": {"c": 1.0, "s": 0.5, part: size if part == "b" else [size]},
               "phi": {"c": 1.2}, "K": 5}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(payload)))
    got, out, err = run(capsys, ["orbit", "-"])
    assert got == code
    if code == 3:
        assert out == "" and json.loads(err)["error"] == {
            "kind": "precondition", "detail": "gamma must lie in E(1) x C_O(n)(S) x R"}
    else:
        assert err == "" and json.loads(out)["converged"]


TRACE_OVERFLOWS = [[8e307, 0.0, 0.0], [0.0, 8e307, 0.0], [0.0, 0.0, 8e307]]
# symmetrises without overflow since S is halved first; its trace overflows
SYMMETRISED_OVERFLOWS = [[1e308, 0.0], [0.0, 1e308]]


@pytest.mark.parametrize("command, S", [
    ("classify", TRACE_OVERFLOWS),
    ("classify", SYMMETRISED_OVERFLOWS),
    ("curvature", TRACE_OVERFLOWS),
    ("curvature", SYMMETRISED_OVERFLOWS),
], ids=["classify-trace-overflows", "classify-symmetrised-overflows",
        "curvature-trace-overflows", "curvature-symmetrised-overflows"])
def test_overflowing_profile_exits_3(command, S):
    """A profile whose trace or eigenvalues overflow is
    rejected at the boundary: never a wrong verdict or NaN."""
    proc = run_python(["-m", "cwgeom.cli", command, "-"], json.dumps({"S": S}))
    assert proc.returncode == 3
    assert proc.stdout == ""
    assert json.loads(proc.stderr)["error"]["kind"] == "overflow"


def test_curvature_of_a_trace_near_the_float_maximum_exits_0():
    """A profile whose finite trace is near the float maximum has a finite
    Ricci form -tr(S) (dt)^2 and Schouten form, printed as strict JSON."""
    S = [[8.9e307, 8.9e307], [8.9e307, 8.9e307]]
    proc = run_python(["-m", "cwgeom.cli", "curvature", "-"], json.dumps({"S": S}))
    assert proc.returncode == 0 and proc.stderr == ""
    data = json.loads(proc.stdout, parse_constant=_reject_constant)
    assert data["ricci"][0][0] == -1.78e308
    assert data["schouten"][0][0] == -8.9e307
    assert data["cotton_max_abs"] == 0.0


@pytest.mark.parametrize("command", ["classify", "curvature"])
def test_symmetric_profile_near_the_float_maximum_exits_0(command):
    """A finite symmetric S near the float maximum, with trace 0, is halved
    before it is symmetrised, so no sum overflows and it is accepted."""
    S = [[1e308, 0.0], [0.0, -1e308]]
    proc = run_python(["-m", "cwgeom.cli", command, "-"], json.dumps({"S": S}))
    assert proc.returncode == 0 and proc.stderr == ""
    data = json.loads(proc.stdout, parse_constant=_reject_constant)
    if command == "classify":
        assert data["type"] == "mixed" and data["lambda_max_sq"] == 1e308
    else:
        # R = -S kn (dt)^2 has R[1,0,1,0] = -S_11; Ric = -tr(S) (dt)^2 = 0
        assert data["riemann"][1][0][1][0] == -1e308
        assert np.max(np.abs(data["ricci"])) == 0.0


@pytest.mark.parametrize("r", [10**8, 10**200], ids=["1e8", "1e200"])
def test_real_lattice_r_too_large_exits_2(r, capsys):
    """rho^(1 - 2 k_max) must be a normal float: a larger r is an input
    error, neither a long run nor an OverflowError."""
    code, _, err = run(capsys, ["verify-example", "real-lattice", "--r", str(r)])
    assert code == 2
    err = json.loads(err)["error"]
    assert err["kind"] == "input" and "too large" in err["detail"]


PULLBACK = {"n": 1, "S": [[1.0]], "map": "minkowski"}


@pytest.mark.parametrize("argv", [
    ["pullback-check", "-", "--tolerance", "bogus=1"],
    ["pullback-check", "-", "--tolerance", "pullback"],
    ["pullback-check", "-", "--tolerance", "pullback=0"],
    ["pullback-check", "-", "--tolerance", "pullback=inf"],
    ["pullback-check", "-", "--tolerance", "pullback=1e400"],
    ["pullback-check", "-", "--samples", "0"],
    ["pullback-check", "-", "--samples", "-3"],
    ["pullback-check", "-", "--samples", "10001"],
    ["pullback-check", "-", "--seed", "-1"],
    ["verify-example", "failed-3d", "--r", "9"],
    ["verify-example", "real-lattice", "--r", "2"],
    ["verify-example", "real-lattice", "--r", "-1"],
    ["classify", "-", "--seed", "3"],
    ["classify", "-", "--samples", "5"],
    ["curvature", "-", "--tolerance", "pullback=1e-3"],
    ["classify", "-", "--r", "4"],
    ["classify", "-", "--bogus"],
    ["classify", "-", "--format", "yaml"],
    ["classify", "-", "--output", "/nonexistent/dir/out.json"],
    ["--format", "pretty", "classify", "-"],
    ["frobnicate", "-"],
    ["verify-example", "no-such-example"],
    [],
], ids=["tolerance-name", "tolerance-no-value", "tolerance-zero", "tolerance-inf",
        "tolerance-overflows-to-inf", "samples-0", "samples-negative", "samples-above-max",
        "seed-negative", "r-not-real-lattice", "r-below-3",
        "r-negative", "seed-unread",
        "samples-unread", "tolerance-unread", "r-unread", "unknown-flag",
        "unknown-format", "unwritable-output", "flag-before-subcommand",
        "unknown-subcommand", "unknown-example", "no-subcommand"])
def test_usage_errors_exit_2(argv, capsys, monkeypatch):
    """A flag either takes effect or is rejected, and a usage error is a
    JSON input error like any other malformed input."""
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(PULLBACK)))
    code, out, err = run(capsys, argv)
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["kind"] == "input"


@pytest.mark.parametrize("n, samples", [(1024, 51), (256, 800)])
def test_pullback_size_bound_exits_2(n, samples, capsys, monkeypatch):
    """samples * (n+2)^2 above MAX_PULLBACK_ENTRIES is an input error, and
    the bound admits the default 50 samples at the largest n."""
    assert 50 * (cli.MAX_PROFILE_N + 2) ** 2 <= cli.MAX_PULLBACK_ENTRIES
    assert samples * (n + 2) ** 2 > cli.MAX_PULLBACK_ENTRIES
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps({"n": n})))
    code, out, err = run(capsys, ["pullback-check", "-", "--samples", str(samples)])
    assert code == 2 and out == ""
    assert json.loads(err)["error"]["kind"] == "input"


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["pullback-check", "--help"])
    assert exc.value.code == 0
    assert "--samples" in capsys.readouterr().out


GOLDEN = sorted(glob.glob(os.path.join(os.path.dirname(__file__), "data",
                                       "golden_cli", "*.json")))


def largest_float(value) -> float:
    """The largest |x| over the floats anywhere in a JSON value (0 if none)."""
    if isinstance(value, float):
        return abs(value)
    if isinstance(value, dict):
        value = list(value.values())
    if isinstance(value, list):
        return max(map(largest_float, value), default=0.0)
    return 0.0


def assert_matches(got, want, where="stdout", abs_tol=None):
    """Keys, ints, bools, strings and nulls equal; floats to rtol 1e-12 or
    to 1e-12 times the size of the output, max(1, largest |float| in want),
    so that a round-off residual need not reproduce digit for digit."""
    if abs_tol is None:
        abs_tol = 1e-12 * max(1.0, largest_float(want))
    if isinstance(want, float):
        assert isinstance(got, float), where
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=abs_tol), \
            f"{where}: {got!r} != {want!r}"
    elif isinstance(want, dict):
        assert isinstance(got, dict) and got.keys() == want.keys(), where
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}", abs_tol)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{i}]", abs_tol)
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("path", GOLDEN,
                         ids=[os.path.basename(p)[:-5] for p in GOLDEN])
def test_golden_cli(path, capsys, monkeypatch):
    """Exit code and stdout of one small request per subcommand match the
    recorded ones."""
    with open(path, encoding="utf-8") as fh:
        case = json.load(fh)
    monkeypatch.delenv("CW_LAB_SEED", raising=False)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(case["input"])))
    code, out, _ = run(capsys, case["argv"])
    assert code == case["exit"]
    assert_matches(json.loads(out), case["stdout"])


def _reject_constant(name):
    raise ValueError(f"{name} is not JSON")


@pytest.mark.parametrize("path", GOLDEN,
                         ids=[os.path.basename(p)[:-5] for p in GOLDEN])
def test_golden_stdout_is_strict_json(path, capsys, monkeypatch):
    """No subcommand writes NaN or Infinity, which json.dumps emits but
    JSON does not allow."""
    with open(path, encoding="utf-8") as fh:
        case = json.load(fh)
    monkeypatch.delenv("CW_LAB_SEED", raising=False)
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(case["input"])))
    _, out, _ = run(capsys, case["argv"])
    json.loads(out, parse_constant=_reject_constant)


def test_golden_corpus_covers_every_subcommand():
    subcommands = set()
    for path in GOLDEN:
        with open(path, encoding="utf-8") as fh:
            subcommands.add(json.load(fh)["argv"][0])
    assert subcommands == set(cli.COMMANDS)


def test_runtime_imports_no_scipy():
    """scipy is a test-only dependency: importing the library and the CLI
    must not load it."""
    proc = run_python(["-c", "import cwgeom, cwgeom.cli, sys; "
                             "print(sorted(m for m in sys.modules "
                             "if m.split('.')[0] == 'scipy'))"])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


# payload fields drawn from the extremes of the float range, and values of
# the wrong type
NUMBER = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 2.0, 354.0, -354.0, 1e16,
                     1e154, -1e154, 1e300, -1e300, 5e-324, -5e-324]),
    st.floats(-10.0, 10.0), st.integers(-3, 3))
BAD = st.sampled_from(["x", None, True, [], {}, [1.0, "a"], math.inf, math.nan])
VALUE = st.one_of(NUMBER, NUMBER, BAD)
COUNT = st.one_of(st.integers(1, 3), st.sampled_from([0, -1, 1.5, "2"]), BAD)


@st.composite
def matrices(draw, n):
    entries = draw(st.lists(NUMBER, min_size=n * n, max_size=n * n))
    M = [entries[i * n:(i + 1) * n] for i in range(n)]
    symmetric = [[M[min(i, j)][max(i, j)] for j in range(n)] for i in range(n)]
    eye = np.eye(n).tolist()
    return draw(st.sampled_from([symmetric, symmetric, M, eye, (-np.eye(n)).tolist()]))


def vectors(n):
    return st.one_of(st.lists(NUMBER, min_size=n, max_size=n), BAD)


def homotheties(n):
    return st.fixed_dictionaries({}, optional={
        "b": VALUE, "beta0": vectors(n), "beta1": vectors(n), "c": VALUE,
        "eps": st.one_of(st.sampled_from([1, -1, -1.0]), VALUE),
        "A": st.one_of(matrices(n), BAD), "s": VALUE})


@st.composite
def cli_requests(draw):
    """(argv, payload) for one subcommand; payload None for a named one."""
    command = draw(st.sampled_from(sorted(cli.COMMANDS)))
    if command == "verify-example":
        name = draw(st.sampled_from([*cli.COMMANDS[command].names, "no-such"]))
        r = draw(st.sampled_from([[], ["--r", "3"], ["--r", "5"], ["--r", "2"],
                                  ["--r", "-1"], ["--r", "100000000"]]))
        return [command, name, *r], None
    n = draw(st.integers(1, 2))
    profile = draw(st.fixed_dictionaries({"S": st.one_of(matrices(n), BAD)},
                                         optional={"n": COUNT, "tolerance": VALUE}))
    fields = {
        "compose": {"phi": homotheties(n), "psi": homotheties(n)},
        "apply": {"phi": homotheties(n), "point": st.one_of(vectors(n + 2), BAD)},
        "fixed-point": {"phi": homotheties(n)},
        "essential": {"phi": homotheties(n)},
        "normal-form": {"phi": homotheties(n)},
        "orbit": {"gamma": homotheties(n), "phi": homotheties(n), "K": COUNT},
        "pd-report": {"generators": st.one_of(st.lists(homotheties(n), max_size=2), BAD),
                      "max_length": COUNT},
        "pullback-check": {"n": COUNT,
                           "map": st.sampled_from(["minkowski", "imaginary", "other", 1])},
    }
    if command in ("classify", "curvature"):
        payload = profile
    else:
        payload = dict(draw(st.fixed_dictionaries(fields[command])), profile=profile)
    return [command, "-"], draw(st.one_of(st.just(payload), st.just(payload), BAD))


def _error(text):
    return json.loads(text, parse_constant=_reject_constant)["error"]


@settings(max_examples=250, deadline=None)
@given(request=cli_requests())
@example(request=(["apply", "-"], {"profile": {"S": [[2.0]]}, "phi": {"s": 354.0},
                                   "point": [1.0, 1e300, 0.0]}))
@example(request=(["apply", "-"], {"profile": {"S": [[1e154]]}, "phi": {"beta1": [1e154]},
                                   "point": [1e16, 0.0, -2.0]}))
@example(request=(["apply", "-"], {"profile": {"S": [[-1.0]]}, "phi": {"beta0": [1.0]},
                                   "point": [1e300, 1.0, 0.0]}))
@example(request=(["compose", "-"], {"profile": {"S": [[-1.0]]}, "phi": {"beta0": [1.0]},
                                     "psi": {"c": 1e300}}))
@example(request=(["compose", "-"], {"profile": {"S": [[1.0]]}, "phi": {"s": 354.0},
                                     "psi": {"b": 100.0}}))
def test_fuzzed_payloads_keep_the_cli_contract(request):
    """Whatever the payload, main returns a documented exit code with no
    exception: on 0 or 1 strict JSON on stdout and nothing on stderr, on 2
    or 3 nothing on stdout and one JSON error document on stderr."""
    argv, payload = request
    out, err = io.StringIO(), io.StringIO()
    with mock.patch("sys.stdin", io.StringIO(json.dumps(payload))), \
            redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 2, 3)
    if code in (0, 1):
        assert err.getvalue() == ""
        json.loads(out.getvalue(), parse_constant=_reject_constant)
    else:
        assert out.getvalue() == ""
        error = _error(err.getvalue())
        assert error["kind"] and error["detail"]
