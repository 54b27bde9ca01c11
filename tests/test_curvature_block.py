"""Curvature in block form: riemann and weyl against the dense
Kulkarni-Nomizu product, and the CLI's JSON text of them against
json.dumps of the dense array, byte for byte."""

import contextlib
import io
import json
import os
import tempfile
import tracemalloc
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, given, settings
from hypothesis import strategies as st

from cwgeom import cli, serialize
from cwgeom.cli import main
from cwgeom.core import SymmetricProfile, classify
from cwgeom.curvature import (
    CurvatureTensor4,
    cotton,
    dt_squared,
    ricci,
    riemann,
    scalar,
    schouten,
    weyl,
)

from conftest import random_profile
from oracles import kulkarni_nomizu, riemann_symmetry_defect, x_block_form


def dense_riemann(prof):
    return -1.0 * kulkarni_nomizu(x_block_form(prof.n, prof.S), dt_squared(prof.n))


def dense_weyl(prof):
    n = prof.n
    M = (np.trace(prof.S) / n) * np.eye(n) - prof.S
    return kulkarni_nomizu(x_block_form(n, M), dt_squared(n))


def dense_stdout(S, fmt):
    """What `cwgeom curvature` prints, from the dense arrays and .tolist()."""
    prof = SymmetricProfile(S)
    payload = {
        "riemann": dense_riemann(prof).tolist(),
        "ricci": ricci(prof).tolist(),
        "scalar": scalar(prof),
        "schouten": schouten(prof).tolist(),
        "weyl": dense_weyl(prof).tolist(),
        "cotton_max_abs": float(np.max(np.abs(cotton(prof)))),
        "frame": "t, x_1..x_n, v",
    }
    return json.dumps(payload, indent=2 if fmt == "pretty" else None,
                      sort_keys=True) + "\n"


def cli_outputs(text, fmt):
    """(stdout, --output file contents) of `cwgeom curvature` on the
    profile JSON text."""
    with tempfile.TemporaryDirectory() as tmp:
        src, dst = os.path.join(tmp, "in.json"), os.path.join(tmp, "out.json")
        with open(src, "w", encoding="utf-8") as fh:
            fh.write(text)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["curvature", src, "--format", fmt]) == 0
        assert main(["curvature", src, "--format", fmt, "--output", dst]) == 0
        with open(dst, encoding="utf-8") as fh:
            return out.getvalue(), fh.read()


class WriteLog:
    """A text stream that records the length of every write to it."""

    def __init__(self, fh):
        self.fh, self.sizes = fh, []

    def write(self, text):
        self.sizes.append(len(text))
        return self.fh.write(text)

    def __getattr__(self, name):
        return getattr(self.fh, name)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


def assert_same_bytes(S, fmt):
    text = json.dumps({"S": S})
    want = dense_stdout(json.loads(text)["S"], fmt)
    stdout, written = cli_outputs(text, fmt)
    assert stdout == want
    assert written == want


TYPES = {"real": (1,), "imaginary": (-1,), "mixed": (1, -1), "degenerate": (0, 1, -1)}


@st.composite
def profile_matrices(draw):
    """S of each type, n in {1, 2, 3, 5}: diagonal with +-0.0 off the
    diagonal, or rotated by a random orthogonal matrix; eigenvalues from a
    short list, so that repeated ones are common."""
    n = draw(st.sampled_from([1, 2, 3, 5]))
    kind = draw(st.sampled_from(sorted(TYPES)))
    signs = draw(st.lists(st.sampled_from(TYPES[kind]), min_size=n, max_size=n))
    if kind == "degenerate":
        signs[0] = 0
    assume(kind != "mixed" or {1, -1} <= set(signs))
    mags = draw(st.lists(st.sampled_from([0.5, 1.0, 2.0, 3.25, 1e-3, 7.0]),
                         min_size=n, max_size=n))
    lam = [s * m if s else draw(st.sampled_from([0.0, -0.0]))
           for s, m in zip(signs, mags)]
    if draw(st.booleans()):
        S = np.diag(lam)
        for i in range(n):
            for j in range(i + 1, n):
                S[i, j] = S[j, i] = draw(st.sampled_from([0.0, -0.0]))
    else:
        seed = draw(st.integers(0, 2**32 - 1))
        Q, _ = np.linalg.qr(np.random.default_rng(seed).normal(size=(n, n)))
        S = Q @ np.diag(lam) @ Q.T
        S = 0.5 * (S + S.T)
    return kind, S.tolist()


class TestBlockAgainstDense:
    def test_components_equal_dense_product(self, rng):
        for n in (1, 2, 3, 5):
            prof = random_profile(rng, n)
            for block, dense in ((riemann(prof), dense_riemann(prof)),
                                 (weyl(prof), dense_weyl(prof))):
                assert np.array_equal(block.components, dense)
                assert np.array_equal(np.signbit(block.components), np.signbit(dense))

    def test_reductions_equal_dense(self, rng):
        for n in (1, 2, 3, 5):
            prof = random_profile(rng, n)
            for T in (riemann(prof), weyl(prof)):
                # the block is exactly symmetric, so the dense tensor has
                # every Riemann symmetry exactly
                assert riemann_symmetry_defect(T.components) == 0.0
                assert T.max_abs() == np.max(np.abs(T.components))


class TestCurvatureJson:
    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(profile_matrices(), st.sampled_from(["json", "pretty"]))
    def test_cli_bytes_equal_dense_json(self, case, fmt):
        kind, S = case
        assert classify(SymmetricProfile(S)).type == kind
        assert_same_bytes(S, fmt)

    @pytest.mark.parametrize("S", [
        [[-1.0, -0.0], [-0.0, -1.0]],
        [[2.0, 0.0, 0.0], [0.0, -1.0, 0.0], [0.0, 0.0, 0.0]],
        [[0.0]],
        [[-0.0]],
        [[5e-324, 1e-310], [1e-310, -2e-320]],
        [[1.0, 2.0], [2.0, 4.0]],
    ], ids=["minus-identity", "diag", "zero", "minus-zero", "subnormal", "rank-1"])
    @pytest.mark.parametrize("fmt", ["json", "pretty"])
    def test_cli_bytes_pinned(self, S, fmt):
        assert_same_bytes(S, fmt)

    def test_cli_bytes_n32(self):
        A = np.random.default_rng(32).normal(size=(32, 32))
        S = (0.5 * (A + A.T)).tolist()
        for fmt in ("json", "pretty"):
            assert_same_bytes(S, fmt)


class TestCost:
    def test_riemann_and_weyl_build_no_dense_array(self, rng):
        """Neither building the tensor nor reading its dense components
        leaves an (n+2)^4 array on it: each read builds a fresh array, which
        dies with the caller's last reference, and two reads agree bit for
        bit."""
        prof = random_profile(rng, 32)
        for T in (riemann(prof), weyl(prof)):
            assert T.block.shape == (32, 32)
            assert "components" not in vars(T)
            R = T.components
            assert "components" not in vars(T)
            again = T.components
            assert np.array_equal(R, again)
            assert np.array_equal(np.signbit(R), np.signbit(again))
            ref = weakref.ref(R)
            del R, again
            assert ref() is None

    def test_components_build_one_dense_array(self, rng):
        prof = random_profile(rng, 32)
        T = riemann(prof)
        tracemalloc.start()
        try:
            R = T.components
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * R.nbytes

    def test_cli_streams_curvature_in_slices(self, tmp_path, monkeypatch):
        """At n = 32 neither stdout nor the --output file sees a write over
        1 MB, every write but the last is serialize.OUTPUT_BLOCK long, and
        the text is still json.dumps of the dense arrays."""
        A = np.random.default_rng(32).normal(size=(32, 32))
        S = (0.5 * (A + A.T)).tolist()
        src = tmp_path / "p.json"
        src.write_text(json.dumps({"S": S}))
        files = []

        def logged_open(*args, **kwargs):
            files.append(WriteLog(open(*args, **kwargs)))
            return files[-1]

        monkeypatch.setattr(cli, "open", logged_open, raising=False)
        for fmt in ("json", "pretty"):
            want = dense_stdout(S, fmt)
            out = WriteLog(io.StringIO())
            with contextlib.redirect_stdout(out):
                assert main(["curvature", str(src), "--format", fmt]) == 0
            dst = tmp_path / f"out.{fmt}"
            assert main(["curvature", str(src), "--format", fmt, "--output", str(dst)]) == 0
            assert out.fh.getvalue() == want
            assert dst.read_text(encoding="utf-8") == want
            for log in (out, files[-1]):
                assert sum(log.sizes) == len(want)
                assert max(log.sizes) <= 2**20
                assert set(log.sizes[:-1]) == {serialize.OUTPUT_BLOCK}

    def test_cli_never_builds_a_dense_tensor(self, tmp_path, monkeypatch):
        def refuse(self):
            raise AssertionError("dense 4-tensor built")

        monkeypatch.setattr(CurvatureTensor4, "components", property(refuse))
        A = np.random.default_rng(7).normal(size=(32, 32))
        src = tmp_path / "p.json"
        src.write_text(json.dumps({"S": (0.5 * (A + A.T)).tolist()}))
        for fmt in ("json", "pretty"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["curvature", str(src), "--format", fmt]) == 0
            assert len(json.loads(out.getvalue())["weyl"]) == 34
