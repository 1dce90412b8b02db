import gc
import json
import math
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from qboson import algebra, cli, cmatrix, verify
from qboson import (
    AlgebraConfig,
    annihilation,
    clock,
    cyclic_shift,
    dag,
    matrix_from_dict,
    phase_state,
    q_number,
    run_all,
    vector_from_dict,
)

from cli_harness import run_cli, run_python, start_cli

# a cutoff whose s+1 is too large for a float
S_TOO_LARGE_FOR_A_FLOAT = "1" + "0" * 400

# the OperatorSet field each build op exports
BUILD_OP_FIELDS = {
    "a": "a", "adag": "a_dag", "n": "n_op", "g": "g", "h": "h", "hdag": "h_dag",
    "f": "fourier", "bigh": "big_h", "atilde": "a_tilde", "atildedag": "a_tilde_dag",
    "ntilde": "n_tilde", "braceHdag": "brace_hdag", "braceHdag1": "brace_hdag1",
    "sqrtBraceHdag": "sqrt_brace_hdag", "sqrtBraceHdag1": "sqrt_brace_hdag1",
}


class TestBuild:
    def test_bigh_is_permutation(self):
        proc = run_cli("build", "--s", "2", "--op", "bigh")
        assert proc.returncode == 0
        mat = matrix_from_dict(json.loads(proc.stdout))
        np.testing.assert_array_equal(mat, cyclic_shift(AlgebraConfig(2)))

    def test_number_operator(self):
        proc = run_cli("build", "--s", "2", "--op", "n")
        assert proc.returncode == 0
        mat = matrix_from_dict(json.loads(proc.stdout))
        np.testing.assert_array_equal(mat, np.diag([0, 1, 2]).astype(complex))

    def test_invalid_s(self):
        assert run_cli("build", "--s", "1", "--op", "a").returncode == 2

    def test_unknown_op(self):
        assert run_cli("build", "--s", "2", "--op", "bogus").returncode == 2

    def test_non_coprime_k(self):
        assert run_cli("build", "--s", "3", "--k", "2", "--op", "a").returncode == 2

    @pytest.mark.parametrize("op", list(BUILD_OP_FIELDS))
    def test_every_operator_builds(self, op):
        proc = run_cli("build", "--s", "4", "--op", op)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["dim"] == 5

    @pytest.mark.parametrize("s, ks", [(4, (1, -1, 2, 3, 7)), (47, (1, -1, 7)),
                                       (48, (1, -1, 2, 3)), (64, (1, -1, 2, 7)),
                                       (128, (1, -1, 2, 5)), (256, (-1,))])
    def test_exports_are_the_verified_operators(self, s, ks, tmp_path):
        # each export equals, bit for bit, the field of the operator set
        # that run_all verifies
        assert BUILD_OP_FIELDS == cli.BUILD_OPS
        target = tmp_path / "op.json"
        for k in ks:
            ops = algebra.build_operator_set(AlgebraConfig(s, k=k))
            for op, field in BUILD_OP_FIELDS.items():
                argv = ["build", "--s", str(s), "--k", str(k), "--op", op, "--out", str(target)]
                assert cli.main(argv) == 0
                got = matrix_from_dict(json.loads(target.read_text()))
                want = getattr(ops, field)
                assert got.tobytes() == want.tobytes(), (k, op)

    @staticmethod
    def _constructs(*_args, **_kwargs):
        raise AssertionError("an export after run_all constructed an operator")

    @pytest.mark.parametrize("s, ks", [(4, (1, -1, 2, 3)), (128, (1, -1, 2, 5)),
                                       (129, (1, -1, 3, 7))])
    def test_exports_after_run_all_construct_nothing(self, monkeypatch, tmp_path, s, ks):
        # after run_all each export reads the field of the set it verified:
        # no Fourier matrix and no second set is built
        target = tmp_path / "op.json"
        for k in ks:
            cfg = AlgebraConfig(s, k=k)
            run_all(cfg)
            ops = algebra.build_operator_set(cfg)
            with monkeypatch.context() as patched:
                for name in ("fourier", "_build_operator_set"):
                    patched.setattr(algebra, name, self._constructs)
                for op, field in BUILD_OP_FIELDS.items():
                    argv = ["build", "--s", str(s), "--k", str(k), "--op", op, "--out", str(target)]
                    assert cli.main(argv) == 0
                    got = matrix_from_dict(json.loads(target.read_text()))
                    assert got.tobytes() == getattr(ops, field).tobytes(), (k, op)

    @pytest.mark.parametrize("s", [4, 129])
    def test_exports_keep_no_formed_matrix_in_the_set(self, tmp_path, s):
        # an export forms its matrix from the stored structure without keeping
        # it: of what the package allocates during the fifteen exports, less
        # than one d x d matrix is still held after them (a set that kept its
        # ten formed column maps would hold ten)
        cfg = AlgebraConfig(s)
        run_all(cfg)
        target = tmp_path / "op.json"
        exports = {}
        package = str(Path(cmatrix.__file__).parent / "*")
        gc.collect()
        tracemalloc.start()
        try:
            for op, field in BUILD_OP_FIELDS.items():
                assert cli.main(["build", "--s", str(s), "--op", op, "--out", str(target)]) == 0
                exports[field] = target.read_text()
            gc.collect()
            traces = tracemalloc.take_snapshot().filter_traces([tracemalloc.Filter(True, package)])
        finally:
            tracemalloc.stop()
        held = sum(stat.size for stat in traces.statistics("filename"))
        assert held < 16 * cfg.dim**2, held
        ops = algebra.build_operator_set(cfg)
        assert all(matrix_from_dict(json.loads(text)).tobytes() == getattr(ops, field).tobytes()
                   for field, text in exports.items())

    def test_out_file_keeps_stdout_clean(self, tmp_path):
        target = tmp_path / "a.json"
        proc = run_cli("build", "--s", "5", "--op", "a", "--out", str(target))
        assert proc.returncode == 0
        assert proc.stdout == ""
        mat = matrix_from_dict(json.loads(target.read_text()))
        np.testing.assert_array_equal(mat, annihilation(AlgebraConfig(5)))

    def test_unwritable_out_is_io_error(self):
        proc = run_cli("build", "--s", "2", "--op", "a", "--out", "/nonexistent/dir/a.json")
        assert proc.returncode == 3

    def test_roundtrip_is_bit_exact(self, tmp_path):
        target = tmp_path / "f.json"
        assert run_cli("build", "--s", "7", "--k", "3", "--op", "f", "--out", str(target)).returncode == 0
        first = target.read_text()
        reparsed = json.dumps(json.loads(first))
        assert json.loads(reparsed) == json.loads(first)
        mat = matrix_from_dict(json.loads(first))
        from qboson import fourier
        np.testing.assert_array_equal(mat, fourier(AlgebraConfig(7, k=3)))


    def test_numpy_fft_is_imported_by_the_first_routed_product_only(self):
        # import qboson does not load numpy.fft, and the first product with
        # F†, an FFT at every d, does
        code = ("import sys, qboson; from qboson import cmatrix; loaded = [];"
                "cfg = qboson.AlgebraConfig({s}); f = qboson.fourier(cfg);"
                "loaded.append('numpy.fft' in sys.modules);"
                "cmatrix._CLOSED.mul(f, cmatrix._Dft(cfg.k, cfg.dim));"
                "loaded.append('numpy.fft' in sys.modules); print(*loaded)")
        for s in (2, 5, 126, 127, 256):
            proc = run_python("-c", code.format(s=s))
            assert proc.returncode == 0 and proc.stdout.strip() == "False True", (s, proc.stderr)


class TestVerify:
    def test_pass_exit_zero(self, tmp_path):
        proc = run_cli("verify", "--s", "5", cwd=tmp_path)
        assert proc.returncode == 0
        assert "overall: PASS (14/14)" in proc.stdout
        assert len([l for l in proc.stdout.splitlines() if "dev=" in l]) == 14
        assert list(tmp_path.iterdir()) == []  # verify never writes files

    def test_json_report(self):
        proc = run_cli("verify", "--s", "5", "--json")
        assert proc.returncode == 0
        doc = json.loads(proc.stdout)
        assert doc["s"] == 5
        assert doc["overall_pass"] is True
        assert len(doc["checks"]) == 14

    def test_large_cutoff_json_is_valid(self):
        proc = run_cli("verify", "--s", "512", "--json")
        assert proc.returncode == 0, proc.stderr

        def reject(constant):
            raise ValueError(f"non-finite JSON constant {constant}")

        doc = json.loads(proc.stdout, parse_constant=reject)
        assert doc["s"] == 512 and doc["overall_pass"] is True

    def test_root_index_beyond_int64_exit_zero(self):
        proc = run_cli("verify", "--s", "4", "--k", "100000000000000000001")
        assert proc.returncode == 0, proc.stderr
        assert "overall: PASS (14/14)" in proc.stdout

    def test_unreachable_tolerance_exit_one(self):
        assert run_cli("verify", "--s", "5", "--tol", "1e-30").returncode == 1

    def test_invalid_s_exit_two(self):
        assert run_cli("verify", "--s", "0").returncode == 2

    @pytest.mark.parametrize("tol", ["inf", "nan"])
    def test_non_finite_tolerance_exit_two(self, tol):
        proc = run_cli("verify", "--s", "5", "--tol", tol)
        assert proc.returncode == 2
        assert proc.stdout == ""

    @pytest.mark.parametrize("output", [[], ["--json"]], ids=["text", "json"])
    def test_overflowing_threshold_exit_two(self, output):
        # tol is finite, but tol*(s+1) is not
        proc = run_cli("verify", "--s", "5", "--tol", "1e308", *output)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr.startswith("qboson: error: ")

    @pytest.mark.parametrize("command", [
        ["verify", "--s", S_TOO_LARGE_FOR_A_FLOAT],
        ["build", "--op", "a", "--s", S_TOO_LARGE_FOR_A_FLOAT],
        ["spectrum", "--op", "g", "--s", S_TOO_LARGE_FOR_A_FLOAT],
    ], ids=["verify", "build", "spectrum"])
    def test_cutoff_too_large_for_a_float_exit_two(self, command):
        # s+1 itself overflows a float in tol*(s+1): bad input, not a failed check
        proc = run_cli(*command)
        assert proc.returncode == 2
        assert proc.stdout == ""
        assert proc.stderr == "qboson: error: tol=1e-09 overflows the threshold tol*(s+1)\n"

    def test_corrupted_phase_brace_exit_one(self, monkeypatch, capsys):
        # a broken phase brace is a failed check, reported by eq19 on stdout
        quotients = algebra._band_quotients

        def altered(*args):
            out = quotients(*args)
            out[0][1] += 1e-3
            return out

        monkeypatch.setattr(algebra, "_band_quotients", altered)
        monkeypatch.setattr(algebra, "_last_set", None)
        assert cli.main(["verify", "--s", "5"]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        assert [line.split()[0] for line in out.splitlines() if line.endswith("FAIL")] == [
            "eq19_polar"]


class TestMemory:
    # a cutoff whose d x d operators cannot be allocated is too large an
    # input, not a failed check: one error line that names s, and exit 2.
    # The builders are patched to raise, so nothing large is allocated
    @staticmethod
    def _no_memory(*_args, **_kwargs):
        raise MemoryError()

    @pytest.mark.parametrize("argv, cutoff", [
        (["build", "--op", "f", "--s", "200000"], "s=200000"),
        (["verify", "--s", "200000"], "s=200000"),
        (["sweep", "--s-min", "2", "--s-max", "200000"], "s in [2, 200000]"),
    ])
    def test_cutoff_too_large_for_memory_exit_two(self, monkeypatch, capsys, argv, cutoff):
        monkeypatch.setattr(algebra, "fourier", self._no_memory)
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("qboson: error: ") and err.count("\n") == 1
        assert cutoff in err

    @pytest.mark.parametrize("argv", [
        ["verify", "--s", "1000000000000"],
        ["build", "--op", "a", "--s", "1000000000000"],
    ], ids=["verify", "build"])
    def test_fourier_fails_before_the_scalar_tables(self, monkeypatch, capsys, argv):
        # the q-integer tables loop in Python over d entries; at a cutoff too
        # large for memory the d x d Fourier matrix must fail first
        def no_tables(_cfg):
            raise AssertionError("q-integer tables built before the Fourier matrix")

        monkeypatch.setattr(algebra, "fourier", self._no_memory)
        monkeypatch.setattr(algebra, "_q_tables", no_tables)
        assert cli.main(argv) == 2
        assert "s=1000000000000" in capsys.readouterr().err


class TestSweep:
    def test_range_pass(self, tmp_path):
        proc = run_cli("sweep", "--s-min", "2", "--s-max", "8", cwd=tmp_path)
        assert proc.returncode == 0
        assert "passed 7/7" in proc.stdout
        assert list(tmp_path.iterdir()) == []  # sweep never writes files

    def test_bad_range(self):
        assert run_cli("sweep", "--s-min", "10", "--s-max", "9").returncode == 2

    def test_skips_cutoffs_where_k_is_not_coprime(self):
        proc = run_cli("sweep", "--s-min", "2", "--s-max", "9", "--k", "2")
        assert proc.returncode == 0, proc.stderr
        assert [line.split()[0] for line in proc.stdout.splitlines()[:-1]] == [
            "s=2", "s=4", "s=6", "s=8"]
        assert "passed 4/4" in proc.stdout

    def test_no_admissible_cutoff_exit_two(self):
        proc = run_cli("sweep", "--s-min", "3", "--s-max", "3", "--k", "2")
        assert proc.returncode == 2
        assert proc.stdout == ""

    def test_json_single(self):
        proc = run_cli("sweep", "--s-min", "2", "--s-max", "2", "--json")
        assert proc.returncode == 0
        docs = json.loads(proc.stdout)
        assert isinstance(docs, list) and len(docs) == 1
        assert docs[0]["s"] == 2

    @pytest.mark.parametrize("s_max", [10, 1000000])
    def test_text_lines_are_written_as_each_report_completes(self, monkeypatch, capsys, s_max):
        # the second report fails to complete: the first one's line is
        # already written, and no configuration list of the range was built
        class Stop(Exception):
            pass

        run_all, cutoffs = verify.run_all, []

        def second_raises(cfg):
            cutoffs.append(cfg.s)
            if len(cutoffs) == 2:
                raise Stop
            return run_all(cfg)

        monkeypatch.setattr(verify, "run_all", second_raises)
        with pytest.raises(Stop):
            cli.main(["sweep", "--s-min", "2", "--s-max", str(s_max)])
        assert capsys.readouterr().out == "s=2   PASS (14/14)\n"
        assert cutoffs == [2, 3]


class TestSpectrum:
    def test_brace_values_s2(self):
        proc = run_cli("spectrum", "--s", "2", "--op", "braceHdag")
        assert proc.returncode == 0
        assert proc.stdout.strip() == "0, 1, -1"

    def test_clock_values_s2(self):
        proc = run_cli("spectrum", "--s", "2", "--op", "g")
        assert proc.returncode == 0
        parts = proc.stdout.strip().split(", ")
        assert parts[0] == "1"
        assert parts[1].startswith("-0.5+0.866") and parts[1].endswith("j")

    def test_shifted_brace_values_s2(self):
        proc = run_cli("spectrum", "--s", "2", "--op", "braceHdag1")
        assert proc.stdout.strip() == "1, -1, 0"

    def test_unsupported_operator(self):
        assert run_cli("spectrum", "--s", "2", "--op", "a").returncode == 2

    @pytest.mark.parametrize("s", range(2, 17))
    def test_clock_spectra_are_the_clock_diagonals(self, s, capsys):
        # g is the clock and bigh's eigenvalues are those of its adjoint
        for k in (k for k in range(1, s + 1) if math.gcd(k, s + 1) == 1):
            g = clock(AlgebraConfig(s, k=k))
            for op, diagonal in (("g", g.diagonal()), ("bigh", dag(g).diagonal())):
                assert cli.main(["spectrum", "--s", str(s), "--k", str(k), "--op", op]) == 0
                want = ", ".join(cli._fmt_scalar(complex(z)) for z in diagonal)
                assert capsys.readouterr().out.strip() == want, (k, op)

    def test_clock_spectrum_reads_the_root_table(self, capsys):
        # q^3 at s=3 is -i; the table holds cos(-pi/2) as its real part, not
        # the rounding of the product q**3
        assert cli.main(["spectrum", "--s", "3", "--op", "g"]) == 0
        assert capsys.readouterr().out.strip().split(", ")[3] == "6.12323399574e-17-1j"

    # k with sin(2 pi k / (s+1)) < 0, where q_number gives -0.0 for a zero
    # q-integer
    @pytest.mark.parametrize("op, offset", [("braceHdag", 0), ("braceHdag1", 1)])
    @pytest.mark.parametrize("s, k", [(4, -1), (4, 3), (6, -1), (6, 4), (7, 5), (10, -3)])
    def test_no_part_prints_as_negative_zero(self, capsys, op, offset, s, k):
        cfg = AlgebraConfig(s, k=k)
        assert math.sin(2 * math.pi * k / cfg.dim) < 0
        assert cli.main(["spectrum", "--s", str(s), "--k", str(k), "--op", op]) == 0
        printed = capsys.readouterr().out.strip().split(", ")
        assert "-0" not in printed
        np.testing.assert_allclose([float(x) for x in printed],
                                   [q_number(n + offset, cfg) for n in range(cfg.dim)],
                                   rtol=0, atol=1e-11)


class TestPhaseStates:
    def test_vectors_orthonormal(self):
        proc = run_cli("phase-states", "--s", "2")
        assert proc.returncode == 0
        vecs = np.column_stack([vector_from_dict(doc) for doc in json.loads(proc.stdout)])
        assert vecs.shape == (3, 3)
        gram = dag(vecs) @ vecs
        assert np.max(np.abs(gram - np.eye(3))) < 1e-12
        np.testing.assert_allclose(vecs[:, 0], np.full(3, 1 / np.sqrt(3)), atol=1e-15)

    def test_out_file(self, tmp_path):
        target = tmp_path / "states.json"
        proc = run_cli("phase-states", "--s", "3", "--out", str(target))
        assert proc.returncode == 0
        assert proc.stdout == ""
        assert len(json.loads(target.read_text())) == 4

    def test_states_are_the_fourier_columns(self):
        cfg = AlgebraConfig(6, k=5)
        proc = run_cli("phase-states", "--s", "6", "--k", "5")
        assert proc.returncode == 0
        for m, doc in enumerate(json.loads(proc.stdout)):
            got = vector_from_dict(doc)
            assert got.tobytes() == phase_state(m, cfg).tobytes()

    def test_io_failure(self):
        assert run_cli("phase-states", "--s", "2", "--out", "/nonexistent/x.json").returncode == 3


def test_missing_subcommand_is_usage_error():
    assert run_cli().returncode == 2


@pytest.mark.parametrize("args, read", [
    (("sweep", "--s-min", "2", "--s-max", "1000000"), lambda out: out.readline()),
    (("build", "--s", "64", "--op", "f"), lambda out: out.read(10)),
], ids=["sweep", "build"])
def test_a_reader_that_closes_the_pipe_gets_exit_three_and_no_message(tmp_path, args, read):
    # the write failed, so the exit code is 3, but the reader has left and
    # there is nothing to tell: stderr stays empty, the final flush included
    with open(tmp_path / "stderr", "w+b") as stderr:
        proc = start_cli(*args, stderr=stderr)
        try:
            assert read(proc.stdout)
            proc.stdout.close()
            assert proc.wait(timeout=60) == 3
        finally:
            proc.kill()
            proc.wait()
        stderr.seek(0)
        assert stderr.read() == b""
