import json
import math

import numpy as np
import pytest

from qboson import algebra, cli, cmatrix
from qboson import (
    AlgebraConfig,
    annihilation,
    clock,
    cyclic_shift,
    dag,
    matrix_from_dict,
    phase_state,
    vector_from_dict,
)

from cli_harness import run_cli, run_python

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
        assert set(BUILD_OP_FIELDS) == set(cli.BUILD_OPS)
        target = tmp_path / "op.json"
        for k in ks:
            ops = algebra.build_operator_set(AlgebraConfig(s, k=k))
            for op, field in BUILD_OP_FIELDS.items():
                argv = ["build", "--s", str(s), "--k", str(k), "--op", op, "--out", str(target)]
                assert cli.main(argv) == 0
                got = matrix_from_dict(json.loads(target.read_text()))
                want = getattr(ops, field)
                assert got.tobytes() == want.tobytes(), (k, op)

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
        # a cold process whose products stay below the break-even never loads it
        code = ("import sys, qboson; qboson.run_all(qboson.AlgebraConfig({s})); "
                "print('numpy.fft' in sys.modules)")
        for s, loaded in ((5, "False"), (cmatrix._FFT_MIN_DIM - 2, "False"),
                          (cmatrix._FFT_MIN_DIM - 1, "True")):
            proc = run_python("-c", code.format(s=s))
            assert proc.returncode == 0 and proc.stdout.strip() == loaded, (s, proc.stderr)


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

    def test_failed_construction_self_check_exit_one(self, monkeypatch, capsys):
        # the phase-brace self-check raises ArithmeticError when its two
        # construction routes disagree; main reports it without a traceback
        monkeypatch.setattr(algebra, "max_abs_diff", lambda a, b: float("inf"))
        assert cli.main(["verify", "--s", "5"]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("qboson: error: phase-brace construction routes disagree")


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
        monkeypatch.setitem(cli.BUILD_OPS, "f", self._no_memory)
        assert cli.main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("qboson: error: ") and err.count("\n") == 1
        assert cutoff in err


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
