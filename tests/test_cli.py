import inspect
import json
import math
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

import pytest

from conftest import canonical, run_cli
from selfsimspec import cli, errors, spectral

GOLDEN = Path(__file__).parent / "golden"

# The 13 exception classes, and for each command a call on its path to raise them from.
ERRORS = [cls for _, cls in inspect.getmembers(errors, inspect.isclass)
          if cls.__module__ == errors.__name__]
RAISE_IN = {
    "weight": (cli, "weight_truncation"),
    "matrix": (cli, "section"),
    "spectrum": (spectral, "solve_pencil"),
    "asymptotics": (spectral, "_window_slice"),
    "verify": (spectral, "fixed_point_residual"),
}

# Invocations whose output is frozen byte for byte in tests/golden.
GOLDENS = [
    (("weight", "--a", "0.5", "--d", "0.5", "--beta1", "0", "--beta2", "1",
      "--n", "3", "--format", "csv"), "weight_n3.csv"),
    (("matrix", "--kind", "ABinv", "--n", "3"), "matrix_abinv_n3.json"),
    (("spectrum", "--n", "2", "--formulation", "fem"), "spectrum_n2.json"),
    (("spectrum", "--n", "2", "--format", "csv"), "spectrum_n2.csv"),
    (("asymptotics", "--n", "40", "--window", "12:20", "--format", "csv"),
     "asymptotics_n40_w12_20.csv"),
    (("asymptotics", "--d", "-0.5", "--n", "30"), "asymptotics_indefinite_n30.json"),
    (("weight", "--n", "4"), "weight_n4.json"),
    (("matrix", "--kind", "B", "--n", "4", "--format", "csv"), "matrix_b_n4.csv"),
]


class TestGoldenFiles:
    def test_weight_csv(self):
        code, out, _ = run_cli(
            "weight", "--a", "0.5", "--d", "0.5", "--beta1", "0", "--beta2", "1",
            "--n", "3", "--format", "csv",
        )
        assert code == 0
        assert out == (GOLDEN / "weight_n3.csv").read_text()

    def test_matrix_abinv_json(self):
        code, out, _ = run_cli("matrix", "--kind", "ABinv", "--n", "3")
        assert code == 0
        assert out == (GOLDEN / "matrix_abinv_n3.json").read_text()
        # the frozen bytes encode the known section, not arbitrary output
        assert json.loads(out)["rows"] == [
            [3.0, -4.0, 0.0],
            [-2.0, 12.0, -16.0],
            [0.0, -8.0, 48.0],
        ]

    def test_spectrum_json(self):
        code, out, _ = run_cli("spectrum", "--n", "2", "--formulation", "fem")
        assert code == 0
        assert out == (GOLDEN / "spectrum_n2.json").read_text()
        got = json.loads(out)["eigenvalues"]
        want = [11.0 - math.sqrt(57.0), 11.0 + math.sqrt(57.0)]
        assert abs(got[0] - want[0]) <= 1e-12 * want[0]
        assert abs(got[1] - want[1]) <= 1e-12 * want[1]

    def test_spectrum_csv(self):
        code, out, _ = run_cli("spectrum", "--n", "2", "--format", "csv")
        assert code == 0
        assert out == (GOLDEN / "spectrum_n2.csv").read_text()

    # the first four have their own tests above, which also check the values
    @pytest.mark.parametrize("argv,name", GOLDENS[4:], ids=[name for _, name in GOLDENS[4:]])
    def test_golden(self, argv, name):
        code, out, _ = run_cli(*argv)
        assert code == 0
        assert out == (GOLDEN / name).read_text()


class TestExitCodes:
    def test_success_is_zero(self):
        code, _, _ = run_cli("spectrum", "--n", "4")
        assert code == 0

    def test_verification_failure_is_one(self, monkeypatch):
        """A fixed-point residual far above its bound: the command must say
        so and exit 1."""
        monkeypatch.setattr(spectral, "fixed_point_residual", lambda params, depth: 1.0)
        code, out, _ = run_cli("verify", "--n", "8")
        assert code == 1
        assert "FAIL fixed-point residual" in out
        assert "PASS" in out  # the relative checks still hold

    @pytest.mark.parametrize(
        "argv,needle",
        [
            (("weight", "--a", "1.5"), "a out of (0,1)"),
            (("weight", "--a", "0.5", "--d", "2"), "contraction"),
            (("matrix", "--kind", "sym", "--n", "0"), "order must be >= 1"),
            (("asymptotics", "--n", "10", "--window", "50:60"), "empty window"),
            (("asymptotics", "--n", "10", "--window", "5"), "window"),
            (("spectrum", "--n", "2", "--count", "5"), "count"),
            # verify runs one fixed suite and has no --formulation flag
            (
                ("verify", "--d", "-0.5", "--formulation", "jacobi"),
                "unrecognized arguments: --formulation jacobi",
            ),
            # within the range guard, beyond the Green route's memory budget
            (
                ("spectrum", "--a", "0.99", "--d", "0.99", "--n", "20000",
                 "--formulation", "green"),
                "order 20000 exceeds",
            ),
            # within the range guard (33220), beyond the dense sections' memory budget
            (
                ("matrix", "--kind", "A", "--a", "0.99", "--d", "0.99", "--n", "33000"),
                "section order 33000 exceeds 8192",
            ),
            # verify prints PASS/FAIL lines and has no --format flag
            (("verify", "--format", "json"), "unrecognized arguments: --format json"),
            # a window bound that is not an integer
            (("asymptotics", "--n", "10", "--window", "1:x"), "with integer bounds"),
        ],
    )
    def test_validation_failures_are_two(self, argv, needle):
        code, _, err = run_cli(*argv)
        assert code == 2
        assert needle in err

    def test_numerical_failure_is_three(self):
        code, _, err = run_cli("matrix", "--kind", "ABinv", "--n", "500")
        assert code == 3
        assert err.startswith("RangeOverflow")

    @pytest.mark.parametrize("kind", ["K", "M", "green"])
    def test_weight_matrices_beyond_the_guard_are_three(self, kind):
        n = str(canonical().max_order + 1)  # 482
        code, out, err = run_cli("matrix", "--kind", kind, "--n", n)
        assert code == 3
        assert out == ""
        assert err.startswith("RangeOverflow")

    @pytest.mark.parametrize("command", ["weight", "spectrum", "verify"])
    def test_overflowing_masses_are_three(self, command):
        """m_5 = 5e307 * 1.5^4 leaves double range, so max_order is 4. The order is refused
        before the arrays exist, so no RuntimeWarning (an error under the pytest
        configuration) comes before the exit 3: by the weight's own mass check, by the range
        guard, and in verify, which runs at max_order, by the plateau values v_k = 1e308 +
        the masses up to k."""
        code, out, err = run_cli(
            command, "--a", "0.2", "--d", "1.5", "--beta1", "1e308", "--beta2", "0", "--n", "5"
        )
        assert code == 3
        assert out == ""
        assert err.startswith({
            "weight": "RangeOverflow: masses overflow",
            "spectrum": "RangeOverflow: order 5 beyond the range guard 4",
            "verify": "RangeOverflow: plateau values overflow at depth 4",
        }[command])

    @pytest.mark.parametrize("argv", [
        ("--a", "0.5", "--d", "1.2", "--beta1", "0", "--beta2", "1e300", "--n", "996"),
        ("--a", "0.2", "--d", "-1.5", "--beta1", "0.3", "--beta2", "1e305", "--n", "100"),
        ("--beta2", "1e-200", "--n", "481"),
    ])
    def test_verify_at_the_range_guard(self, argv):
        """max_order once counted only masses underflowing to 0: at (0.5, 1.2, 0, 1e300) it
        read 996, but the masses overflow from order 106, and at (0.2, -1.5, 0.3, 1e305) from
        20, so verify exited 3 on them. At beta2 = 1e-200 W G W underflowed and the Cholesky
        of the green line refused it at order 411 until solve_green scaled the masses."""
        code, out, err = run_cli("verify", *argv)
        assert code == 0, out + err
        assert len(out.strip().split("\n")) == 6 and "FAIL" not in out

    @pytest.mark.parametrize(
        "argv",
        [
            ("weight",),
            ("matrix", "--kind", "M"),
            ("spectrum", "--formulation", "fem"),
            ("verify",),
            ("spectrum", "--formulation", "green"),
        ],
    )
    def test_underflowing_masses_are_three(self, argv):
        """At beta2 = 1e-300 the last mass, 1e-300 * 0.5^(N-1), underflows to 0 from N = 80,
        so max_order is 79: weight printed masses of 0.0 and matrix a zero diagonal with exit
        0, fem and verify exited 2 ("mass matrix has a zero entry") and green 3
        (NotPositiveDefinite). The weight refuses the order before its arrays exist, the
        matrix and the solvers refuse it at the range guard, and verify runs at order 79,
        where every eigenvalue lies beyond the 1e290 guard."""
        code, out, err = run_cli(*argv, "--beta2", "1e-300", "--n", "100")
        assert (code, out) == (3, "")
        assert err == {
            "weight": "RangeOverflow: masses underflow to 0 at N = 100",
            "verify": "ZeroEigenvalue: every eigenvalue lies beyond the range guard",
        }.get(argv[0], "RangeOverflow: order 100 beyond the range guard 79 "
                       "(gaps, entries or masses leave double range)") + "\n"

    def test_subnormal_masses_are_kept(self):
        """At N = 79 the last mass is the least subnormal, not 0."""
        code, out, _ = run_cli("weight", "--beta2", "1e-300", "--n", "79", "--format", "csv")
        assert code == 0
        assert out.splitlines()[-1].split(",")[2] == "5e-324"

    @pytest.mark.parametrize("command", ["matrix", "weight"])
    def test_overflowing_jump_is_two(self, command):
        """d*beta1 + beta2 - beta1 = 2e308 overflows: the parameters are refused with
        exit 2 before any command runs; matrix printed "r": Infinity and exited 0."""
        code, out, err = run_cli(command, "--d", "0.5", "--beta1", "-1e308",
                                 "--beta2", "1.5e308", "--n", "3")
        assert code == 2
        assert out == ""
        assert "d*beta1 + beta2 - beta1 overflows" in err

    @pytest.mark.parametrize("a,d", [("1e-200", "1e-200"), ("5e-324", "-2")])
    def test_overflowing_q_is_two(self, a, d):
        """a*d underflows to 0 (a ZeroDivisionError traceback and exit 1) or to -1e-323
        (exit 0 with "q": -Infinity, which is not JSON): the parameters are refused."""
        code, out, err = run_cli("weight", "--a", a, "--d", d, "--n", "1")
        assert (code, out) == (2, "")
        assert "q = 1/(a*d) overflows" in err

    def test_unrepresentable_c_k_is_three(self):
        """lambda_k / q^k ~ 1.2e-339 underflows at d = 3e-39: asymptotics printed c_k = 0.0,
        "c_estimate": -0.0 and "max_rel_dispersion": NaN, which is not JSON, and exited 0."""
        code, out, err = run_cli("asymptotics", "--a", "0.5", "--d", "3e-39", "--beta2", "5e300",
                                 "--n", "3")
        assert (code, out) == (3, "")
        assert err.startswith("RangeOverflow: c_k = lambda_k / q^k = 0.0 at k = 1 ")

    def test_verify_at_max_order_zero_is_three(self):
        """q = 3.3e300 leaves no order inside the range guard: verify says so as spectrum
        does, where it exited 2 naming a fixed-point depth of 0 that nobody gave."""
        argv = ("--a", "0.3", "--d", "1e-300", "--n", "5")
        code, out, err = run_cli("verify", *argv)
        assert (code, out) == (3, "")
        assert err == run_cli("spectrum", *argv[:-1], "1")[2]
        assert err.startswith("RangeOverflow: order 1 beyond the range guard 0")

    def test_verify_at_max_order_one_runs(self):
        """q = 3.3e150 admits order 1 only: the fixed-point residual runs at depth 2 (its
        plateaus hold no q^k entry) and every other line at order 1, where verify exited 2
        with "depth must be >= 2, got 1"."""
        code, out, err = run_cli("verify", "--a", "0.3", "--d", "1e-150", "--n", "5")
        lines = out.splitlines()
        assert (code, err, len(lines)) == (0, "", 6)
        assert lines[0].endswith("at depth 2") and all("order 1" in x for x in lines[1:5])

    def test_underflowing_weight_is_three_before_allocating(self):
        """0.5^20000000 underflows: refused before arrays of 20 million entries exist."""
        tracemalloc.start()
        try:
            code, out, err = run_cli("weight", "--n", "20000000")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 3
        assert err == "RangeOverflow: a^20000000 underflows to 0\n"
        assert peak < 1 << 20

    def test_spectrum_beyond_the_guard_is_three(self):
        n = str(canonical().max_order + 1)  # 482
        code, out, err = run_cli("spectrum", "--n", n, "--formulation", "fem")
        assert code == 3
        assert out == ""
        assert err.startswith("RangeOverflow")

    @pytest.mark.parametrize("flag,value", [("--d", "-1e-3"), ("--beta1", "-2.5E-1")])
    def test_negative_exponent_values_are_values(self, flag, value):
        code, out, err = run_cli("spectrum", flag, value, "--n", "3")
        assert code == 0, err
        assert out == run_cli("spectrum", f"{flag}={value}", "--n", "3")[1]

    def test_asymptotics_defaults_to_fem(self):
        code, out, _ = run_cli("asymptotics", "--n", "20")
        assert code == 0
        assert json.loads(out)["formulation"] == "fem-pencil"

    def test_unknown_flag_value_is_two(self):
        code, _, _ = run_cli("spectrum", "--format", "xml")
        assert code == 2

    @pytest.mark.parametrize("command", list(RAISE_IN))
    @pytest.mark.parametrize("error", ERRORS, ids=lambda cls: cls.__name__)
    def test_every_error_class_keeps_its_exit_code(self, monkeypatch, command, error):
        """The solver modules load inside the command bodies, so each class is raised
        from inside each command: exit 2 for a ValidationError, 3 for a NumericalError,
        one stderr line and nothing on stdout."""
        assert len(ERRORS) == 13
        assert issubclass(error, (errors.ValidationError, errors.NumericalError))

        def fail(*args, **kwargs):
            raise error("injected failure")

        monkeypatch.setattr(*RAISE_IN[command], fail)
        code, out, err = run_cli(command, "--n", "4")
        assert code == (2 if issubclass(error, errors.ValidationError) else 3)
        assert out == ""
        assert len(err.splitlines()) == 1 and "injected failure" in err


class TestOutputContracts:
    def test_spectrum_json_round_trips(self):
        _, out, _ = run_cli("spectrum", "--n", "6")
        assert json.dumps(json.loads(out), indent=2) + "\n" == out

    def test_spectrum_schema(self):
        _, out, _ = run_cli("spectrum", "--n", "3", "--formulation", "green")
        doc = json.loads(out)
        assert list(doc) == ["params", "N", "formulation", "eigenvalues"]
        assert list(doc["params"]) == ["a", "d", "beta1", "beta2", "q", "r"]
        assert doc["formulation"] == "green-kernel"
        assert doc["N"] == 3
        assert doc["eigenvalues"] == sorted(doc["eigenvalues"])

    def test_weight_json_carries_step_values(self):
        _, out, _ = run_cli("weight", "--n", "3")
        doc = json.loads(out)
        assert doc["step_values"] == [0.0, 1.0, 1.5, 1.75]
        assert doc["positions"] == [0.5, 0.75, 0.875]

    def test_csv_cells_are_plain_floats(self):
        _, out, _ = run_cli("weight", "--n", "5", "--format", "csv")
        lines = out.strip().split("\n")
        assert lines[0] == "k,position,mass"
        for line in lines[1:]:
            cells = line.split(",")
            assert len(cells) == 3
            float(cells[1]), float(cells[2])

    def test_asymptotics_definite_csv(self):
        code, out, _ = run_cli(
            "asymptotics", "--n", "30", "--window", "8:12", "--format", "csv"
        )
        assert code == 0
        lines = out.strip().split("\n")
        assert lines[0] == "k,lambda,c_k,ratio"
        assert lines[1].split(",")[0] == "8"
        assert lines[1].endswith(",")  # no ratio before the first window index
        assert len(lines) == 6

    def test_asymptotics_indefinite_json(self):
        code, out, _ = run_cli("asymptotics", "--d", "-0.5", "--n", "20")
        assert code == 0
        doc = json.loads(out)
        for key in ("positive", "negative", "c_plus", "c_minus", "cross_ratios"):
            assert key in doc
        assert all(v < 0 for v in doc["negative"])

    def test_asymptotics_indefinite_negative_jump(self):
        """r < 0: the negative branch holds the smallest magnitude and takes
        the q^(2j) law, so the figures read as at r > 0."""
        code, out, _ = run_cli(
            "asymptotics", "--d", "-0.5", "--beta2", "-1", "--n", "40", "--window", "3:5"
        )
        assert code == 0
        doc = json.loads(out)
        for key in ("c_plus", "c_minus", "cross_ratios"):
            assert all(abs(v - 4.0) <= 4e-9 for v in doc[key]), doc[key]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize(
        "argv",
        [
            ("weight", "--n", "4"),
            ("matrix", "--kind", "green", "--n", "4"),
            ("spectrum", "--n", "4"),
            ("asymptotics", "--n", "30", "--window", "8:12"),
        ],
        ids=lambda argv: argv[0],
    )
    def test_out_file_matches_stdout(self, argv, fmt, tmp_path):
        _, out, _ = run_cli(*argv, "--format", fmt)
        target = tmp_path / f"out.{fmt}"
        code, piped, _ = run_cli(*argv, "--format", fmt, "--out", str(target))
        assert code == 0
        assert piped == ""
        assert target.read_text() == out

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_matrix_output_holds_only_the_array(self, fmt, tmp_path):
        """The text is written as it is formatted, one row at a time, so the
        N x N array (4.9 MiB at N = 800) is the only large allocation."""
        n = 800
        argv = ("matrix", "--kind", "K", "--a", "0.99", "--d", "0.99", "--n", str(n))
        tracemalloc.start()
        try:
            code, _, err = run_cli(*argv, "--format", fmt, "--out", str(tmp_path / "k"))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert code == 0, err
        assert peak <= 2 * 8 * n * n

    @pytest.mark.parametrize("command", ["spectrum", "verify"])
    def test_unwritable_out_is_two(self, command, tmp_path):
        """Exit 1 means a verification failure; a path that cannot be
        written is a usage error, reported on one stderr line."""
        target = tmp_path / "missing" / "x.json"
        code, out, err = run_cli(command, "--n", "5", "--out", str(target))
        assert code == 2
        assert out == ""
        assert len(err.strip().splitlines()) == 1 and str(target) in err
        assert not target.exists()

    def test_verify_deterministic(self):
        a = run_cli("verify", "--n", "10")
        b = run_cli("verify", "--n", "10")
        assert a == b
        assert a[0] == 0

    @pytest.mark.parametrize("beta2,n", [("1e195", "20"), ("1e-200", "40")])
    def test_green_matches_fem_at_extreme_mass_scales(self, beta2, n):
        """Entries near 1e195 overflow when squared and near 1e-200 underflow;
        Jacobi forms no such product, so green matches fem, and a
        RuntimeWarning would fail the test (pytest makes it an error)."""
        spectra = []
        for formulation in ("green", "fem"):
            code, out, _ = run_cli(
                "spectrum", "--beta2", beta2, "--n", n, "--formulation", formulation
            )
            assert code == 0
            spectra.append(json.loads(out)["eigenvalues"])
        for g, f in zip(*spectra):
            assert abs(g - f) <= 1e-12 * abs(f)

    def test_section_beyond_the_range_guard_at_tiny_beta2_is_three(self):
        """At beta2 = 1e-300, r = 5e-301 puts every eigenvalue above 5e300,
        beyond the solver's range guard. Dividing the section eigenvalues by
        r printed Infinity tokens (not JSON) and exited 0; with r in the
        mass the solver reports the failure. N = 79 is max_order there, the
        last order whose weight has no mass underflowing to 0 (it was 150,
        which now stops at the range guard)."""
        code, out, err = run_cli(
            "spectrum", "--formulation", "jacobi", "--beta2", "1e-300", "--n", "79"
        )
        assert code == 3
        assert out == ""
        assert err.startswith("ZeroEigenvalue")

    @pytest.mark.parametrize("argv", [
        ("verify", "--a", "0.5", "--d", "1e-150", "--beta1", "5e-324", "--beta2", "0", "--n", "5"),
        ("spectrum", "--a", "0.3", "--d", "-0.5", "--beta1", "1e-308", "--beta2", "1e-308",
         "--n", "1"),
    ])
    def test_negative_subnormal_mass_beyond_the_range_guard_is_three(self, argv):
        """A lone negative subnormal mass puts its eigenvalue at -inf: the Gershgorin interval
        read (-inf, NaN) and the probe grid raised ValueError (exit 1 with a traceback)."""
        code, out, err = run_cli(*argv)
        assert (code, out) == (3, "")
        assert err.startswith("ZeroEigenvalue")

    def test_verify_with_edge_terms_beyond_range(self):
        """(q/d)^N passes 1e308 at this point: the symmetry check runs at the
        order where its edge terms fit and every check still reports."""
        code, out, err = run_cli("verify", "--a", "0.05", "--d", "0.2", "--n", "140")
        lines = out.strip().split("\n")
        assert code == 0, out + err
        assert len(lines) == 6
        assert all(line.startswith("PASS") for line in lines)
        assert "PASS symmetry defect" in out and "at order 108" in out

    @pytest.mark.parametrize("beta2", ["1e10", "1e300"])
    def test_verify_fixed_point_at_huge_beta2(self, beta2):
        """The plateau values are ~beta2, so the residual is judged against
        1e-12 * max(|beta1|, |beta2|, 1) (it reads 4e-11 at 1e10), and at 1e300
        its squares stay in range: no warning, every line PASS."""
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, _ = run_cli("verify", "--beta2", beta2)
        assert code == 0, out
        assert "FAIL" not in out and "inf" not in out

    def test_verify_indefinite_passes(self):
        code, out, _ = run_cli("verify", "--d", "-0.5", "--n", "12")
        assert code == 0
        assert "FAIL" not in out


@pytest.mark.parametrize("argv,name", GOLDENS, ids=[name for _, name in GOLDENS])
def test_module_entry_point_subprocess(argv, name):
    """End-to-end runs through a real process, warnings as errors: the bytes
    written to stdout must equal the golden."""
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "selfsimspec.cli", *argv],
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == (GOLDEN / name).read_text()


def _imported(*argv):
    """Run ``python -X importtime *argv`` in a fresh interpreter, as the benchmark starts
    a CLI job; returns (exit code, every module the process imported)."""
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", *argv], capture_output=True, text=True, timeout=60
    )
    lines = [line for line in proc.stderr.splitlines() if line.startswith("import time:")]
    return proc.returncode, {line.rsplit("|", 1)[1].strip() for line in lines}


SOLVERS = {"selfsimspec.eigensolve", "selfsimspec.spectral"}


class TestImports:
    """Each process loads only what its work runs."""

    def test_package_import_loads_no_layer(self):
        code, mods = _imported("-c", "import selfsimspec")
        assert code == 0 and "selfsimspec" in mods
        assert not mods & {f"selfsimspec.{m}" for m in ("selfsim", "operators", "eigensolve",
                                                       "spectral")}

    @pytest.mark.parametrize("command", ["weight", "matrix"])
    def test_weight_and_matrix_load_no_solver(self, command):
        code, mods = _imported("-m", "selfsimspec.cli", command, "--n", "5")
        assert code == 0 and "selfsimspec.operators" in mods
        assert not mods & SOLVERS

    @pytest.mark.parametrize("argv", [
        ("spectrum", "--formulation", "fem"),
        ("spectrum", "--formulation", "jacobi"),
        ("verify",),
        ("spectrum", "--formulation", "fem", "--n", "100"),  # order continuation fires
        ("spectrum", "--formulation", "jacobi", "--n", "100"),
        ("verify", "--n", "60"),
        # README's dyadic section point: the continued order's second count also probes the
        # doubles just inside the ends of the brackets its first count left open
        ("spectrum", "--formulation", "jacobi", "--a", "0.5", "--d", "-0.125", "--beta1",
         "0.06305480040945466", "--beta2", "0.2179661732686582", "--n", "122"),
    ], ids=" ".join)
    def test_solving_loads_no_masked_arrays(self, argv):
        code, mods = _imported("-m", "selfsimspec.cli", *argv)
        assert code == 0 and SOLVERS <= mods
        assert "numpy.ma" not in mods

    def test_verify_loads_no_numpy_random(self):
        code, mods = _imported("-m", "selfsimspec.cli", "verify")
        assert code == 0
        assert "numpy.random" not in mods
