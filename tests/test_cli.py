import csv
import dataclasses
import inspect
import io
import json
import os
import subprocess
import sys
import tracemalloc
from contextlib import nullcontext
from pathlib import Path

import numpy as np
import pytest

import zfhp
import zfhp.cli
import zfhp.experiments
from zfhp.cli import main, parse_complex, parse_int_range, parse_s_grid
from zfhp.errors import ConditioningError
from zfhp.experiments import (
    ExperimentManifest,
    rerun,
    write_approx_csv,
    write_convergence_csv,
    write_lambda_csv,
    write_mellin_csv,
)
from zfhp.norms import QuadratureWarning, _two_level_bytes
from zfhp.series import _kernel_bytes
from zfhp.weights import _prime_sieve_bytes


class TestParsers:
    def test_parse_complex(self):
        assert parse_complex("2+0i") == 2.0
        assert parse_complex("0.75+1i") == 0.75 + 1.0j
        assert parse_complex("2") == 2.0
        assert parse_complex("-1.5i") == -1.5j
        with pytest.raises(ValueError):
            parse_complex("abc")

    def test_parse_int_range(self):
        assert parse_int_range("2..5") == range(2, 6)  # a list only once its size is checked
        assert parse_int_range("1,4,9") == [1, 4, 9]
        with pytest.raises(ValueError):
            parse_int_range("5..2")
        for text in ("", ",", " , "):
            with pytest.raises(ValueError, match="empty integer list"):
                parse_int_range(text)

    def test_parse_s_grid(self):
        grid = parse_s_grid("0.6,2 x 0,1")
        assert grid == [0.6, 0.6 + 1j, 2.0, 2.0 + 1j]
        with pytest.raises(ValueError):
            parse_s_grid("1,2")


class TestExitCodes:
    def test_zeta_ok(self, capsys):
        assert main(["zeta", "--s", "2+0i"]) == 0
        out = capsys.readouterr().out
        assert "1.6449340668482264 + 0.0i" in out  # pi^2/6 correctly rounded
        assert f"[error_bound {zfhp.zeta(2.0).error_bound!r}]" in out

    def test_zeta_at_large_imaginary_part(self, capsys):
        assert main(["zeta", "--s", "0.51+1000i"]) == 0
        assert "error_bound" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [["zeta", "--s", "0.6+2000000i"], ["lambda", "--k", "2..5", "--s-grid", "0.6,2 x 0,2000000"]],
        ids=["zeta", "lambda"],
    )
    def test_s_beyond_the_zeta_range_refused(self, argv, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("array allocated")

        monkeypatch.setattr(np, "arange", refuse)
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("invalid arguments: |s| = 2e+06 exceeds 2^20")
        assert peak < 2**20

    def test_zeta_pole_is_domain_error(self, capsys):
        assert main(["zeta", "--s", "1+0i"]) == 3
        assert "domain error" in capsys.readouterr().err

    def test_zeta_left_half_plane(self):
        assert main(["zeta", "--s", "i"]) == 3

    def test_invalid_family(self, capsys):
        assert main(["weights", "classify", "--family", "power:-1"]) == 2
        assert "invalid arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("family", ["power:inf", "powerlog:inf,1", "powerlog:1,inf",
                                        "quasiexp:inf", "superexp:inf"])
    def test_non_finite_family_parameter(self, family, capsys):
        # an infinite parameter makes log w(1) = inf * log 1 a NaN
        assert main(["weights", "classify", "--family", family]) == 2
        assert capsys.readouterr().out == ""

    def test_argparse_rejects_unknown_command(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_approx_refuses_n_beyond_float64_integers(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sieve allocated")

        monkeypatch.setattr(zfhp.arith, "_primes_up_to", refuse)
        monkeypatch.setattr(zfhp.arith, "_sieve_segment", refuse)
        assert main(["approx", "--s", "2+0i", "--n", "100," + str(2**53)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"invalid arguments: n = {2**53} too large") and "2^53" in err

    def test_approx_beyond_physical_memory_refused(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sieve or tables allocated")

        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**15}  # 0.125 GiB
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        for name in ("ones", "empty", "zeros"):
            monkeypatch.setattr(np, name, refuse)
        monkeypatch.setattr(zfhp.arith, "_primes_up_to", refuse)
        monkeypatch.setattr(zfhp.arith, "_sieve_segment", refuse)
        # no table fits, so the estimate is at the smallest limit, isqrt(n):
        # 2^26 + 1 entries of the tables (33 bytes each) and of the
        # recursion's arrays (560 bytes each), about 37.1 GiB
        n = 2**52
        tracemalloc.start()
        try:
            code = main(["approx", "--s", "2+0i", "--n", f"100,{n}"])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith(f"invalid arguments: n = {n} needs an estimated 37.1 GiB")
        assert "Traceback" not in err
        assert peak < 2**20

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["lambda", "--k", "2..10000000000", "--s-grid", "2 x 0"],
             "--k 2..10000000000 needs an estimated 5,364.4 GiB of lambda records"),
            (["lambda", "--k", "2..10", "--s-grid", "2 x 0", "--coeff-cutoff", "100000000000"],
             "degree = 100000000000 needs an estimated 6,705.5 GiB of lambda coefficient"),
            (["mellin", "verify", "--k", "1..10000000000", "--s", "2+1i"],
             "--k 1..10000000000 needs an estimated 2,980.2 GiB of mellin records"),
        ],
        ids=["lambda-k", "lambda-coeff-cutoff", "mellin-k"],
    )
    def test_lambda_and_mellin_beyond_physical_memory_refused(self, argv, message, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("coefficients allocated")

        # never run unpatched: the patched machine has 0.125 GiB
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**15}
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        monkeypatch.setattr(np, "arange", refuse)
        tracemalloc.start()
        try:
            code = main(argv)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith(f"invalid arguments: {message}")
        assert peak < 2**20

    @pytest.mark.parametrize("subsequence", ["all", "primes"])
    def test_probe_count_beyond_physical_memory_refused(self, subsequence, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("probe allocated")

        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**17}  # 0.5 GiB
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        monkeypatch.setattr(np, "fromiter", refuse)
        # the smallest count whose estimate does not fit; the arrays alone
        # (56 bytes per index) would still fit, and the prime sieve's
        # segment and base primes, counted for every subsequence, tip it over
        sieve = _prime_sieve_bytes
        count = (2**29 - sieve(2**29 // 56)) // 56
        while 56 * count + sieve(count) <= 2**29:
            count += 1
        assert 56 * (count - 1) + sieve(count - 1) <= 2**29
        if subsequence == "primes":
            assert 56 * count <= 2**29
        tracemalloc.start()
        try:
            code = main(["weights", "probe", "--family", "identity", "--r", "0.6",
                         "--subsequence", subsequence, "--count", str(count)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith(f"invalid arguments: count = {count} needs an estimated 0.5 GiB")
        assert peak < 2**20

    def test_lambda_domain_violation(self):
        code = main(["lambda", "--k", "2..3", "--s-grid", "0.4 x 0", "--coeff-cutoff", "100"])
        assert code == 3

    # an empty list must not make --check pass on zero rows
    @pytest.mark.parametrize(
        "argv",
        [
            ["lambda", "--k", "", "--s-grid", "2 x 0", "--check"],
            ["mellin", "verify", "--k", ",", "--s", "2", "--check"],
            ["approx", "--s", "2", "--n", ","],
        ],
    )
    def test_empty_integer_list(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert "empty integer list" in captured.err
        assert captured.out == ""

    def test_mellin_conditioning_error_leaves_no_csv(self, tmp_path, monkeypatch):
        def refuse(k, s):
            raise ConditioningError(f"no accurate value for k={k}")

        monkeypatch.setattr(zfhp.experiments, "mellin_step_pk", refuse)
        out = tmp_path / "mellin.csv"
        assert main(["mellin", "verify", "--k", "1..3", "--s", "2+1i", "--out", str(out)]) == 3
        assert not out.exists()


class TestConvergenceCommand:
    def test_lq_refuses_an_underflowing_q(self, capsys):
        # max |r_m| is 0.216 and 0.142, and 0.216^500 < 2^-1022
        code = main(["convergence", "--space", "lq", "--q", "500", "--n", "10,100",
                     "--coeff-cutoff", "1000"])
        out, err = capsys.readouterr()
        assert code == 3
        assert out == ""
        assert err.startswith("conditioning error: the largest |r|^q")

    @pytest.mark.parametrize("q", ["inf", "nan"])
    def test_lq_refuses_a_nonfinite_q(self, q, capsys):
        code = main(["convergence", "--space", "lq", "--q", q, "--n", "10,100",
                     "--coeff-cutoff", "1000"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert "q must be finite" in err

    def test_lq_writes_csv_and_manifest(self, tmp_path):
        out = tmp_path / "results.csv"
        code = main(
            [
                "convergence",
                "--space",
                "lq",
                "--q",
                "2",
                "--n",
                "10,100",
                "--coeff-cutoff",
                "2000",
                "--out",
                str(out),
                "--check",
            ]
        )
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert [row["n"] for row in rows] == ["10", "100"]
        assert float(rows[0]["value"]) > float(rows[1]["value"])
        manifest = json.loads((tmp_path / "results.manifest.json").read_text())
        assert manifest["experiment"] == "lq_convergence"
        assert manifest["parameters"] == {"coeff_cutoff": 2000, "n_list": [10, 100], "q": 2.0}

    def test_hp_requires_p(self):
        code = main(
            ["convergence", "--space", "hp", "--n", "10", "--coeff-cutoff", "100"]
        )
        assert code == 2

    def test_hp_small_run(self, tmp_path):
        out = tmp_path / "hp.csv"
        code = main(
            [
                "convergence",
                "--space",
                "hp",
                "--p",
                "0.5",
                "--n",
                "10,100",
                "--coeff-cutoff",
                "1000",
                "--nodes",
                "256",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert rows[0]["norm_kind"] == "hp"
        assert len(rows) == 2

    def test_hp_undersampling_named_on_stderr(self, capsys):
        argv = ["convergence", "--space", "hp", "--p", "0.5", "--n", "10,50", "--coeff-cutoff", "100"]
        assert main([*argv, "--nodes", "64"]) == 0
        out, err = capsys.readouterr()
        assert err == "warning: nodes = 64 undersamples degree 100; the circle mean may alias\n"
        assert len(out.splitlines()) == 3
        assert main([*argv, "--nodes", "256"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("nodes", [15, 2**40])
    def test_hp_nodes_refused_before_allocation(self, nodes, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("kernel or FFT called")

        monkeypatch.setattr(zfhp.experiments, "mobius_ims_partial_sums", refuse)
        monkeypatch.setattr(np.fft, "fft", refuse)
        monkeypatch.setattr(np.fft, "rfft", refuse)
        tracemalloc.start()
        try:
            code = main(["convergence", "--space", "hp", "--p", "0.5", "--n", "10",
                         "--coeff-cutoff", "20000000", "--nodes", str(nodes)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("invalid arguments: nodes") and "Traceback" not in err
        assert nodes == 15 or "GiB of transform buffers" in err
        assert peak < 2**20

    @pytest.mark.parametrize(
        "space, n",
        [(["lq", "--q", "2"], 3_000_000_000), (["hp", "--p", "0.5"], 2**31)],
        ids=["lq", "hp"],
    )
    def test_n_beyond_the_table_cap_refused_before_allocation(self, space, n, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("table or kernel allocated")

        monkeypatch.setattr(zfhp.experiments, "build_mobius", refuse)
        monkeypatch.setattr(np, "empty", refuse)
        monkeypatch.setattr(np, "zeros", refuse)
        code = main(["convergence", "--space", *space, "--n", f"10,{n}", "--coeff-cutoff", str(n)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        # named by n, the one input that sizes the table; hp's undersampling
        # warning never comes, because the run never starts
        assert err == f"invalid arguments: n = {n} too large: the Möbius table needs n < 2^31\n"

    def test_coeff_cutoff_beyond_any_memory_refused(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("kernel allocated")

        monkeypatch.setattr(np, "zeros", refuse)
        tracemalloc.start()
        try:
            code = main(["convergence", "--space", "lq", "--q", "2", "--n", "10",
                         "--coeff-cutoff", str(2**60)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith(f"invalid arguments: degree = {2**60} needs an estimated")
        assert "GiB of partial-sum buffers" in err and "Traceback" not in err
        assert peak < 2**20

    def test_hp_refusal_comes_before_the_undersampling_warning(self, capsys, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("kernel allocated")

        monkeypatch.setattr(np, "zeros", refuse)
        # the default 8192 nodes undersample this degree, but the run never starts
        code = main(["convergence", "--space", "hp", "--p", "0.5", "--n", "10",
                     "--coeff-cutoff", str(2**60)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith(f"invalid arguments: degree = {2**60} needs an estimated")
        assert err.count("\n") == 1 and "warning" not in err

    def test_hp_kernel_and_transform_checked_as_one_sum(self, capsys, monkeypatch):
        # each buffer set fits on its own, both together do not
        cutoff, nodes = 100_000, 8192
        kernel, transform = _kernel_bytes(cutoff), _two_level_bytes(nodes)
        monkeypatch.setattr(zfhp.arith, "_physical_bytes", lambda: max(kernel, transform))

        def refuse(*args, **kwargs):
            raise AssertionError("table or kernel allocated")

        monkeypatch.setattr(zfhp.experiments, "build_mobius", refuse)
        monkeypatch.setattr(zfhp.experiments, "mobius_ims_partial_sums", refuse)
        code = main(["convergence", "--space", "hp", "--p", "0.5", "--n", "10",
                     "--coeff-cutoff", str(cutoff), "--nodes", str(nodes)])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        # nodes undersample the cutoff, but the run never starts, so no warning
        assert err.startswith(f"invalid arguments: coeff_cutoff = {cutoff} needs an estimated")
        assert f"of partial-sum buffers and the transform buffers of nodes = {nodes}," in err
        assert err.count("\n") == 1

    def test_lq_row_beyond_memory_refused(self, capsys, monkeypatch):
        pages = {"SC_PAGE_SIZE": 4096, "SC_PHYS_PAGES": 2**18}  # 1 GiB
        monkeypatch.setattr(os, "sysconf", pages.__getitem__)
        cutoff = 2**30 // 10
        # the smallest cutoff whose 10 bytes per coefficient do not fit
        assert 10 * cutoff <= 2**30 < 10 * (cutoff + 1)
        tracemalloc.start()
        try:
            code = main(["convergence", "--space", "lq", "--q", "2", "--n", "10",
                         "--coeff-cutoff", str(cutoff)])
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith(
            f"invalid arguments: degree = {cutoff} needs an estimated 1.0 GiB of partial-sum buffers"
        )
        assert "Traceback" not in err
        assert peak < 2**20

    def test_determinism_across_runs(self, tmp_path):
        argv = [
            "convergence",
            "--space",
            "lq",
            "--q",
            "1.5",
            "--n",
            "10,100",
            "--coeff-cutoff",
            "1000",
        ]
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main([*argv, "--out", str(out1)]) == 0
        assert main([*argv, "--out", str(out2)]) == 0

        def strip_wall_time(path):
            rows = list(csv.DictReader(path.open()))
            for row in rows:
                row.pop("wall_time_ms")
            return rows

        assert strip_wall_time(out1) == strip_wall_time(out2)
        m1 = (tmp_path / "a.manifest.json").read_text()
        m2 = (tmp_path / "b.manifest.json").read_text()
        assert m1 == m2


class TestOtherCommands:
    def test_lambda_check_passes(self, tmp_path):
        out = tmp_path / "lambda.csv"
        code = main(
            [
                "lambda",
                "--k",
                "2..3",
                "--s-grid",
                "2 x 0,1",
                "--coeff-cutoff",
                "10000",
                "--out",
                str(out),
                "--check",
            ]
        )
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert len(rows) == 4
        assert all(row["pass"] == "true" for row in rows)

    def test_approx(self, tmp_path):
        out = tmp_path / "approx.csv"
        code = main(["approx", "--s", "2+0i", "--n", "100,1000", "--out", str(out)])
        assert code == 0
        rows = list(csv.DictReader(out.open()))
        assert float(rows[0]["residual"]) > float(rows[1]["residual"])

    def test_weights_classify_stdout(self, capsys):
        assert main(["weights", "classify", "--family", "power:0.25"]) == 0
        out = capsys.readouterr().out
        assert "family,params,c4_r,rm_bounded,strip" in out
        assert "power,0.25,0.75,false,Right" in out

    def test_weights_table1_check(self, capsys):
        assert main(["weights", "table1", "--check"]) == 0
        out = capsys.readouterr().out
        assert out.count("Right") == 3
        assert out.count("Left") == 2
        assert out.count("None") == 2

    def test_weights_table1_check_fails_on_wrong_strip(self, monkeypatch, capsys):
        real_classify = zfhp.cli.classify

        def wrong_for_geometric(family):
            result = real_classify(family)
            if family.kind != "geometric":
                return result
            return dataclasses.replace(result, strip="Right")

        monkeypatch.setattr(zfhp.cli, "classify", wrong_for_geometric)
        assert main(["weights", "table1", "--check"]) == 4
        err = capsys.readouterr().err
        assert "geometric" in err and "superexp" not in err

    def test_weights_probe_summary_and_csv(self, tmp_path, capsys):
        out = tmp_path / "probe.csv"
        code = main(
            [
                "weights",
                "probe",
                "--family",
                "identity",
                "--r",
                "0.75",
                "--subsequence",
                "all",
                "--count",
                "100",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        assert "running_min" in capsys.readouterr().out
        assert len(list(csv.DictReader(out.open()))) == 100

    def test_weights_probe_subsequences(self):
        assert main(["weights", "probe", "--family", "identity", "--r", "0.6",
                     "--subsequence", "primes", "--count", "50"]) == 0
        assert main(["weights", "probe", "--family", "identity", "--r", "0.6",
                     "--subsequence", "arith:3,4", "--count", "50"]) == 0
        assert main(["weights", "probe", "--family", "identity", "--r", "0.6",
                     "--subsequence", "bogus", "--count", "50"]) == 2

    def test_mellin_verify(self, capsys):
        code = main(["mellin", "verify", "--k", "1..10", "--s", "2+1i", "--check"])
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert list(rows[0]) == ["k", "s_re", "s_im", "abs_err", "bound", "ok"]
        assert [row["ok"] for row in rows] == ["true"] * 10
        # every printed pass flag is the printed comparison
        assert all(float(row["abs_err"]) <= float(row["bound"]) for row in rows)


class TestMellinCheck:
    @pytest.mark.parametrize(
        "k, wrong",
        [("10000,1000000", lambda value: 0.0), ("1..10", lambda value: value * (1.0 + 2.0**-30))],
        ids=["zero", "scaled"],
    )
    def test_check_catches_a_wrong_transform(self, k, wrong, capsys, monkeypatch):
        # |f_k(2+1i)| is 6.3e-9 at k = 10^4, far below any fixed absolute
        # tolerance, and a relative error of 2^-30 is far above rounding
        right = zfhp.experiments.mellin_step_pk
        monkeypatch.setattr(zfhp.experiments, "mellin_step_pk", lambda k, s: wrong(right(k, s)))
        code = main(["mellin", "verify", "--k", k, "--s", "2+1i", "--check"])
        out, err = capsys.readouterr()
        rows = list(csv.DictReader(io.StringIO(out)))
        assert code == 4
        assert [row["ok"] for row in rows] == ["false"] * len(rows)
        assert err == f"check failed: {len(rows)} of {len(rows)} errors above their rounding bound\n"

    @pytest.mark.parametrize(
        "k, s",
        [("1,9007199254740992", "2+1i"), ("0", "2+1i"), ("10,2000", "100"),
         ("2", "1e-300"), ("10", "1+1e10i")],
        ids=["k-2^53", "k-0", "underflow", "tiny-s", "huge-s"],
    )
    def test_k_outside_the_proof_refused_before_any_value(self, k, s, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a value was computed")

        monkeypatch.setattr(zfhp.experiments, "mellin_step_pk", refuse)
        monkeypatch.setattr(zfhp.experiments, "f_k", refuse)
        code = main(["mellin", "verify", "--k", k, "--s", s, "--check"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.startswith("invalid arguments: k = ")
        assert "outside the range of the Mellin rounding bound" in err


def _without_wall_time(text):
    """The CSV bytes with the wall_time_ms column (last where present) cut off."""
    lines = text.split("\n")
    if lines[0].endswith(",wall_time_ms"):
        lines = [line.rpartition(",")[0] for line in lines]
    return "\n".join(lines)


# One command per experiment the CLI builds a manifest for, with its CSV writer.
EXPERIMENT_COMMANDS = [
    (["convergence", "--space", "lq", "--q", "1.5", "--n", "10,100",
      "--coeff-cutoff", "1000"], write_convergence_csv),
    (["convergence", "--space", "hp", "--p", "0.5", "--n", "10,100",
      "--coeff-cutoff", "1000", "--nodes", "256"], write_convergence_csv),
    (["lambda", "--k", "2..4", "--s-grid", "0.75,2 x 0,1", "--coeff-cutoff", "1000"],
     write_lambda_csv),
    (["approx", "--s", "0.8+3i", "--n", "100,10,1000"], write_approx_csv),
    (["mellin", "verify", "--k", "1..4", "--s", "2+1i"], write_mellin_csv),
]
EXPERIMENT_IDS = ["lq", "hp", "lambda", "approx", "mellin"]


@pytest.mark.parametrize("argv, writer", EXPERIMENT_COMMANDS, ids=EXPERIMENT_IDS)
def test_sidecar_reproduces_cli_output(tmp_path, argv, writer):
    out = tmp_path / "run.csv"
    assert main([*argv, "--out", str(out)]) == 0
    payload = json.loads((tmp_path / "run.manifest.json").read_text())
    manifest_id = payload.pop("id")
    manifest = ExperimentManifest(**payload)
    assert manifest.manifest_id == manifest_id
    rendered = io.StringIO()
    # the H^p command's 256 nodes undersample degree 1000 on purpose
    with pytest.warns(QuadratureWarning) if "hp" in argv else nullcontext():
        writer(rerun(manifest), rendered)
    assert _without_wall_time(rendered.getvalue()) == _without_wall_time(out.open(newline="").read())


@pytest.mark.parametrize("argv", [argv for argv, _ in EXPERIMENT_COMMANDS], ids=EXPERIMENT_IDS)
def test_manifest_parameters_are_the_runner_parameters(argv, monkeypatch):
    # one path from the CLI to a runner: every manifest parameter is a
    # parameter of the runner that rerun calls, and nothing else is
    built = []
    monkeypatch.setattr(zfhp.cli, "rerun", lambda manifest: built.append(manifest) or [])
    assert main(argv) == 0
    (manifest,) = built
    called = []
    for name in (n for n in zfhp.experiments.__all__ if n.startswith("run_")):
        runner = getattr(zfhp.experiments, name)
        monkeypatch.setattr(zfhp.experiments, name, lambda *a, r=runner: called.append(r) or [])
    rerun(manifest)
    (runner,) = called
    assert sorted(manifest.parameters) == sorted(inspect.signature(runner).parameters)


def _run_python(code: str) -> subprocess.CompletedProcess:
    """``code`` in a fresh interpreter that imports this checkout's zfhp."""
    src = str(Path(zfhp.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    return subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120, check=True
    )


def test_cli_import_loads_no_scipy():
    # scipy is a test-only dependency (the oracles use it); a fresh
    # interpreter importing the CLI must not load it
    out = _run_python(
        "import sys, zfhp.cli; "
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))"
    )
    assert out.stdout.strip() == "[]"


def test_runs_with_scipy_blocked():
    # None in sys.modules makes every import of scipy raise ImportError
    out = _run_python(
        "import sys; sys.modules['scipy'] = None\n"
        "from zfhp.cli import main\n"
        "from zfhp.weights import parse_weight_family, rm_sequence\n"
        "code = main(['mellin', 'verify', '--k', '1..10', '--s', '2+1i', '--check'])\n"
        "rm = rm_sequence(parse_weight_family('stretchedexp:0.5'), 5)\n"
        "print('exit', code, 'finite', bool(all(v < float('inf') for v in rm)))"
    )
    assert out.stdout.splitlines()[-1] == "exit 0 finite True"
