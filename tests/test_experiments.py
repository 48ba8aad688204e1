import csv
import dataclasses
import functools
import hashlib
import importlib.util
import io
import json
import math
import sys
import tracemalloc
import warnings
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from zfhp import DomainError, QuadratureWarning, TruncatedSeries, build_mobius, classify, g_k, hk_coeffs, zeta
import zfhp.arith
from zfhp import experiments
from zfhp.experiments import (
    ExperimentManifest,
    build_manifest,
    lq_tail_bound,
    rerun,
    run_hp_convergence,
    run_lambda_sweep,
    run_lq_convergence,
    run_pointwise_approx,
    write_approx_csv,
    write_convergence_csv,
    write_lambda_csv,
    write_manifest,
    write_probe_csv,
    write_weights_csv,
)
from zfhp.norms import _two_level_bytes
from zfhp.series import _DIVIDE_BLOCK, CoefficientBlocks, _kernel_bytes
from zfhp.weights import WeightFamily, all_integers, extremal_probe

from oracles import half_offset_points, lq_residual_oracle, lq_tail_bound_whole

# Small runs of both runners, which load every module and the FFT before
# a VmHWM measurement starts.
RUNNER_WARMUP = (
    "from zfhp.experiments import run_hp_convergence, run_lq_convergence\n"
    "run_lq_convergence(2.0, [10], 100)\n"
    "run_hp_convergence(0.5, [10], 100, 256)"
)


# Sidecars as the CLI wrote them while it took --mobius-limit (here 5000,
# above every n): the key is in the parameters and in the id.
LEGACY_SIDECARS = {
    "lq": '{"experiment": "lq_convergence", "id": "4e3554d84bf7", "parameters": '
    '{"coeff_cutoff": 2000, "mobius_limit": 5000, "n_list": [10, 100], "q": 1.5}, '
    '"seed": null, "version": "0.1.0"}',
    "hp": '{"experiment": "hp_convergence", "id": "64d5af42c26b", "parameters": '
    '{"coeff_cutoff": 200, "mobius_limit": 5000, "n_list": [10, 100], "nodes": 256, "p": 0.5}, '
    '"seed": null, "version": "0.1.0"}',
    "approx": '{"experiment": "pointwise_approx", "id": "ff105ee02689", "parameters": '
    '{"mobius_limit": 5000, "n_list": [100, 10], "s_grid": [[0.75, 3.0]]}, '
    '"seed": null, "version": "0.1.0"}',
}


def without_wall_time(records) -> list[dict]:
    return [
        {k: v for k, v in dataclasses.asdict(r).items() if k != "wall_time_ms"} for r in records
    ]


def csv_rows(render, records) -> list[dict]:
    buf = io.StringIO()
    render(records, buf)
    return list(csv.DictReader(io.StringIO(buf.getvalue())))


def checked_bytes(monkeypatch) -> list[int]:
    """The bytes of every ``_check_memory`` call in ``zfhp.experiments`` from now on, in order."""
    checked = []

    def check(need, subject, buffers):
        checked.append(need)
        return zfhp.arith._check_memory(need, subject, buffers)

    monkeypatch.setattr(experiments, "_check_memory", check)
    return checked


class TestLqConvergence:
    def test_n2_fixture_at_degree_3(self):
        # residual of -(I-S)h_2 against (1 - z), truncated at degree 3:
        # [log2/2 - 1, 1/2, 1/4, -1/6]
        records = run_lq_convergence(2.0, [2], 3)
        want = math.sqrt((math.log(2) / 2 - 1.0) ** 2 + 0.25 + 0.0625 + 1.0 / 36.0)
        assert records[0].value == pytest.approx(want, abs=1e-15)
        assert records[0].n == 2
        assert records[0].norm_kind == "lq"
        assert records[0].param == 2.0
        assert records[0].coeff_cutoff == 3

    @pytest.mark.parametrize("q", [1.5, 2.0])
    def test_values_decrease_over_decades(self, q):
        records = run_lq_convergence(q, [10, 100], 10**4)
        assert records[0].value > records[1].value

    def test_matches_direct_coefficient_oracle(self, mobius_1k):
        records = run_lq_convergence(2.0, [10, 100], 10**4)
        for record in records:
            direct = lq_residual_oracle(2.0, record.n, 10**4, mobius_1k)
            assert abs(record.value - direct) <= 1e-10 * direct

    def test_tail_bound_finite_for_q_above_ten_sevenths(self, mobius_1k):
        assert math.isfinite(lq_tail_bound(1.5, 10, 1000, mobius_1k))
        assert math.isfinite(lq_tail_bound(2.0, 10, 1000, mobius_1k))

    def test_tail_bound_finite_and_above_brute_force_tail(self, mobius_1k):
        # the exact residual (c_n - D_j(n))/j over (N, 40N], with D from an
        # integer sieve and c_n from exact rationals
        cutoff, top = 1000, 40 * 1000
        j = np.arange(cutoff + 1, top + 1)
        for n in (10, 100):
            c_n = float(sum(Fraction(int(mobius_1k.values[k]), k) for k in range(2, n + 1)))
            d = np.zeros(top + 1, dtype=np.int64)
            for k in range(2, n + 1):
                d[k::k] += int(mobius_1k.values[k])
            tail = np.abs((c_n - d[cutoff + 1 :]) / j)
            for q in (1.2, 1.5, 2.0):
                bound = lq_tail_bound(q, n, cutoff, mobius_1k)
                brute = math.fsum((tail**q).tolist()) ** (1.0 / q)
                assert math.isfinite(bound)
                assert bound >= brute, (q, n, bound, brute)

    def test_row_holds_only_the_kernel_buffers(self):
        # the kernel's int8 divisor sums, 1 byte per coefficient, and its
        # two block buffers; a float64 copy of the residual would add 8
        # bytes per coefficient more
        cutoff = 10**6
        tracemalloc.start()
        try:
            run_lq_convergence(2.0, [10, 100], cutoff)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= _kernel_bytes(cutoff) + 2**16

    def test_peak_within_the_checked_bytes(self, monkeypatch):
        # 14.09 MB against 3.94 MB checked when the Möbius sums and the tail
        # bound formed float64 arrays over k and d <= n
        checked = checked_bytes(monkeypatch)
        tracemalloc.start()
        try:
            run_lq_convergence(2.0, [2**18], 2**18)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (need,) = checked
        assert peak <= need

    def test_peak_rss_within_the_kernel_figure(self, vmhwm_growth):
        # VmHWM sees what tracemalloc cannot; one float64 array of
        # cutoff + 1 entries, 8 MiB here, breaks the bound
        cutoff = 2**20 - 1
        growth = vmhwm_growth(RUNNER_WARMUP, f"run_lq_convergence(2.0, [10, 100, 1000], {cutoff})")
        assert 0 < growth < _kernel_bytes(cutoff) + 2**20

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_refuses_a_nonfinite_residual(self, bad, monkeypatch):
        def poisoned(n_list, degree, table):
            coeffs = np.zeros(degree + 1)
            coeffs[degree] = bad
            return iter([CoefficientBlocks.of_array(coeffs)])

        monkeypatch.setattr(experiments, "mobius_ims_partial_sums", poisoned)
        with pytest.raises(ValueError, match="finite"):
            run_lq_convergence(2.0, [10], 100)

    @pytest.mark.parametrize("n", [_DIVIDE_BLOCK - 1, _DIVIDE_BLOCK, _DIVIDE_BLOCK + 1, 3 * _DIVIDE_BLOCK + 5])
    def test_tail_bound_equals_the_whole_array_oracle(self, n, mobius_100k):
        # the squarefree d = 2..n in blocks of the walk, which starts at d = 2
        for q in (1.5, 2.0, 1.737):
            got = lq_tail_bound(q, n, 10**6, mobius_100k)
            assert got.hex() == lq_tail_bound_whole(q, n, 10**6, mobius_100k).hex(), q

    def test_tail_bound_refuses_n_beyond_the_table_before_the_walk(self, mobius_1k, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("walk started")

        monkeypatch.setattr(zfhp.arith, "_walk_parts", refuse)
        with pytest.raises(ValueError, match=r"cutoff 1001 outside table range 1\.\.1000"):
            lq_tail_bound(2.0, 1001, 2000, mobius_1k)

    @pytest.mark.parametrize("n, cutoff", [(1, 100), (101, 100), (10, 2**53)])
    def test_tail_bound_refuses_n_and_cutoff_outside_its_proof(self, n, cutoff, mobius_1k):
        with pytest.raises(ValueError, match=r"need 2 <= n <= coeff_cutoff < 2\^53"):
            lq_tail_bound(2.0, n, cutoff, mobius_1k)

    def test_validation(self, mobius_1k):
        with pytest.raises(ValueError):
            run_lq_convergence(1.0, [10], 100)
        for q in (math.inf, math.nan):
            with pytest.raises(ValueError, match="finite"):
                run_lq_convergence(q, [10], 100)
            with pytest.raises(ValueError, match="finite"):
                lq_tail_bound(q, 10, 100, mobius_1k)
        with pytest.raises(ValueError):
            run_lq_convergence(2.0, [10, 10], 100)
        with pytest.raises(ValueError):
            run_lq_convergence(2.0, [10], 5)
        with pytest.raises(ValueError):
            run_lq_convergence(2.0, [], 100)


class TestHpConvergence:
    @pytest.mark.parametrize("degree", [5, _DIVIDE_BLOCK - 1, _DIVIDE_BLOCK, 3 * _DIVIDE_BLOCK + 5])
    def test_running_sums_equal_a_whole_array_cumsum(self, degree, mobius_1k):
        # every sum is the whole-array cumsum's bit for bit, at every pass,
        # with the target's 1 taken from a_0 alone
        (blocks,) = experiments.mobius_ims_partial_sums([100], degree, mobius_1k)
        want = np.cumsum(np.concatenate([block.copy() for block in blocks]))
        want[0] -= 1.0
        coeffs = CoefficientBlocks(blocks.size, functools.partial(experiments._running_sums, blocks))
        for _ in range(2):
            got = np.concatenate([block.copy() for block in coeffs])
            assert np.array_equal(got.view(np.int64), want.view(np.int64))

    def test_peak_within_the_checked_bytes(self, monkeypatch):
        # 11.54 MB against 5.24 MB checked when the Möbius sums formed
        # float64 arrays over k <= n; 4096 nodes undersample the cutoff
        checked = checked_bytes(monkeypatch)
        tracemalloc.start()
        try:
            with pytest.warns(QuadratureWarning):
                run_hp_convergence(0.5, [2**18], 2**18, 4096)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        (need,) = checked
        assert peak <= need

    def test_peak_rss_within_the_kernel_and_transform_figures(self, vmhwm_growth):
        # the run's own memory guard, the kernel's and the transform's bytes
        # as one sum, bounds it; one float64 array of cutoff + 1 entries,
        # 8 MiB here, breaks the bound
        cutoff, nodes = 2**20 - 1, 2**20
        growth = vmhwm_growth(RUNNER_WARMUP, f"run_hp_convergence(0.5, [10, 100], {cutoff}, {nodes})")
        assert 0 < growth < _kernel_bytes(cutoff) + _two_level_bytes(nodes)

    def test_n2_fixture_direct_evaluation(self):
        # independent path: polyval on the half-offset nodes instead of the
        # folded FFT evaluation
        records = run_hp_convergence(0.5, [2], 8, 64)
        coeffs = -hk_coeffs(2, 8).coeffs.copy()
        coeffs[0] -= 1.0
        values = np.polyval(coeffs[::-1], half_offset_points(64))
        want = float(np.mean(np.abs(values) ** 0.5) ** 2.0)
        assert records[0].value == pytest.approx(want, rel=1e-12)

    def test_values_decrease(self):
        with pytest.warns(QuadratureWarning, match="nodes = 1024 undersamples degree 10000"):
            records = run_hp_convergence(0.5, [10, 100], 10**4, 1024)
        assert records[0].value > records[1].value

    def test_norm_nesting_in_p(self):
        low = run_hp_convergence(0.5, [50], 10**3, 1024)[0].value
        high = run_hp_convergence(0.9, [50], 10**3, 1024)[0].value
        assert high >= low - 1e-9

    def test_refinement_discrepancy_recorded(self):
        record = run_hp_convergence(0.5, [10], 10**3, 1024)[0]
        assert record.tail_bound is not None
        assert record.tail_bound >= 0.0

    def test_validation(self):
        with pytest.raises(ValueError):
            run_hp_convergence(1.5, [10], 100, 64)
        with pytest.raises(ValueError):
            run_hp_convergence(0.5, [10, 10], 100, 64)
        with pytest.raises(ValueError):
            run_hp_convergence(0.5, [10], 5, 64)
        with pytest.raises(ValueError):
            run_hp_convergence(0.5, [], 100, 64)

    @pytest.mark.parametrize("nodes", [15, 8, 2**40])
    def test_nodes_checked_before_kernel(self, nodes, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("kernel called")

        monkeypatch.setattr(experiments, "mobius_ims_partial_sums", refuse)
        with pytest.raises(ValueError, match="nodes"):
            run_hp_convergence(0.5, [10], 20_000_000, nodes)

    def test_undersampling_warns_once_per_run(self):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_hp_convergence(0.5, [10, 20, 50], 100, 64)
        assert [w.category for w in caught] == [QuadratureWarning]
        assert "nodes = 64 undersamples degree 100" in str(caught[0].message)

    @pytest.mark.parametrize("nodes, cutoff", [(256, 100), (256, 255)])
    def test_silent_when_nodes_cover_the_degree(self, nodes, cutoff):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            run_hp_convergence(0.5, [10, 50], cutoff, nodes)


class TestMobiusTable:
    @pytest.mark.parametrize(
        "run",
        [
            lambda: run_lq_convergence(2.0, [10, 100, 300], 1000),
            lambda: run_hp_convergence(0.5, [10, 100, 300], 1000, 1024),
        ],
        ids=["lq", "hp"],
    )
    def test_runner_sieves_once_to_the_largest_n(self, run, monkeypatch):
        limits = []

        def counted(limit):
            limits.append(limit)
            return build_mobius(limit)

        monkeypatch.setattr(experiments, "build_mobius", counted)
        run()
        assert limits == [300]

    @pytest.mark.parametrize("ns", [[], [1], [10, 10], [100, 10]])
    def test_bad_n_list_refused_before_sieving(self, ns, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("sieved")

        monkeypatch.setattr(experiments, "build_mobius", refuse)
        with pytest.raises(ValueError, match="n_list must be nonempty|strictly increasing"):
            run_lq_convergence(2.0, ns, 1000)


class TestLambdaSweep:
    def test_small_sweep_passes(self):
        records = run_lambda_sweep([2, 3], [2.0, 1.5 + 1.0j], 10**4)
        assert len(records) == 4
        assert all(r.passed for r in records)

    def test_records_in_k_major_order(self):
        ks, grid = [5, 2, 3], [2.0 + 0j, 0.75 + 1j, 1.5 + 5j]
        records = run_lambda_sweep(ks, grid, 500)
        assert [(r.k, r.s) for r in records] == [(k, s) for k in ks for s in grid]

    def test_pass_budget_is_derived_not_a_slack(self, monkeypatch):
        # at Re s = 2 and N = 1e4 the truncation bound is below 1e-9, so a
        # G_k(s) off by 2e-9 must fail (a fixed slack of 1e-8 would pass it)
        (record,) = run_lambda_sweep([2], [2.0], 10**4)
        assert record.passed and record.tail_bound < 1e-9
        monkeypatch.setattr(experiments, "_g_k_given_zeta", lambda k, s, z: g_k(k, s) + 2e-9)
        (shifted,) = run_lambda_sweep([2], [2.0], 10**4)
        assert not shifted.passed

    def test_one_zeta_call_per_distinct_s(self, monkeypatch):
        calls = []

        def counting_zeta(s):
            calls.append(s)
            return zeta(s)

        monkeypatch.setattr(experiments, "zeta", counting_zeta)
        grid = [2.0 + 0j, 0.75 + 1j, 2.0 + 0j, 1.5 + 5j]
        records = run_lambda_sweep(range(2, 12), grid, 500)
        assert len(records) == 40 and all(r.passed for r in records)
        assert calls == [2.0 + 0j, 0.75 + 1j, 1.5 + 5j]

    def test_rejects_left_of_half_line(self):
        with pytest.raises(DomainError) as err:
            run_lambda_sweep([2], [0.4], 100)
        assert "Re(s) > 1/2" in str(err.value)

    def test_rejects_pole(self):
        with pytest.raises(DomainError):
            run_lambda_sweep([2], [1.0], 100)

    def test_rejects_k_below_two(self):
        with pytest.raises(ValueError):
            run_lambda_sweep([1], [2.0], 100)


@pytest.mark.parametrize(
    "manifest, stage, buffers",
    [
        (build_manifest("lambda_sweep", k_list=list(range(2, 5001)), s_grid=[[2.0, 0.0], [2.0, 1.0]],
                        coeff_cutoff=1000), "lambda_hk_truncated", "lambda records"),
        (build_manifest("mellin_verify", k_list=list(range(1, 5001)), s=[2.0, 1.0]),
         "_mellin_step_pk_bound", "mellin records"),
    ],
    ids=["lambda", "mellin"],
)
def test_rerun_refuses_records_beyond_physical_memory(manifest, stage, buffers, monkeypatch):
    # a sidecar's manifest meets the record guard of the command line:
    # 4999 k over two s need 5.4 MB of lambda records, 5000 k of mellin
    # verify 1.6 MB, on a machine of 1 MiB
    def refuse(*args, **kwargs):
        raise AssertionError(f"{stage} reached")

    monkeypatch.setattr(zfhp.arith, "_physical_bytes", lambda: 2**20)
    monkeypatch.setattr(experiments, stage, refuse)
    with pytest.raises(ValueError, match=f"k_list of {len(manifest.parameters['k_list'])} values needs "
                                         f"an estimated .* of {buffers}"):
        rerun(manifest)


class TestPointwiseApprox:
    def test_residuals_shrink_at_s2(self):
        records = run_pointwise_approx([2.0], [100, 10**4])
        assert records[0].residual > records[1].residual

    def test_reporting_only_in_strip(self):
        records = run_pointwise_approx([0.75], [10, 100])
        assert all(np.isfinite(r.residual) for r in records)

    def test_domain_validation(self):
        with pytest.raises(DomainError):
            run_pointwise_approx([0.4], [10])

    def test_bound_is_a_thousandth_of_the_residual_at_the_benchmark_point(self):
        # the seed-0 approx-1e7 command: n = 100 and 10^4 are table entries,
        # 10^6 and 10^7 come from the recursion
        records = run_pointwise_approx([2.0], [100, 10**4, 10**6, 10**7])
        assert all(0.0 < r.bound <= 1e-3 * r.residual for r in records)

    def test_rerun_gives_identical_bytes(self):
        # criterion 12 with the bound column: three s, tables to 15874, and
        # three n above it through the recursion
        grid = [[2.0, 0.0], [1.5, 1.0], [0.75, 14.13]]
        manifest = build_manifest("pointwise_approx", s_grid=grid, n_list=[10, 10**4, 10**5, 10**6, 2 * 10**6])
        first, second = io.StringIO(), io.StringIO()
        write_approx_csv(rerun(manifest), first)
        write_approx_csv(rerun(manifest), second)
        assert first.getvalue() == second.getvalue()
        assert len(first.getvalue().splitlines()) == 16

    def test_n_validation(self):
        for ns in ([], [1, 10]):
            with pytest.raises(ValueError):
                run_pointwise_approx([2.0], ns)

    @pytest.mark.parametrize("s", [2 + 100j, 2 + 1000j, 0.75 + 30j, 0.75 + 1e5j])
    def test_agrees_with_mpmath_far_up_the_critical_strip(self, s):
        # n = 10 puts L below |s|: the recursion's tails must still start at
        # zeta's own cut, ceil(|s|) + 10, where their series converge
        mu = {2: -1, 3: -1, 5: -1, 6: 1, 7: -1, 10: 1}
        with mpmath.workdps(40):
            sm = mpmath.mpc(s.real, s.imag)
            c = -mpmath.zeta(sm) / sm  # G_k(s) = c (k^-s - 1/k)
            want = abs(sum(m * c * (mpmath.power(k, -sm) - mpmath.mpf(1) / k) for k, m in mu.items()) + 1 / sm)
        (record,) = run_pointwise_approx([s], [10])
        assert record.bound < 1e-12
        assert abs(record.residual - want) <= record.bound


class TestManifests:
    def test_manifest_id_stable_and_param_sensitive(self):
        m1 = build_manifest("lq_convergence", q=2.0, n_list=[10], coeff_cutoff=100)
        m2 = build_manifest("lq_convergence", q=2.0, n_list=[10], coeff_cutoff=100)
        m3 = build_manifest("lq_convergence", q=1.5, n_list=[10], coeff_cutoff=100)
        assert m1.manifest_id == m2.manifest_id
        assert m1.manifest_id != m3.manifest_id

    def test_manifest_id_pinned(self):
        # the first 12 hex digits of the SHA-256 of the canonical JSON; a
        # sidecar's id must not move with the code that hashes it
        manifest = ExperimentManifest("lq_convergence", {"q": 2.0, "n_list": [10, 100], "coeff_cutoff": 1000},
                                      None, "0.1.0")
        assert manifest.canonical_json() == (
            '{"experiment":"lq_convergence","parameters":{"coeff_cutoff":1000,"n_list":[10,100],"q":2.0},'
            '"seed":null,"version":"0.1.0"}'
        )
        assert manifest.manifest_id == "168a4ec9ab72"

    def test_manifest_id_without_the_builtin_sha256(self, monkeypatch):
        # None in sys.modules makes an import of that name raise
        # ImportError: without _sha2 (CPython 3.12 on) the id is hashed by
        # _sha256 (3.10 and 3.11), without both by hashlib, and it stays
        manifest = ExperimentManifest("lq_convergence", {"q": 2.0, "n_list": [10, 100], "coeff_cutoff": 1000},
                                      None, "0.1.0")
        data = manifest.canonical_json().encode()
        has_sha256 = importlib.util.find_spec("_sha256") is not None
        calls = []
        sha256 = hashlib.sha256
        monkeypatch.setattr(hashlib, "sha256", lambda data: calls.append(data) or sha256(data))
        monkeypatch.setitem(sys.modules, "_sha2", None)
        assert manifest.manifest_id == "168a4ec9ab72"
        assert calls == ([] if has_sha256 else [data])
        monkeypatch.setitem(sys.modules, "_sha256", None)
        assert manifest.manifest_id == "168a4ec9ab72"
        assert calls[-1:] == [data]

    def test_rerun_reproduces_values_bit_exactly(self):
        manifest = build_manifest("lq_convergence", q=2.0, n_list=[10, 100], coeff_cutoff=2000)
        first = rerun(manifest)
        second = rerun(manifest)
        for a, b in zip(first, second):
            assert a.value == b.value
            assert a.tail_bound == b.tail_bound

    def test_rerun_lambda_and_approx(self):
        lam = build_manifest("lambda_sweep", k_list=[2], s_grid=[[2.0, 0.0]], coeff_cutoff=500)
        a, b = rerun(lam), rerun(lam)
        assert a[0].residual == b[0].residual
        approx = build_manifest("pointwise_approx", s_grid=[[2.0, 0.0]], n_list=[10, 50])
        c, d = rerun(approx), rerun(approx)
        assert [r.residual for r in c] == [r.residual for r in d]

    @pytest.mark.parametrize(
        "manifest",
        [
            build_manifest("pointwise_approx", s_grid=[], n_list=[1]),
            build_manifest("lambda_sweep", k_list=[], s_grid=[[2.0, 0.0]], coeff_cutoff=100),
            build_manifest("mellin_verify", k_list=[], s=[2.0, 1.0]),
        ],
        ids=["approx-empty-grid", "lambda-empty-k", "mellin-empty-k"],
    )
    def test_rerun_refuses_empty_lists(self, manifest):
        with pytest.raises(ValueError):
            rerun(manifest)

    @pytest.mark.parametrize("key", sorted(LEGACY_SIDECARS))
    def test_sidecar_with_a_mobius_limit_still_reruns(self, key):
        payload = json.loads(LEGACY_SIDECARS[key])
        manifest_id = payload.pop("id")
        legacy = ExperimentManifest(**payload)
        assert legacy.manifest_id == manifest_id
        parameters = dict(legacy.parameters)
        assert parameters.pop("mobius_limit") > max(parameters["n_list"])
        current = build_manifest(legacy.experiment, **parameters)
        assert current.manifest_id != manifest_id  # the id moves with the key
        assert without_wall_time(rerun(legacy)) == without_wall_time(rerun(current))

    def test_sidecar_with_a_tol_still_reruns(self):
        # as the CLI wrote it while mellin verify took --tol (default 1e-8)
        payload = json.loads(
            '{"experiment": "mellin_verify", "id": "4171a991b283", "parameters": '
            '{"k_list": [1, 2, 3, 4], "s": [2.0, 1.0], "tol": 1e-08}, "seed": null, "version": "0.1.0"}'
        )
        manifest_id = payload.pop("id")
        legacy = ExperimentManifest(**payload)
        assert legacy.manifest_id == manifest_id
        parameters = dict(legacy.parameters)
        del parameters["tol"]
        current = build_manifest(legacy.experiment, **parameters)
        assert current.manifest_id != manifest_id  # the id moves with the key
        records = rerun(legacy)
        assert records == rerun(current)
        assert all(r.ok and r.abs_err <= r.bound for r in records)

    def test_rerun_unknown_experiment(self):
        with pytest.raises(ValueError):
            rerun(build_manifest("nope"))

    def test_manifest_json_round_trip(self):
        manifest = build_manifest("lambda_sweep", k_list=[2, 3], s_grid=[[2.0, 0.0]], coeff_cutoff=10)
        buf = io.StringIO()
        write_manifest(manifest, buf)
        payload = json.loads(buf.getvalue())
        assert payload["experiment"] == "lambda_sweep"
        assert payload["id"] == manifest.manifest_id
        assert payload["parameters"]["k_list"] == [2, 3]


class TestCsvOutput:
    def test_convergence_columns(self):
        records = run_lq_convergence(2.0, [10], 100)
        rows = csv_rows(write_convergence_csv, records)
        assert list(rows[0]) == [
            "n",
            "norm_kind",
            "param",
            "coeff_cutoff",
            "value",
            "tail_bound",
            "wall_time_ms",
        ]
        assert rows[0]["n"] == "10"
        assert float(rows[0]["value"]) == records[0].value

    def test_lambda_columns(self):
        records = run_lambda_sweep([2], [2.0 + 1.0j], 200)
        rows = csv_rows(write_lambda_csv, records)
        assert list(rows[0]) == ["k", "s_re", "s_im", "residual", "tail_bound", "pass"]
        assert rows[0]["pass"] in ("true", "false")
        assert float(rows[0]["s_im"]) == 1.0

    def test_approx_columns(self):
        records = run_pointwise_approx([2.0], [10])
        rows = csv_rows(write_approx_csv, records)
        assert list(rows[0]) == ["s_re", "s_im", "n", "residual", "bound"]

    def test_weights_columns_and_quoting(self):
        results = [classify(WeightFamily("powerlog", alpha=1.0, beta=1.0))]
        rows = csv_rows(write_weights_csv, results)
        assert list(rows[0]) == ["family", "params", "c4_r", "rm_bounded", "strip"]
        assert rows[0]["params"] == "1.0,1.0"  # comma-carrying field survives round trip
        assert rows[0]["strip"] == "Right"

    def test_probe_csv(self):
        result = extremal_probe(WeightFamily("identity"), 0.75, all_integers(), 5)
        rows = csv_rows(write_probe_csv, result)
        assert list(rows[0]) == ["i", "n", "ratio", "running_min", "running_max"]
        assert len(rows) == 5

    def test_float_round_trip_is_exact(self):
        records = run_lq_convergence(2.0, [10], 100)
        rows = csv_rows(write_convergence_csv, records)
        assert float(rows[0]["value"]) == records[0].value
        assert float(rows[0]["tail_bound"]) == records[0].tail_bound

    def test_same_records_serialize_to_same_bytes(self):
        records = run_lq_convergence(2.0, [10], 100)
        a, b = io.StringIO(), io.StringIO()
        write_convergence_csv(records, a)
        write_convergence_csv(records, b)
        assert a.getvalue() == b.getvalue()
