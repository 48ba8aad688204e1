"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  Every tolerance is fixed here, not tuned at runtime;
oracles (trial division, divisor enumeration, direct Dirichlet sums,
independent coefficient paths, polyval evaluation) are implemented inline
or imported from ``oracles.py``.
"""

import csv
import io
import math
import time
from contextlib import nullcontext

import numpy as np
import pytest

from zfhp import (
    QuadratureWarning,
    TruncatedSeries,
    build_mobius,
    classify,
    duren_coefficient_check,
    g_k,
    hardy_from_lq_check,
    hk_coeffs,
    hp_norm_estimate,
    lambda_apply,
    lq_norm,
    mellin_rho_alpha,
    mellin_step_pk,
    mobius_logsum_over_k,
    mobius_sum_over_k,
    reverse_holder_check,
    rho_alpha_tail_bound,
    rm_sequence,
    zeta,
)
from zfhp.special import f_k, fk_upper_bound, fk_values
from zfhp.experiments import (
    build_manifest,
    rerun,
    run_hp_convergence,
    run_lambda_sweep,
    run_lq_convergence,
    write_approx_csv,
    write_convergence_csv,
    write_lambda_csv,
    write_probe_csv,
)
from zfhp.weights import WeightFamily, all_integers, extremal_probe

from oracles import lq_residual_oracle

GRID = [complex(re, im) for re in (0.6, 0.75, 1.5, 2.0) for im in (0.0, 1.0, 5.0)]


def report(criterion: str, ok: bool, elapsed: float, budget: float, detail: str) -> None:
    flag = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"{flag} {criterion} [{elapsed:.2f}s / {budget:.0f}s]: {detail}")
    assert ok, f"{criterion}: {detail}"
    assert elapsed < budget, f"{criterion}: runtime {elapsed:.2f}s over budget {budget:.0f}s"


def test_criterion_01_sieve_exactness():
    from test_arith import mu_by_trial_division, primes_by_trial_division

    t0 = time.perf_counter()
    table = build_mobius(10**5)
    primes = primes_by_trial_division(math.isqrt(10**5) + 1)
    mu_bad = sum(
        1 for n in range(1, 10**5 + 1) if table.values[n] != mu_by_trial_division(n, primes)
    )
    elapsed = time.perf_counter() - t0
    report(
        "criterion 1 (sieve exactness)",
        mu_bad == 0,
        elapsed,
        5.0,
        f"mu mismatches: {mu_bad}/1e5",
    )


def test_criterion_02_mobius_limit_trends():
    t0 = time.perf_counter()
    table = build_mobius(10**6)
    s_small = abs(mobius_sum_over_k(table, 10**4))
    s_large = abs(mobius_sum_over_k(table, 10**6))
    l_small = abs(mobius_logsum_over_k(table, 10**4) + 1.0)
    l_large = abs(mobius_logsum_over_k(table, 10**6) + 1.0)
    elapsed = time.perf_counter() - t0
    report(
        "criterion 2 (Mobius limit trends)",
        s_large < s_small and l_large < l_small,
        elapsed,
        10.0,
        f"|sum mu/k|: {s_small:.2e} -> {s_large:.2e}; |sum mu log k/k + 1|: {l_small:.2e} -> {l_large:.2e}",
    )


def test_criterion_03_lambda_g_identity():
    t0 = time.perf_counter()
    records = run_lambda_sweep(range(2, 11), GRID, 10**5)
    all_pass = all(r.residual <= r.tail_bound + 1e-8 for r in records)
    anchor = lambda_apply(hk_coeffs(2, 10**5), 2.0).value
    anchor_ok = abs(anchor - (math.pi**2 / 6.0) / 8.0) < 1e-6
    elapsed = time.perf_counter() - t0
    worst = max(r.residual - r.tail_bound for r in records)
    report(
        "criterion 3 (Lambda-G identity)",
        all_pass and anchor_ok,
        elapsed,
        60.0,
        f"{len(records)} (k, s) pairs, worst residual-minus-bound {worst:.2e}, "
        f"anchor |Lambda(h_2)(2) - zeta(2)/8| = {abs(anchor - (math.pi**2 / 6.0) / 8.0):.2e}",
    )


def test_criterion_04_mellin_verification():
    t0 = time.perf_counter()
    worst_pk = 0.0
    for s in GRID:
        for k in range(1, 11):
            worst_pk = max(worst_pk, abs(mellin_step_pk(k, s) - f_k(k, s)))
    worst_rho = 0.0
    for alpha in (0.25, 0.5, 0.75):
        for s in (2.0, 3.0, 2.0 + 1.0j):
            ref = (zeta(s).value / s) * (alpha - alpha ** complex(s))
            worst_rho = max(worst_rho, abs(mellin_rho_alpha(alpha, s) - ref))
    elapsed = time.perf_counter() - t0
    report(
        "criterion 4 (Mellin verification)",
        worst_pk < 1e-8 and worst_rho < 1e-6,
        elapsed,
        30.0,
        f"worst p_k error {worst_pk:.2e} (tol 1e-8), worst rho_alpha error {worst_rho:.2e} (tol 1e-6)",
    )


def test_criterion_05_fk_asymptotics():
    t0 = time.perf_counter()
    k = np.arange(1, 10**4 + 1, dtype=np.float64)
    ok = True
    detail_parts = []
    for s in GRID:
        if s == 1.0:
            continue
        mags = np.abs(fk_values(10**4, s))
        ratios = mags * k**s.real
        sample = ratios[np.r_[0:100, 99 : 10**4 : 100]]
        c1, c2 = float(np.min(sample)), float(np.max(sample))
        in_bracket = c1 > 0 and np.all(ratios >= c1 * (1 - 1e-9)) and np.all(
            ratios <= c2 * (1 + 1e-9)
        )
        bound_ok = np.all(mags <= fk_upper_bound(k, s) * (1 + 1e-12))
        ok = ok and in_bracket and bound_ok
    elapsed = time.perf_counter() - t0
    report(
        "criterion 5 (f_k asymptotics)",
        ok,
        elapsed,
        10.0,
        f"bracket and explicit bound verified for k <= 1e4 on {len(GRID)} grid points",
    )


def test_criterion_06_lq_convergence():
    t0 = time.perf_counter()
    table = build_mobius(1000)
    ok = True
    details = []
    for q in (1.5, 2.0):
        records = run_lq_convergence(q, [10, 100, 1000], 10**5)
        values = [r.value for r in records]
        decreasing = all(b < a for a, b in zip(values, values[1:]))
        ok = ok and decreasing
        details.append(f"q={q}: " + " > ".join(f"{v:.4f}" for v in values))
        if q == 2.0:
            rel = max(
                abs(r.value - lq_residual_oracle(2.0, r.n, 10**5, table)) / r.value
                for r in records
            )
            ok = ok and rel <= 1e-10
            details.append(f"oracle rel diff {rel:.2e}")
    elapsed = time.perf_counter() - t0
    report("criterion 6 (l^q convergence)", ok, elapsed, 120.0, "; ".join(details))


def test_criterion_07_hp_convergence():
    t0 = time.perf_counter()
    # 8192 nodes undersample degree 10^5 on purpose, and the run says so
    with pytest.warns(QuadratureWarning, match="nodes = 8192 undersamples degree 100000"):
        records = run_hp_convergence(0.5, [10, 100, 1000], 10**5, 8192)
    values = [r.value for r in records]
    decreasing = all(b < a for a, b in zip(values, values[1:]))
    # refinement control: the 8192- vs 16384-node sweeps agree to 1e-4
    # relative to the sweep scale.  (Per-record relative agreement is not
    # attainable here: the ~2e-5 absolute aliasing floor of the 8192-node
    # rule does not shrink with the residual; the per-record ratios are
    # printed for transparency.)
    scale = max(values)
    sweep_rel = max(r.tail_bound for r in records) / scale
    per_record = ", ".join(f"{r.tail_bound / r.value:.1e}" for r in records)
    elapsed = time.perf_counter() - t0
    report(
        "criterion 7 (H^p convergence)",
        decreasing and sweep_rel <= 1e-4,
        elapsed,
        300.0,
        f"values {' > '.join(f'{v:.4f}' for v in values)}; refinement/scale {sweep_rel:.2e}"
        f" (per-record ratios {per_record})",
    )


def test_criterion_08_table_reproduction():
    t0 = time.perf_counter()
    expected = {
        "identity": "Right",
        "power": "Right",
        "powerlog": "Right",
        "quasiexp": "None",
        "stretchedexp": "None",
        "geometric": "Left",
        "superexp": "Left",
    }
    families = [WeightFamily("identity")]
    families += [WeightFamily("power", alpha=a) for a in (0.25, 1.0, 2.0)]
    families += [
        WeightFamily("powerlog", alpha=a, beta=b) for a in (0.25, 1.0, 2.0) for b in (1.0, 2.0)
    ]
    families += [WeightFamily("quasiexp", alpha=a) for a in (0.25, 1.0, 2.0)]
    families += [WeightFamily("stretchedexp", alpha=0.25)]  # only sample inside (0, 1)
    families += [WeightFamily("geometric", eps=e) for e in (0.25, 0.5, 0.9)]
    families += [WeightFamily("superexp", alpha=2.0)]  # only sample above 1
    bad = [f.label for f in families if classify(f).strip != expected[f.kind]]
    elapsed = time.perf_counter() - t0
    report(
        "criterion 8 (classification rows)",
        not bad,
        elapsed,
        30.0,
        f"{len(families)} parameterizations over all seven kinds; mismatches: {bad or 'none'}",
    )


def test_criterion_09_rm_diagnostics():
    t0 = time.perf_counter()
    ok = True
    details = []
    for eps in (0.25, 0.5, 0.9):
        rm = rm_sequence(WeightFamily("geometric", eps=eps), 50)
        dev = float(np.max(np.abs(rm - 1.0 / (1.0 - eps * eps))))
        ok = ok and dev < 1e-10
        details.append(f"geometric({eps}) dev {dev:.1e}")
    rm = rm_sequence(WeightFamily("power", alpha=2.0), 1000)
    growing = bool(np.all(np.diff(rm[10:]) > 0)) and rm[1000] > 100.0
    ok = ok and growing
    details.append(f"power(2): r_1000 = {rm[1000]:.1f}")
    elapsed = time.perf_counter() - t0
    report("criterion 9 (r_m diagnostics)", ok, elapsed, 10.0, "; ".join(details))


def test_criterion_10_inequality_battery():
    t0 = time.perf_counter()
    rng = np.random.default_rng(20260809)
    worst_duren = worst_hardy = worst_holder = worst_parseval = -math.inf
    for _ in range(100):
        degree = int(rng.integers(1, 65))
        f = TruncatedSeries(rng.uniform(-1, 1, degree + 1) + 1j * rng.uniform(-1, 1, degree + 1))
        lhs, rhs = duren_coefficient_check(f)
        worst_duren = max(worst_duren, lhs - rhs)
        lhs, rhs = hardy_from_lq_check(f, 1.5)
        worst_hardy = max(worst_hardy, lhs - rhs)
        lhs, rhs = reverse_holder_check(f, 1.0, 0.4, 4096)
        worst_holder = max(worst_holder, lhs - rhs)
        worst_parseval = max(
            worst_parseval, abs(hp_norm_estimate(f, 2.0) - lq_norm(f, 2.0))
        )
    elapsed = time.perf_counter() - t0
    ok = (
        worst_duren <= 1e-9
        and worst_hardy <= 1e-9
        and worst_holder <= 1e-9
        and worst_parseval <= 1e-12
    )
    report(
        "criterion 10 (inequality battery)",
        ok,
        elapsed,
        60.0,
        f"worst slack violations: duren {worst_duren:.1e}, hardy {worst_hardy:.1e}, "
        f"reverse-holder {worst_holder:.1e}; parseval dev {worst_parseval:.1e}",
    )


def test_criterion_11_extremal_probe():
    t0 = time.perf_counter()
    flat = extremal_probe(WeightFamily("power", alpha=0.25), 0.75, all_integers(), 10**4)
    flat_ok = flat.running_min == 1.0 and flat.running_max == 1.0
    decay = extremal_probe(WeightFamily("identity"), 0.75, all_integers(), 10**4)
    decay_ok = decay.running_min < 0.1 and decay.running_max == 1.0
    elapsed = time.perf_counter() - t0
    report(
        "criterion 11 (extremal probe)",
        flat_ok and decay_ok,
        elapsed,
        5.0,
        f"power ratio constant at 1; identity running_min {decay.running_min:.4f} < 0.1",
    )


def test_criterion_12_determinism():
    t0 = time.perf_counter()

    def render(records, writer):
        buf = io.StringIO()
        writer(records, buf)
        return buf.getvalue()

    def strip_wall_time(text: str) -> list[dict]:
        rows = list(csv.DictReader(io.StringIO(text)))
        for row in rows:
            row.pop("wall_time_ms", None)
        return rows

    ok = True
    details = []
    manifests = [
        (
            build_manifest("lq_convergence", q=1.5, n_list=[10, 100], coeff_cutoff=2000),
            write_convergence_csv,
            True,
        ),
        (
            build_manifest(
                "hp_convergence", p=0.5, n_list=[10, 100], coeff_cutoff=2000, nodes=256
            ),
            write_convergence_csv,
            True,
        ),
        (
            build_manifest(
                "lambda_sweep", k_list=[2, 3], s_grid=[[2.0, 0.0], [1.5, 1.0]], coeff_cutoff=5000
            ),
            write_lambda_csv,
            False,
        ),
        (
            build_manifest("pointwise_approx", s_grid=[[2.0, 0.0]], n_list=[10, 100]),
            write_approx_csv,
            False,
        ),
        (
            build_manifest("weights_probe", family="power:0.25", r=0.75, subsequence="primes", count=1000),
            write_probe_csv,
            False,
        ),
    ]
    for manifest, writer, has_wall_time in manifests:
        # the H^p manifest's 256 nodes undersample degree 2000 on purpose
        undersampled = manifest.experiment == "hp_convergence"
        with pytest.warns(QuadratureWarning) if undersampled else nullcontext():
            first = render(rerun(manifest), writer)
            second = render(rerun(manifest), writer)
        if has_wall_time:
            same = strip_wall_time(first) == strip_wall_time(second)
            note = "bit-exact outside wall_time_ms"
        else:
            same = first == second
            note = "bit-exact"
        ok = ok and same
        details.append(f"{manifest.experiment}: {note}" if same else f"{manifest.experiment}: DIFFERS")
    elapsed = time.perf_counter() - t0
    report("criterion 12 (determinism)", ok, elapsed, 60.0, "; ".join(details))
