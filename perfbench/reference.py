"""Reference values for checking the CSV rows of one workload, without `zfhp`.

Usage: python3 perfbench/reference.py WORKLOAD SEED OUT.json

Everything here is computed independently of the program under test: a
numpy Möbius sieve (checked against `sympy.mobius` on a prefix), the closed
form `(c_n - D_m(n))/m` of the Möbius partial sums with an exact integer
divisor sieve, `mpmath.zeta`, and a direct half-offset FFT of zero-padded
coefficients.  The output lists, for every expected CSV row, its key
columns and the checks its other columns must pass; `run.py` applies them.

Tolerances are derived from floating-point error bounds, with u = 2^-53
and gamma_n = n u / (1 - n u) (Higham, "Accuracy and Stability of
Numerical Algorithms", 2nd ed., 2002, ch. 3-4 and 24).
"""

from __future__ import annotations

import json
import math
import sys

import mpmath
import numpy as np
import sympy

import workloads

U = 2.0**-53
SYMPY_PREFIX = 2000
# zfhp.special.zeta evaluates to this relative accuracy (its `target`).
ZETA_TARGET = 1e-13
# Node count taken as converged for the H^p fault check: at least 20 times
# the degree 100000 of the checked command; 2^21 and 2^22 nodes agree there
# to 3e-9, far below the refinement discrepancies being checked.
CONVERGED_NODES = 2**21
FAULT = "hp-default-nodes"


def gamma(n: float) -> float:
    return n * U / (1.0 - n * U)


def mobius_sieve(limit: int) -> np.ndarray:
    """mu(0..limit) by an Eratosthenes-style sieve; mu[0] = 0."""
    mu = np.ones(limit + 1, dtype=np.int8)
    mu[0] = 0
    is_prime = np.ones(limit + 1, dtype=bool)
    is_prime[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if is_prime[p]:
            is_prime[p * p :: p] = False
    for p in np.flatnonzero(is_prime).tolist():
        mu[p::p] *= -1
        if p * p <= limit:
            mu[p * p :: p * p] = 0
    prefix = min(limit, SYMPY_PREFIX)
    expected = [0] + [int(sympy.mobius(k)) for k in range(1, prefix + 1)]
    if mu[: prefix + 1].tolist() != expected:
        raise RuntimeError("reference Möbius sieve disagrees with sympy.mobius")
    return mu


class PartialSums:
    """sum_{k=2..n} mu(k) (I - S) h_k in closed form, advanced over increasing n.

    Coefficient 0 is -L_n with L_n = sum mu(k) log(k)/k; coefficient m >= 1
    is (c_n - D_m(n))/m with c_n = sum mu(k)/k and the exact integer
    D_m(n) = sum_{d | m, 2 <= d <= n} mu(d).  `absdiv[m]` counts the
    squarefree divisors d of m with 2 <= d <= n, for error budgets.
    """

    def __init__(self, mu: np.ndarray, size: int) -> None:
        self.mu = mu
        self.d = np.zeros(size, dtype=np.int64)
        self.absdiv = np.zeros(size, dtype=np.int64)
        self.n = 1

    def advance(self, n: int) -> None:
        for k in range(self.n + 1, n + 1):
            m = int(self.mu[k])
            if m:
                self.d[k::k] += m
                self.absdiv[k::k] += 1
        self.n = n

    def scalars(self) -> tuple[float, float, float, float]:
        """(c_n, L_n, sum |mu(k)|/k, sum |mu(k)| log(k)/k) over k = 2..n."""
        k = np.arange(2, self.n + 1, dtype=np.float64)
        mu = self.mu[2 : self.n + 1].astype(np.float64)
        log_k = np.log(k)
        return (
            math.fsum((mu / k).tolist()),
            math.fsum((mu * log_k / k).tolist()),
            math.fsum((np.abs(mu) / k).tolist()),
            math.fsum((np.abs(mu) * log_k / k).tolist()),
        )

    def ims_coeffs(self, degree: int) -> np.ndarray:
        c_n, l_n, _, _ = self.scalars()
        b = np.empty(degree + 1, dtype=np.float64)
        b[0] = -l_n
        b[1:] = (c_n - self.d[1 : degree + 1]) / np.arange(1, degree + 1, dtype=np.float64)
        return b

    def term_mass(self, degree: int) -> np.ndarray:
        """Bound on the sum of |terms| that make up each coefficient, per degree."""
        _, _, abs_c, abs_l = self.scalars()
        out = np.empty(degree + 1, dtype=np.float64)
        out[0] = abs_l
        out[1:] = (abs_c + self.absdiv[1 : degree + 1]) / np.arange(1, degree + 1, dtype=np.float64)
        return out


def check(col: str, op: str, arg, why: str, fault: str | None = None) -> dict:
    """`row[col] op arg`; op is le, ge, eq (text) or within: |row[col] - arg[0]| <= row[arg[1]]."""
    return {"col": col, "op": op, "arg": arg, "why": why, "fault": fault}


def close(col: str, value: float, tol: float, why: str) -> list[dict]:
    return [check(col, "ge", value - tol, why), check(col, "le", value + tol, why)]


def lq_rows(cmd: workloads.Command) -> list[dict]:
    """`value` against the closed-form l^q residual; `tail_bound` against tail mass.

    The program adds at most n terms into each coefficient, each product
    rounded at most three times, so coefficient m is off by at most
    gamma_{n+3} times the sum of its |terms| (plus u for subtracting 1 - z).
    By Minkowski the norms then differ by at most the l^q norm of those
    errors, plus the summation error gamma_N of a sum of N positive powers.
    """
    q, cutoff = cmd.params["q"], cmd.params["coeff_cutoff"]
    n_list = cmd.params["n_list"]
    sums = PartialSums(mobius_sieve(max(n_list)), 2 * cutoff + 1)
    j = np.arange(cutoff + 1, 2 * cutoff + 1, dtype=np.float64)
    rows = []
    for n in n_list:
        sums.advance(n)
        c_n = sums.scalars()[0]
        res = sums.ims_coeffs(cutoff)
        res[0] -= 1.0
        res[1] += 1.0
        ref = math.fsum((np.abs(res) ** q).tolist()) ** (1.0 / q)
        err = gamma(n + 3) * sums.term_mass(cutoff) + U * np.abs(res)
        err_norm = float(np.sum(err**q)) ** (1.0 / q)
        tol = err_norm + ref * (gamma(cutoff + 1) / q + 8 * U)
        tail = np.abs((c_n - sums.d[cutoff + 1 :]) / j)
        tail_mass = math.fsum((tail**q).tolist()) ** (1.0 / q)
        rows.append({
            "key": {"n": n, "norm_kind": "lq", "param": q, "coeff_cutoff": cutoff},
            "checks": close("value", ref, tol, "closed-form l^q residual")
            + [check("tail_bound", "ge", tail_mass * (1.0 - gamma(cutoff)),
                     "l^q mass of the residual over (N, 2N]")],
        })
    return rows


def lambda_rows(cmd: workloads.Command) -> list[dict]:
    """`residual` <= truncation bound + rounding budget + zeta budget, and `pass`.

    Truncation: the h_k coefficients obey |a_m| <= 2/m for m >= 2k (from
    a_m = (H_m - H_{floor(m/k)} - log k)/k and H_n = log n + gamma +
    1/(2n) - e_n, 0 < e_n < 1/(12 n^2)), and |f_m(s)| <= |1-s|/|s| m^-Re(s),
    so the discarded tail beyond N >= 2k is at most
    2 |1-s|/|s| N^-sigma / sigma.
    Rounding: coefficient m is a running sum of m + 1 terms (error at most
    gamma_{m+3} times their absolute sum S_m); f_m(s) carries a relative
    error of at most u (2 |1-s| log(m+1) + 16) from exp of a rounded
    exponent; the product adds 4u.  The compensated sum adds u |value|.
    """
    cutoff, k_list = cmd.params["coeff_cutoff"], cmd.params["k_list"]
    grid = [complex(re, im) for re in cmd.params["res"] for im in cmd.params["ims"]]
    m = np.arange(1, cutoff + 1, dtype=np.float64)
    log_m1 = np.log(m + 1.0)
    run_err = (m + 3.0) * U / (1.0 - (m + 3.0) * U)
    mpmath.mp.dps = 30
    zetas = {s: complex(mpmath.zeta(mpmath.mpc(s.real, s.imag))) for s in grid}
    rows = []
    for k in k_list:
        if cutoff < 2 * k:
            raise ValueError("the truncation bound needs coeff_cutoff >= 2k")
        b = (1.0 / k) / m
        b[k - 1 :: k] -= 1.0 / m[k - 1 :: k]
        s_m = (math.log(k) / k + np.cumsum(np.abs(b))) * (1.0 + 1e-12)
        for s in grid:
            sigma, ratio = s.real, abs(1.0 - s) / abs(s)
            g = -(zetas[s] / s) * (complex(mpmath.power(k, -s)) - 1.0 / k)
            trunc = 2.0 * ratio * cutoff ** (-sigma) / sigma
            f_bound = ratio * m ** (-sigma)
            f_rel = U * (2.0 * abs(1.0 - s) * log_m1 + 16.0)
            rounding = float(np.sum((run_err + f_rel + 4 * U) * s_m * f_bound))
            head = 4 * U * math.log(k) / k / abs(s)
            budget = trunc + rounding + head + (ZETA_TARGET + 16 * U) * abs(g) + U * (abs(g) + trunc)
            rows.append({
                "key": {"k": k, "s_re": s.real, "s_im": s.imag},
                "checks": [check("residual", "le", budget, "truncation + rounding + zeta budget"),
                           check("pass", "eq", "true", "program pass flag")],
            })
    return rows


def approx_rows(cmd: workloads.Command) -> list[dict]:
    """`residual` against |1/s - (zeta(s)/s) sum_{k=2..n} mu(k) (k^-s - 1/k)|.

    The sum uses this module's sieve and math.fsum, zeta(s) comes from
    mpmath.  Each term k^-s - 1/k is off by at most
    u (2 s log k + 7) k^-s + 5u/k in either computation (exp of a rounded
    exponent, one subtraction); fsum rounds once; the program's zeta is
    good to ZETA_TARGET relative.
    """
    s = cmd.params["s_re"]
    n_list = cmd.params["n_list"]
    mu = mobius_sieve(max(n_list))
    mpmath.mp.dps = 30
    zeta_s = mpmath.zeta(s)
    rows = []
    for n in n_list:
        k = np.arange(2, n + 1, dtype=np.float64)
        m = mu[2 : n + 1].astype(np.float64)
        pw = np.power(k, -s)
        total = math.fsum((m * (pw - 1.0 / k)).tolist())
        ref = float(abs(1 / mpmath.mpf(s) - zeta_s / s * total))
        term_err = math.fsum((np.abs(m) * (U * (2.0 * s * np.log(k) + 7.0) * pw + 5.0 * U / k)).tolist())
        scale = float(zeta_s) / s
        tol = scale * (2.0 * term_err + 2.0 * U * abs(total)) + scale * abs(total) * (ZETA_TARGET + 8 * U) + 4 * U / s
        rows.append({
            "key": {"s_re": s, "s_im": 0.0, "n": n},
            "checks": close("residual", ref, tol, "Möbius sum with own sieve and mpmath.zeta"),
        })
    return rows


def half_offset_values(a: np.ndarray, nodes: int) -> np.ndarray:
    """Values of sum a_m z^m at z_j = exp(2 pi i (j + 1/2)/nodes), j < nodes.

    Zero-pads the coefficients to nodes * r with r odd, so that every node
    is also a half-offset node of the padded transform (index j r + (r-1)/2),
    and takes one FFT; no folding.
    """
    r = -(-a.size // nodes)
    r += 1 - r % 2
    size = nodes * r
    x = np.zeros(size, dtype=np.complex128)
    x[: a.size] = a * np.exp(1j * math.pi * np.arange(a.size) / size)
    return (np.fft.ifft(x) * size)[(r - 1) // 2 :: r]


def p_mean(values: np.ndarray, p: float) -> float:
    return float(np.mean(np.abs(values) ** p) ** (1.0 / p))


def mean_shift_bound(abs_vals: np.ndarray, p: float, delta: float) -> float:
    """Bound on |mean |f + e|^p - mean |f|^p| over nodes with rms(e) <= delta, 0 < p <= 1.

    No node error exceeds delta_max = delta sqrt(nodes).  Where
    |f_j| > 2 delta_max the change is at most p |e_j| (|f_j| - delta_max)^(p-1),
    summed by Cauchy-Schwarz; elsewhere it is at most |e_j|^p
    (subadditivity), summed by Hölder over those nodes.
    """
    nodes = abs_vals.size
    delta_max = delta * math.sqrt(nodes)
    large = abs_vals > 2.0 * delta_max
    small = nodes - int(np.count_nonzero(large))
    lip = p * math.sqrt(float(np.sum((abs_vals[large] - delta_max) ** (2.0 * p - 2.0))))
    total = lip * delta * math.sqrt(nodes) + small ** (1.0 - p / 2.0) * (nodes * delta**2) ** (p / 2.0)
    return total / nodes


def hp_rows(cmd: workloads.Command) -> list[dict]:
    """`value` against the reference p-mean at the same nodes, and <= the l^2 norm.

    Rounding model, first order: a running sum of m terms of absolute sum
    S_m is off by about sqrt(m) u S_m (Higham, sec. 2.8), and both the
    program and this reference build the h_k coefficients that way.  By
    Parseval the node values then differ in root mean square by delta, and
    the mean of |f|^p moves by at most `mean_shift_bound`.  Each FFT adds
    5 u log2(size)
    relative error in the 2-norm, folding r blocks adds r u.
    The l^2 check is the power-mean inequality with discrete Parseval: the
    p-mean is at most the quadratic mean, which is the l^2 norm of the
    coefficients folded onto the nodes (their plain l^2 norm once
    nodes > degree).
    When `fault_check` is set, |value - converged| <= tail_bound is checked,
    with the converged p-mean at CONVERGED_NODES nodes.
    """
    p, cutoff, nodes = cmd.params["p"], cmd.params["coeff_cutoff"], cmd.params["nodes"]
    n_list = cmd.params["n_list"]
    sums = PartialSums(mobius_sieve(max(n_list)), cutoff + 1)
    idx = np.arange(cutoff + 1, dtype=np.float64)
    fold = -(-(cutoff + 1) // nodes)
    rows = []
    for n in n_list:
        sums.advance(n)
        a = np.cumsum(sums.ims_coeffs(cutoff))
        a[0] -= 1.0
        vals = half_offset_values(a, nodes)
        ref = p_mean(vals, p)
        mean_p = ref**p
        coeff_err = U * (math.sqrt(n) + np.sqrt(idx + 1.0)) * np.cumsum(sums.term_mass(cutoff))
        a_norm = float(np.linalg.norm(a))
        padded = fold | 1
        delta = (
            math.sqrt(fold) * (2.0 * float(np.linalg.norm(coeff_err)))
            + math.sqrt(fold) * U * (5.0 * math.log2(nodes) + fold + 4.0) * a_norm
            + math.sqrt(padded) * U * (5.0 * math.log2(nodes * padded) + 4.0) * a_norm
        )
        d_mean = mean_shift_bound(np.abs(vals), p, delta) + 2.0 * gamma(nodes + 2) * mean_p
        tol = (mean_p + d_mean) ** (1.0 / p) - ref
        phased = np.zeros(nodes * fold, dtype=np.complex128)
        phased[: a.size] = a * np.exp(1j * math.pi * idx / nodes)
        l2 = float(np.linalg.norm(phased.reshape(fold, nodes).sum(axis=0)))
        checks = close("value", ref, tol, "half-offset FFT p-mean at the same nodes")
        checks.append(check("value", "le", l2 + tol, "power-mean inequality and Parseval"))
        if cmd.params["fault_check"]:
            converged = p_mean(half_offset_values(a, CONVERGED_NODES), p)
            checks.append(check("value", "within", [converged, "tail_bound"],
                                "|value - converged p-mean| <= tail_bound", FAULT))
        rows.append({"key": {"n": n, "norm_kind": "hp", "param": p, "coeff_cutoff": cutoff},
                     "checks": checks})
    return rows


_ROWS = {"lq": lq_rows, "lambda": lambda_rows, "approx": approx_rows, "hp": hp_rows}


def main(argv: list[str]) -> int:
    name, seed, out = argv[0], int(argv[1]), argv[2]
    expected = [_ROWS[cmd.params["kind"]](cmd) for cmd in workloads.commands(name, seed)]
    with open(out, "w", encoding="utf-8") as handle:
        json.dump({"workload": name, "seed": seed, "known_fault": FAULT, "commands": expected}, handle)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
