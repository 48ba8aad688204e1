"""Independent oracles shared by the test modules.

``accumulated_ims`` is the per-k accumulation that production code replaced
with the closed-form kernel ``zfhp.series.mobius_ims_partial_sums``: it adds
mu(k) (I - S) h_k one k at a time over the full coefficient range, in
O(n * degree), from the generator's own coefficient formula rather than
from divisor sums.

``mobius_linear_sieve`` is the pure-Python linear sieve that
``zfhp.arith.build_mobius`` replaced, and ``approx_reciprocal_s_oracle``
the per-n full-range sum that ``approx_reciprocal_s_partial_sums``
replaced.
"""

import math

import numpy as np

from zfhp import zeta


def accumulated_ims(n: int, degree: int, table) -> np.ndarray:
    """Coefficients of sum_{k=2..n} mu(k) (I - S) h_k, accumulated in increasing k."""
    acc = np.zeros(degree + 1, dtype=np.float64)
    inv = np.zeros(degree + 1, dtype=np.float64)
    inv[1:] = 1.0 / np.arange(1, degree + 1, dtype=np.float64)
    for k in range(2, n + 1):
        mu = float(table.values[k])
        if mu:
            acc[0] += mu * (-math.log(k) / k)
            acc[1:] += (mu / k) * inv[1:]
            acc[k::k] -= mu * inv[k::k]
    return acc


def lq_residual_oracle(q: float, n: int, degree: int, table) -> float:
    """l^q distance of the accumulated partial sum from 1 - z, truncated at ``degree``."""
    res = accumulated_ims(n, degree, table)
    res[0] -= 1.0
    res[1] += 1.0
    return math.fsum((np.abs(res) ** q).tolist()) ** (1.0 / q)


def mobius_linear_sieve(limit: int) -> np.ndarray:
    """mu(0..limit) as int8 (mu(0) = 0); each composite is crossed off once by its least prime."""
    mu = [0] * (limit + 1)
    mu[1] = 1
    is_comp = bytearray(limit + 1)
    primes: list[int] = []
    for i in range(2, limit + 1):
        if not is_comp[i]:
            primes.append(i)
            mu[i] = -1
        for p in primes:
            ip = i * p
            if ip > limit:
                break
            is_comp[ip] = 1
            if i % p == 0:
                mu[ip] = 0
                break
            mu[ip] = -mu[i]
    return np.array(mu, dtype=np.int8)


def approx_reciprocal_s_oracle(n: int, s, table) -> complex:
    """sum_{k=2..n} mu(k) G_k(s) from every term k = 2..n, mu(k) = 0 included, in one fsum."""
    z = zeta(s).value
    s = complex(s)
    k = np.arange(2, n + 1, dtype=np.float64)
    mu = table.values[2 : n + 1].astype(np.float64)
    terms = mu * (np.exp(-s * np.log(k)) - 1.0 / k)
    return -(z / s) * complex(math.fsum(terms.real.tolist()), math.fsum(terms.imag.tolist()))
