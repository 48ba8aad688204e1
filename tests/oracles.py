"""Independent oracles shared by the test modules.

``accumulated_ims`` is the per-k accumulation that production code replaced
with the closed-form kernel ``zfhp.series.mobius_ims_partial_sums``: it adds
mu(k) (I - S) h_k one k at a time over the full coefficient range, in
O(n * degree), from the generator's own coefficient formula rather than
from divisor sums.
"""

import math

import numpy as np


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
