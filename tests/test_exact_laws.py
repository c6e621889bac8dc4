"""Exact finite-N laws of one Ginibre matrix, against the lab's own draws.

For p = x1, P = X has i.i.d. complex entries of variance 1/N, and at z = 0
two laws hold at every N, with no O(1/N) bias to blur a comparison:

- N² smin(X)² is Exp(1) (Edelman, SIAM J. Matrix Anal. Appl. 1988), so
  P(smin(X) <= eps) = 1 - exp(-N² eps²).
- |det √N X|² is a product of independent Gamma(k, 1), k = 1..N
  (Bartlett's decomposition; Goodman, Ann. Math. Statist. 1963), so
  h_N(0) = (1/N) log |det X| has mean (1/2N) Σ ψ(k) - ½ log N and
  per-trial SD √(Σ ψ'(k)) / 2N.

Seeds and the 4-standard-error bounds were fixed before the first run.
"""

import numpy as np
import pytest
from scipy.special import digamma, polygamma

from brownlab.brown import log_potential
from brownlab.ncpoly import parse
from brownlab.pseudospec import GridSpec, tail_estimate

X1 = parse("x1")
SEED = 14
BOUND_SE = 4.0


@pytest.mark.parametrize("N", [10, 30])
def test_tail_matches_the_exact_smin_law(N):
    trials = 2000
    ladder = np.geomspace(0.05 / N, 2.0 / N, 8)
    est = tail_estimate(X1, N, 0j, ladder, trials, seed=SEED, threads=2)
    exact = 1.0 - np.exp(-(N * ladder) ** 2)
    se = np.sqrt(exact * (1.0 - exact) / trials)
    z = (est.hits / trials - exact) / se
    assert np.all(np.abs(z) <= BOUND_SE), z


@pytest.mark.parametrize("N, trials", [(10, 1000), (40, 400)])
def test_log_potential_at_zero_matches_the_exact_log_det_law(N, trials):
    grid = GridSpec(0, 1, 0, 1, 1, 1)
    assert grid.nodes().ravel().tolist() == [0j]
    fld = log_potential(X1, N, grid, trials, seed=SEED)
    k = np.arange(1, N + 1)
    mean = digamma(k).sum() / (2 * N) - 0.5 * np.log(N)
    sd = np.sqrt(polygamma(1, k).sum()) / (2 * N)
    z = (fld.h[0, 0] - mean) / (sd / np.sqrt(trials))
    assert abs(z) <= BOUND_SE, z
