"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s`. Every criterion pins its
tolerance here; the heavier ones finish well inside their wall-clock
budgets on a two-core machine.
"""

import time

import numpy as np
import pytest

import brownlab as bl
from brownlab.linearize import SingularFactorError
from brownlab.ncpoly import NcPoly, free_moment
from brownlab.pseudospec import GridSpec, tail_estimate, trial_tuple
from brownlab.walks import (
    WalkBasis,
    delta_report,
    det_tail_experiment,
    orthocomplement_basis,
)
from oracles import circular_word_traces

ANTI = bl.parse("x1*x2 + x2*x1")


class _Criterion:
    def __init__(self, number, label, budget_s):
        self.number = number
        self.label = label
        self.budget_s = budget_s
        self.t0 = time.time()

    def finish(self, ok, detail):
        elapsed = time.time() - self.t0
        status = "PASS" if ok and elapsed < self.budget_s else "FAIL"
        print(f"ACCEPTANCE {self.number} [{self.label}]: {status} "
              f"({detail}; {elapsed:.1f}s of {self.budget_s:.0f}s budget)")
        assert ok, f"criterion {self.number}: {detail}"
        assert elapsed < self.budget_s, (
            f"criterion {self.number} exceeded budget: {elapsed:.1f}s"
        )


def _unit_disk_coeff(rng):
    z = complex(*rng.normal(size=2))
    return z / max(1.0, abs(z))


def test_criterion_1_schur_identity():
    crit = _Criterion(1, "Schur resolvent identity", 5.0)
    rng = np.random.default_rng(101)
    worst = 0.0
    done = 0
    while done < 20:
        n = int(rng.integers(2, 4))
        terms = {(): _unit_disk_coeff(rng)}
        for l in range(1, n + 1):
            terms[(l,)] = _unit_disk_coeff(rng)
            for m in range(1, n + 1):
                terms[(l, m)] = _unit_disk_coeff(rng)
        p = NcPoly(n, terms)
        if p.degree != 2:
            continue
        lin = bl.build_linearization(p)
        X = trial_tuple(n, 6, 110, done)
        z = complex(*rng.normal(size=2))
        try:
            residual = bl.verify_schur(lin, X, z)
        except SingularFactorError:
            continue
        worst = max(worst, residual)
        done += 1
    crit.finish(worst <= 1e-8, f"worst residual {worst:.2e} <= 1e-8")


def test_criterion_2_product_law_radial_cdf():
    # the k = 2 case of Haagerup and Larsen's law for products of k
    # circular elements (J. Funct. Anal. 2000): the Brown measure of c1 c2
    # is rotation invariant with F(r) = r on [0, 1]
    crit = _Criterion(2, "product law radial CDF", 120.0)
    p = bl.parse("x1*x2")
    lams = bl.trial_map(bl.esd, p, 1000, 5, seed=120, threads=2)
    r = np.sort(np.abs(np.concatenate(lams)))
    grid = np.linspace(0.0, 1.0, 2001)
    F_emp = np.searchsorted(r, grid, side="right") / len(r)
    ks = float(np.abs(F_emp - grid).max())
    crit.finish(ks <= 0.05, f"KS distance to F(r)=r is {ks:.4f} <= 0.05")


def test_criterion_3_esd_vs_brown_pipeline():
    crit = _Criterion(3, "ESD vs Brown pipeline", 600.0)
    N = 400
    grid = GridSpec(-2.5, 2.5, -2.5, 2.5, 41, 41)
    fld = bl.log_potential(ANTI, N, grid, trials=20, floor=float(N) ** -6,
                           seed=33, threads=2)
    est = bl.brown_estimate(fld)
    lams = bl.trial_map(bl.esd, ANTI, 2000, 5, seed=44, threads=2)
    tv = bl.compare_esd_brown(np.concatenate(lams), est)
    crit.finish(tv <= 0.15, f"total variation {tv:.4f} <= 0.15")


def test_criterion_4_shifted_smin_scaling():
    crit = _Criterion(4, "shifted smin quadratic scaling", 120.0)
    N, trials = 60, 5000
    # smin(X + c I) is smin(P - z) for p = x1 and z = -c. The ladders sit
    # inside the epsilon^2 regime of each shift: well below the median
    # smin (0.014 for shift 0, 0.055 for the identity shift) while keeping
    # every retained rung at 5+ hits
    cases = {
        "zero": (0.0, np.logspace(-3.2, -2.2, 8)),
        "identity": (1.0, np.logspace(-2.2, -1.55, 8)),
    }
    slopes = {}
    for name, (shift, ladder) in cases.items():
        est = tail_estimate(bl.parse("x1"), N, -shift, ladder, trials, seed=130)
        slopes[name] = est.slope
    ok = all(s is not None and 1.7 <= s <= 2.3 for s in slopes.values())
    detail = ", ".join(f"{k}: slope {v:.3f}" for k, v in slopes.items())
    crit.finish(ok, detail + " in [1.7, 2.3]")


def test_criterion_5_free_moments_vs_monte_carlo():
    crit = _Criterion(5, "free moments of circular words", 60.0)
    N, trials, max_len = 300, 10, 6
    acc = None
    for t in range(trials):
        X = trial_tuple(2, N, 150, t)
        table = circular_word_traces(X, max_len)
        if acc is None:
            acc = {w: v / trials for w, v in table.items()}
        else:
            for w, v in table.items():
                acc[w] += v / trials
    worst = 0.0
    worst_word = None
    for letters, mc in acc.items():
        exact = free_moment(bl.StarWord(letters=letters))
        dev = abs(mc - exact)
        if dev > worst:
            worst, worst_word = dev, letters
    ok = worst <= 0.05
    crit.finish(ok, f"{len(acc)} words, worst |MC - moment| = {worst:.4f} "
                    f"<= 0.05 (at {bl.StarWord(letters=worst_word)})")


def test_criterion_6_structured_bases_are_rare():
    crit = _Criterion(6, "structured bases are rare", 300.0)
    lin = bl.build_linearization(ANTI)
    N, draws = 40, 200
    threshold = float(N) ** (-lin.rank / 2 - 10)
    structured_count = 0
    smin_u0 = []
    for d in range(draws):
        X = trial_tuple(2, N, 160, d)
        U = orthocomplement_basis(lin.blocks(X, 0.0), 0, 161 + d)
        rep = delta_report(U, lin.s_matrix(), threshold)
        structured_count += rep.structured
        smin_u0.append(np.linalg.svd(U.tall_block(0), compute_uv=False)[-1])
    min_smin = min(smin_u0)
    ok = structured_count == 0 and min_smin > 0.01
    crit.finish(ok, f"{structured_count}/{draws} structured draws; "
                    f"min smin(U0) = {min_smin:.4f} > 0.01")


def test_criterion_7_determinant_anticoncentration():
    crit = _Criterion(7, "determinant anti-concentration", 180.0)
    lin = bl.build_linearization(ANTI)
    N = 100
    X = trial_tuple(2, N, 170, 0)
    U = orthocomplement_basis(lin.blocks(X, 0.0), 0, 171)
    rep = delta_report(U, lin.s_matrix(), float(N) ** (-lin.rank / 2 - 10))
    delta = max(rep.max_abs_delta1, rep.max_abs_delta2)
    K = lin.pencil(0.0)[1]
    M = U.blocks[0].conj().T @ K
    ladder = np.logspace(-6, -2, 9)
    est = det_tail_experiment(U, lin.s_matrix(), M, ladder, 10_000, seed=172)
    bound = 10 * np.sqrt(N) * (ladder / delta) ** (1 / 3)
    violations = int((est.hits / est.trials > bound).sum())
    ok = est.slope is not None and est.slope >= 1 / 3 - 0.1 and violations == 0
    crit.finish(ok, f"slope {est.slope:.3f} >= {1/3 - 0.1:.3f}, "
                    f"{violations} rungs above 10 sqrt(N) (eps/delta)^(1/3), "
                    f"delta = {delta:.2e}")


def test_criterion_8_pseudospectrum_bound_sanity():
    crit = _Criterion(8, "finite-N pseudospectrum bound", 180.0)
    ladder = np.logspace(-6, -1, 10)
    worst_margin = np.inf
    for N in (50, 100):
        bound = np.minimum(1.0, N ** (13 / 3) * ladder ** (1 / 3) + np.exp(-N))
        for z in (0.0, 0.5):
            est = tail_estimate(ANTI, N, z, ladder, trials=400,
                                seed=180 + N, threads=2)
            margin = float((bound - est.hits / est.trials).min())
            worst_margin = min(worst_margin, margin)
    crit.finish(worst_margin >= 0.0,
                f"empirical rate never exceeds the bound "
                f"(worst margin {worst_margin:.3e})")


def test_criterion_9_degenerate_and_exact_cases():
    crit = _Criterion(9, "degenerate and exact cases", 60.0)
    checks = {}

    # zero polynomial potential: h = log|z| exactly
    g = GridSpec(0.5, 2.0, 0.25, 1.0, 4, 3)
    fld = bl.log_potential(bl.parse("0"), 8, g, trials=1, seed=190)
    checks["zero-poly log potential"] = np.allclose(
        fld.h, np.log(np.abs(g.nodes())), atol=1e-14
    )

    # harmonic h: density identically zero up to stencil roundoff
    g2 = GridSpec(-1, 1, -1, 1, 9, 9)
    flat = bl.LogPotentialField(grid=g2, h=np.full((9, 9), 0.7),
                                truncated_fraction=np.zeros((9, 9)), floor=1e-12,
                                exact_nodes=0)
    checks["harmonic h zero density"] = (
        np.abs(bl.brown_estimate(flat).density).max() <= 1e-10
    )

    # saturated epsilon ladder: rate 1 everywhere
    est = tail_estimate(ANTI, 10, 0.1, np.array([50.0, 100.0]), 100, seed=191)
    checks["saturated ladder"] = bool(np.all(est.hits == est.trials))

    # repeated determinant columns: family-2 maxima vanish
    lin = bl.build_linearization(ANTI)
    N, r, d = 6, 2, 3
    w = np.array([1.0, 0.0, 0.0])
    Mproj = np.eye(d) - np.outer(np.conj(w), w)
    evals, evecs = np.linalg.eigh(Mproj)
    root = evecs @ np.diag(np.sqrt(np.maximum(evals, 0))) @ evecs.conj().T
    rng = np.random.default_rng(192)
    Q = np.linalg.qr(rng.normal(size=(r * N, d)) + 1j * rng.normal(size=(r * N, d)))[0]
    U = np.vstack([np.outer(np.ones(N) / np.sqrt(N), w), Q @ root])
    rep = delta_report(WalkBasis(N=N, r=r, U=U), lin.s_matrix(), 1e-6)
    checks["repeated-column delta"] = rep.max_abs_delta2 <= 1e-12

    # single-block degenerate walk: det identically zero
    i0 = 2
    Ud = np.zeros((d * 8, d), dtype=complex)
    Ud[np.arange(d) * 8 + i0, :] = np.eye(d)
    est = det_tail_experiment(WalkBasis(N=8, r=r, U=Ud), lin.s_matrix(), np.zeros((d, d)),
                              np.logspace(-12, -1, 5), 200, seed=193)
    checks["single-block walk det"] = bool(np.all(est.hits == est.trials))

    failures = [k for k, v in checks.items() if not v]
    crit.finish(not failures, f"{len(checks)} exact cases"
                + (f"; failing: {failures}" if failures else " all hold"))
