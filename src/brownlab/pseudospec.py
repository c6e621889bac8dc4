"""Pseudospectrum experiments: smin grid maps, small-ball tails, areas.

The epsilon-pseudospectrum of a matrix is the sublevel set of
z -> smin(A - z). Everything here samples that statistic for P = p(X) over
fresh Ginibre tuples: grid maps take the median over trials at each node,
tail estimates count the empirical small-ball probabilities over an
epsilon ladder together with Wilson intervals and a fitted log-log slope,
and the area estimator integrates the indicator over a rectangle.

One sample is drawn per trial and swept across all grid nodes, matching
the fixed-matrix varying-z viewpoint and saving a factor nx*ny in
sampling cost. Trial t of every experiment draws its Ginibre tuple from
the Philox substream (seed, STREAM_GINIBRE, t), and trial_tuple is the
one place that address is formed. The loop over trials is written once,
in trial_map, and every Monte Carlo sweep of the package runs on it.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ._pool import parallel_map
from .ncpoly import evaluate
from .rmtcore import STREAM_GINIBRE, csv_text, ginibre_tuple, shifted_svals, stream

__all__ = [
    "GridSpec",
    "GridField",
    "TailEstimate",
    "trial_tuple",
    "trial_matrix",
    "trial_map",
    "smin_map_full",
    "tail_estimate",
    "pseudospectrum_area",
    "wilson_interval",
    "fit_tail_slope",
]

# Rungs with fewer hits than this are dropped from the slope regression;
# their Wilson intervals are too wide to constrain a fit.
MIN_HITS_FOR_SLOPE = 5

# Fewest trials a small-ball tail is estimated from: smin tails here, det tails in walks.
MIN_TAIL_TRIALS = 100

# Two-sided 95% standard normal quantile of the Wilson intervals.
WILSON_Z = 1.959963984540054


@dataclass(frozen=True)
class GridSpec:
    """Rectangle in the complex plane sampled on an nx x ny lattice.

    Node (i, j) sits at re_min + i*dx + 1j*(im_min + j*dy) with
    dx = (re_max - re_min)/(nx - 1); a single row or column collapses
    onto the lower edge.
    """

    re_min: float
    re_max: float
    im_min: float
    im_max: float
    nx: int
    ny: int

    def __post_init__(self):
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise ValueError("grid rectangle must have positive area")
        if not np.isfinite([self.re_max - self.re_min, self.im_max - self.im_min]).all():
            raise ValueError("grid rectangle must have finite sides")
        if self.nx < 1 or self.ny < 1:
            raise ValueError("nx and ny must be positive")

    @property
    def dx(self):
        return (self.re_max - self.re_min) / (self.nx - 1) if self.nx > 1 else 0.0

    @property
    def dy(self):
        return (self.im_max - self.im_min) / (self.ny - 1) if self.ny > 1 else 0.0

    @property
    def area(self):
        return (self.re_max - self.re_min) * (self.im_max - self.im_min)

    def nodes(self):
        """Complex node array of shape (nx, ny)."""
        re = self.re_min + self.dx * np.arange(self.nx)
        im = self.im_min + self.dy * np.arange(self.ny)
        return re[:, None] + 1j * im[None, :]

    def to_dict(self):
        return {
            "re_min": self.re_min,
            "re_max": self.re_max,
            "im_min": self.im_min,
            "im_max": self.im_max,
            "nx": self.nx,
            "ny": self.ny,
        }


@dataclass(frozen=True)
class GridField:
    """One scalar per grid node."""

    spec: GridSpec
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != (self.spec.nx, self.spec.ny):
            raise ValueError("values shape must match the grid")

    def to_csv(self, extras=None):
        """CSV text, rows 're,im,value' in row-major node order.

        extras maps column name to an (nx, ny) array appended per row.
        """
        nodes = self.spec.nodes()
        return csv_text({"re": nodes.real, "im": nodes.imag,
                         "value": self.values, **(extras or {})})


def trial_tuple(num_vars, N, seed, trial):
    """The Ginibre tuple X of Monte Carlo trial `trial` under `seed`."""
    return ginibre_tuple(num_vars, N, stream(seed, STREAM_GINIBRE, trial))


def trial_matrix(p, N, seed, trial):
    """P = p(X) for the Ginibre tuple of trial `trial`.

    A non-finite P (say, from overflowing coefficients) raises LinAlgError,
    since no decomposition of it can succeed.
    """
    P = evaluate(p, trial_tuple(p.num_vars, N, seed, trial))
    if not np.isfinite(P).all():
        raise np.linalg.LinAlgError(f"P = p(X) of trial {trial} has non-finite entries")
    return P


def trial_map(fn, p, N, trials, seed, threads=None):
    """[fn(P) for the P = p(X) of each trial], mapped on the trial pool."""
    if trials < 1:
        raise ValueError("trials must be >= 1")
    return parallel_map(lambda t: fn(trial_matrix(p, N, seed, t)), range(trials), threads)


def wilson_interval(hits, trials):
    """Wilson 95% interval for a binomial rate."""
    if trials == 0:
        return (0.0, 1.0)
    phat = hits / trials
    z2 = WILSON_Z * WILSON_Z
    denom = 1 + z2 / trials
    center = (phat + z2 / (2 * trials)) / denom
    half = WILSON_Z / denom * math.sqrt(phat * (1 - phat) / trials + z2 / (4 * trials**2))
    return (max(0.0, center - half), min(1.0, center + half))


def fit_tail_slope(eps_ladder, hits, trials):
    """Least-squares slope of log(hit rate) against log(eps).

    Rungs with fewer than MIN_HITS_FOR_SLOPE hits are dropped. Returns
    None when fewer than two rungs remain (e.g. every rung empty).
    """
    eps_ladder = np.asarray(eps_ladder, dtype=float)
    hits = np.asarray(hits)
    use = hits >= MIN_HITS_FOR_SLOPE
    if use.sum() < 2:
        return None
    x = np.log(eps_ladder[use])
    y = np.log(hits[use] / trials)
    A = np.vstack([x, np.ones(len(x))]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    return float(coef[0])


@dataclass(frozen=True)
class TailEstimate:
    """Empirical small-ball ladder P{stat <= eps} with CIs and slope."""

    z: complex
    N: int
    eps_ladder: np.ndarray
    hits: np.ndarray
    trials: int
    slope: float | None
    ci: tuple

    @staticmethod
    def from_samples(samples, eps_ladder, z, N):
        """Ladder over finite samples; a non-finite one is a failed trial
        that would otherwise count as a miss, so it raises ValueError."""
        samples = np.asarray(samples, dtype=float)
        failed = int(np.count_nonzero(~np.isfinite(samples)))
        if failed:
            raise ValueError(f"{failed} of {samples.size} samples are not finite")
        samples = np.sort(samples)
        eps_ladder = np.asarray(eps_ladder, dtype=float)
        if eps_ladder.ndim != 1 or len(eps_ladder) < 1:
            raise ValueError("eps ladder must be a nonempty 1-d sequence")
        if not (np.all(np.isfinite(eps_ladder)) and np.all(eps_ladder > 0)
                and np.all(np.diff(eps_ladder) > 0)):
            raise ValueError("eps ladder must be finite, positive and strictly increasing")
        trials = len(samples)
        hits = np.searchsorted(samples, eps_ladder, side="right")
        slope = fit_tail_slope(eps_ladder, hits, trials)
        ci = tuple(wilson_interval(int(h), trials) for h in hits)
        return TailEstimate(
            z=z, N=N, eps_ladder=eps_ladder, hits=hits, trials=trials, slope=slope, ci=ci
        )

    def to_json(self):
        ladder = []
        for k, eps in enumerate(self.eps_ladder):
            lo, hi = self.ci[k]
            ladder.append(
                {
                    "eps": float(eps),
                    "hits": int(self.hits[k]),
                    "rate": float(self.hits[k] / self.trials),
                    "ci_lo": lo,
                    "ci_hi": hi,
                }
            )
        z = None if self.z is None else [self.z.real, self.z.imag]
        return json.dumps(
            {
                "z": z,
                "N": self.N,
                "trials": self.trials,
                "ladder": ladder,
                "slope": self.slope,
            },
            indent=1,
        )


def _smin_fields(p, N, grid, trials, seed, threads):
    """(trials, nodes) array of smin(P - z), one P per trial."""
    nodes = grid.nodes().ravel()
    return np.stack(trial_map(lambda P: shifted_svals(P, nodes)[:, -1],
                              p, N, trials, seed, threads))


def smin_map_full(p, N, grid, trials, seed, threads=None):
    """Median, mean and min over trials of smin(P - z) per node."""
    data = _smin_fields(p, N, grid, trials, seed, threads)
    shape = (grid.nx, grid.ny)
    return (
        GridField(grid, np.median(data, axis=0).reshape(shape)),
        GridField(grid, np.mean(data, axis=0).reshape(shape)),
        GridField(grid, np.min(data, axis=0).reshape(shape)),
    )


def tail_estimate(p, N, z, eps_ladder, trials, seed, threads=None):
    """Small-ball ladder for smin(P - z) at a fixed z, fresh P per trial."""
    if trials < MIN_TAIL_TRIALS:
        raise ValueError(f"tail estimates need trials >= {MIN_TAIL_TRIALS}")
    samples = trial_map(lambda P: shifted_svals(P, [z])[0, -1], p, N, trials, seed, threads)
    return TailEstimate.from_samples(np.array(samples), eps_ladder, z, N)


def pseudospectrum_area(p, N, eps, omega, trials, seed, threads=None):
    """Monte Carlo estimate of the expected pseudospectrum area in omega.

    Fraction of grid nodes with smin(P - z) <= eps, averaged over trials,
    times the area of the rectangle.
    """
    if not 0 < eps < math.inf:  # NaN fails too
        raise ValueError("eps must be positive and finite")
    fields = _smin_fields(p, N, omega, trials, seed, threads)
    fractions = [np.mean(f <= eps) for f in fields]
    return float(np.mean(fractions) * omega.area)
