"""Hermitization pipeline: log-potential, Brown density, Stieltjes checks.

The spectral measure of P is recovered from the field
h(z) = (1/N) sum_i log max(sigma_i(P - z), floor) by the distributional
Laplacian: density = (1/2 pi) Lap h. The floor regularizes the log
singularity; its default N^-6 mirrors a truncation of the smallest
singular values far below any scale the samples reach, and the share of
floored values is reported per node so regularization is visible.

Summing log sigma_i equals log |det(P - z)| = sum_i log |lambda_i - z|,
so when no singular value can reach the floor the whole z-sweep needs just
one eigendecomposition P V = V diag(lambda) + E per sample. Since
P - z = (V (diag(lambda) - z) + E) V^-1, every node obeys the Bauer-Fike
bound smin(P - z) >= min_i |lambda_i - z| / kappa - sqrt(N) ||E||_F / ||V||_F
with kappa = ||V||_F ||V^-1||_F. Nodes where it clears the floor 1000-fold
(a margin that also absorbs rounding in E and V^-1) take the eigenvalue
route. A defective P has a singular V, so kappa is infinite (or, rounded,
huge) and no node is certified. The other nodes fall back to an exact
singular value decomposition; method="svd" forces it everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pseudospec import GridField, GridSpec, trial_map
from .rmtcore import shifted_svals

__all__ = [
    "LogPotentialField",
    "BrownEstimate",
    "default_floor",
    "log_potential",
    "brown_estimate",
    "stieltjes",
    "compare_esd_brown",
]

# The Bauer-Fike bound must clear the floor by this factor before the
# eigenvalue route is trusted; anything closer gets the exact SVD.
_GUARD_MARGIN = 1e3


def default_floor(N):
    return float(N) ** -6


@dataclass(frozen=True)
class LogPotentialField:
    """Regularized log-potential h and the per-node floored share."""

    grid: GridSpec
    h: np.ndarray
    truncated_fraction: np.ndarray
    floor: float
    meta: dict = field(default_factory=dict)

    def h_field(self):
        return GridField(self.grid, self.h)

    def truncation_summary(self):
        tf = self.truncated_fraction
        return {"max": float(tf.max()), "mean": float(tf.mean()),
                "nodes_hit": int((tf > 0).sum())}


def _h_one_sample(P, nodes_flat, floor, method):
    """Per-node (h, truncated fraction) for one realization of P."""
    N = P.shape[0]
    h = np.empty(len(nodes_flat))
    trunc = np.zeros(len(nodes_flat))
    if method == "auto":
        lam, V = np.linalg.eig(P)
        kappa = np.linalg.cond(V, "fro")
        slack = np.sqrt(N) * np.linalg.norm(P @ V - V * lam) / np.linalg.norm(V)
    for k, z in enumerate(nodes_flat):
        if method == "auto":
            dist = np.abs(lam - z)
            if dist.min() / kappa - slack > _GUARD_MARGIN * floor:
                # No singular value can reach the floor, so the floored sum
                # equals (1/N) log |det(P - z)|, a function of eigenvalues.
                h[k] = np.mean(np.log(dist))
                continue
        sv = shifted_svals(P, [z])[0]
        h[k] = np.mean(np.log(np.maximum(sv, floor)))
        trunc[k] = np.mean(sv <= floor)
    return h, trunc


def log_potential(p, N, grid, trials, floor=None, seed=0, threads=None, method="auto"):
    """Average of (1/N) sum_i log max(sigma_i(P - z), floor) over trials."""
    floor = default_floor(N) if floor is None else float(floor)
    if floor <= 0:
        raise ValueError("floor must be positive")
    if method not in ("auto", "svd"):
        raise ValueError("method must be 'auto' or 'svd'")
    nodes_flat = grid.nodes().ravel()
    results = trial_map(lambda P: _h_one_sample(P, nodes_flat, floor, method),
                        p, N, trials, seed, threads)
    h = np.mean([r[0] for r in results], axis=0).reshape(grid.nx, grid.ny)
    trunc = np.mean([r[1] for r in results], axis=0).reshape(grid.nx, grid.ny)
    meta = {"N": N, "trials": trials, "seed": seed, "method": method}
    return LogPotentialField(grid=grid, h=h, truncated_fraction=trunc,
                             floor=floor, meta=meta)


@dataclass(frozen=True)
class BrownEstimate:
    """Laplacian density estimate on the interior nodes of the h-grid.

    Discretization noise can leave slightly negative cells; raw signed
    values are preserved here for diagnostics, and clipping happens only
    inside compare_esd_brown (see meta["clipping"]).
    """

    grid: GridSpec
    density: np.ndarray
    total_mass: float
    meta: dict = field(default_factory=dict)

    def density_field(self):
        """The density on the grid of the interior nodes."""
        g = self.grid
        interior = GridSpec(
            re_min=g.re_min + g.dx, re_max=g.re_max - g.dx,
            im_min=g.im_min + g.dy, im_max=g.im_max - g.dy,
            nx=g.nx - 2, ny=g.ny - 2,
        )
        return GridField(interior, self.density)


def brown_estimate(fld):
    """Five-point-stencil Laplacian of h over 2 pi, cell-normalized.

    The boundary ring is dropped rather than one-sided; total_mass is
    the cell-quadrature integral of the interior density.
    """
    grid = fld.grid
    if grid.nx < 3 or grid.ny < 3:
        raise ValueError("brown_estimate needs at least a 3 x 3 grid")
    h = np.asarray(fld.h, dtype=float)
    if not np.all(np.isfinite(h)):
        raise ValueError("log-potential field contains non-finite values")
    dx, dy = grid.dx, grid.dy
    lap = (
        (h[2:, 1:-1] + h[:-2, 1:-1] - 2 * h[1:-1, 1:-1]) / dx**2
        + (h[1:-1, 2:] + h[1:-1, :-2] - 2 * h[1:-1, 1:-1]) / dy**2
    )
    density = lap / (2 * np.pi)
    total = float(density.sum() * dx * dy)
    meta = {
        "clipping": "signed density preserved; negatives clipped to zero only "
        "inside compare_esd_brown",
        "floor": fld.floor,
    }
    meta.update(fld.meta)
    return BrownEstimate(grid=grid, density=density, total_mass=total, meta=meta)


def stieltjes(p, N, z, eta_ladder, trials, seed, threads=None):
    """g(i eta) = E (1/N) sum_i 1/(i eta - sigma_i^2(P - z)) per ladder rung.

    The masses sigma_i^2 are the eigenvalues of (P - z)(P - z)^*, so for
    eta > 0 the imaginary part is strictly negative.
    """
    eta = np.asarray(eta_ladder, dtype=float)
    if np.any(eta <= 0):
        raise ValueError("eta ladder must be positive")

    def one(P):
        sv = shifted_svals(P, [z])[0]
        masses = sv * sv
        return np.array([np.mean(1.0 / (1j * e - masses)) for e in eta])

    return np.mean(trial_map(one, p, N, trials, seed, threads), axis=0)


def _interior_cell_edges(grid):
    # Cells of width dx centered on the interior nodes.
    re_edges = grid.re_min + grid.dx * (np.arange(grid.nx - 1) + 0.5)
    im_edges = grid.im_min + grid.dy * (np.arange(grid.ny - 1) + 0.5)
    return re_edges, im_edges


def compare_esd_brown(eigenvalues, brown):
    """Total-variation distance between binned ESD and Brown density.

    eigenvalues is an array of eigenvalue samples, for example several
    `rmtcore.esd` arrays concatenated, binned on the cells of the grid the
    Brown estimate was computed on. Eigenvalue mass is normalized over
    the whole sample; mass falling outside the binning box counts fully
    toward the distance (the Brown side has no mass there). The Brown density is clipped to nonnegative
    and renormalized before comparison.
    """
    lam = np.asarray(eigenvalues)
    if lam.size == 0:
        raise ValueError("empty spectrum")

    re_edges, im_edges = _interior_cell_edges(brown.grid)
    hist, _, _ = np.histogram2d(lam.real, lam.imag, bins=[re_edges, im_edges])
    p = hist / lam.size

    q = np.clip(brown.density, 0.0, None)
    qsum = q.sum()
    if qsum <= 0:
        raise ValueError("Brown density has no positive mass to compare")
    q = q / qsum

    outside = 1.0 - p.sum()
    return float(0.5 * (np.abs(p - q).sum() + outside))
