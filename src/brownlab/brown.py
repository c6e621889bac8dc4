"""Hermitization pipeline: log-potential, Brown density, Stieltjes checks.

The spectral measure of P is recovered from the field
h(z) = (1/N) sum_i log max(sigma_i(P - z), floor) by the distributional
Laplacian: density = (1/2 pi) Lap h, on the interior nodes grid.interior().
The floor regularizes the log singularity; its default N^-6 mirrors a
truncation of the smallest singular values far below any scale the
samples reach, and the share of floored values is reported per node so
regularization is visible.

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

The sweep takes the nodes in chunks of _CHUNK_ENTRIES // N. In each chunk
the bound is one boolean mask: the certified nodes take their logs in one
array pass, and the rest, if any, go to one `shifted_svals` call, which runs
one values-only SVD per node. At N=200 on a 41x41 grid the sweep after
`eig` takes about 7 ms per sample on one BLAS thread, and the tracemalloc
peak of a sample stays at 1.98 MiB, where an unchunked |lambda - z| alone
would take 5.4 MB.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .pseudospec import GridSpec, trial_map
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

# Complex entries of lambda - z that one chunk of grid nodes may hold: the
# sweep takes _CHUNK_ENTRIES // N nodes at a time, so its scratch stays
# near 512 KiB at any N and grid size.
_CHUNK_ENTRIES = 1 << 15


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

    def truncation_summary(self):
        tf = self.truncated_fraction
        return {"max": float(tf.max()), "mean": float(tf.mean()),
                "nodes_hit": int((tf > 0).sum())}


def _h_one_sample(P, nodes_flat, floor, method):
    """Per-node h and truncated fraction, and the exact-route node count, for one P."""
    h, trunc = np.zeros((2, len(nodes_flat)))
    if method == "auto":
        lam, V = np.linalg.eig(P)
        kappa = np.linalg.cond(V, "fro")
        slack = np.sqrt(len(P)) * np.linalg.norm(P @ V - V * lam) / np.linalg.norm(V)
    else:  # method="svd": an infinite kappa certifies no node
        lam, kappa, slack = np.zeros(1), np.inf, 0.0
    step, exact_nodes = max(1, _CHUNK_ENTRIES // len(P)), 0
    for at in range(0, len(nodes_flat), step):
        z, hk, tk = nodes_flat[at:at + step], h[at:at + step], trunc[at:at + step]
        dist = np.abs(lam - z[:, None])
        # A NaN bound certifies nothing. At a certified node no singular value
        # reaches the floor, so h = (1/N) log |det(P - z)|, and every |lambda - z| > 0.
        certified = dist.min(axis=1) / kappa - slack > _GUARD_MARGIN * floor
        hk[certified] = np.log(dist[certified]).mean(axis=1)
        if certified.all():
            continue
        sv = shifted_svals(P, z[~certified])
        hk[~certified] = np.log(np.maximum(sv, floor)).mean(axis=1)
        tk[~certified] = (sv <= floor).mean(axis=1)
        exact_nodes += len(sv)
    return h, trunc, exact_nodes


def log_potential(p, N, grid, trials, floor=None, seed=0, threads=None, method="auto"):
    """Average of (1/N) sum_i log max(sigma_i(P - z), floor) over trials.

    meta["exact_nodes"] counts the node-samples that took the exact SVD
    route, summed over the trials.
    """
    floor = default_floor(N) if floor is None else float(floor)
    if not 0 < floor < np.inf:  # NaN fails too
        raise ValueError("floor must be positive and finite")
    if method not in ("auto", "svd"):
        raise ValueError("method must be 'auto' or 'svd'")
    nodes_flat = grid.nodes().ravel()
    results = trial_map(lambda P: _h_one_sample(P, nodes_flat, floor, method),
                        p, N, trials, seed, threads)
    h = np.mean([r[0] for r in results], axis=0).reshape(grid.nx, grid.ny)
    trunc = np.mean([r[1] for r in results], axis=0).reshape(grid.nx, grid.ny)
    meta = {"N": N, "trials": trials, "seed": seed, "method": method,
            "exact_nodes": sum(r[2] for r in results)}
    return LogPotentialField(grid=grid, h=h, truncated_fraction=trunc,
                             floor=floor, meta=meta)


@dataclass(frozen=True)
class BrownEstimate:
    """Laplacian density estimate on the interior nodes of the h-grid.

    grid is the h-grid, and density sits on grid.interior(). Discretization
    noise can leave slightly negative cells; the signed values are kept for
    diagnostics, and only compare_esd_brown clips them to zero.
    """

    grid: GridSpec
    density: np.ndarray
    total_mass: float


def brown_estimate(fld):
    """Five-point-stencil Laplacian of h over 2 pi, cell-normalized.

    The boundary ring is dropped rather than one-sided; total_mass is
    the cell-quadrature integral of the interior density. The grid needs
    at least 4 x 4 nodes, so that the interior nodes span a rectangle.
    """
    grid = fld.grid
    if grid.nx < 4 or grid.ny < 4:
        raise ValueError("brown_estimate needs at least a 4 x 4 grid")
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
    return BrownEstimate(grid=grid, density=density, total_mass=total)


def stieltjes(p, N, z, eta_ladder, trials, seed, threads=None):
    """g(i eta) = E (1/N) sum_i 1/(i eta - sigma_i^2(P - z)) per ladder rung.

    The masses sigma_i^2 are the eigenvalues of (P - z)(P - z)^*, so for
    eta > 0 the imaginary part is strictly negative.
    """
    eta = np.asarray(eta_ladder, dtype=float)
    if not np.all((0 < eta) & (eta < np.inf)):  # NaN fails too
        raise ValueError("eta ladder must be positive and finite")

    def one(P):
        sv = shifted_svals(P, [z])[0]
        masses = sv * sv
        return np.mean(1.0 / (1j * eta[:, None] - masses), axis=1)

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
