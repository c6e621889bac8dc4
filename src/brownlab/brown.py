"""Hermitization pipeline: log-potential, Brown density, Stieltjes checks.

The spectral measure of P is recovered from the field
h(z) = (1/N) sum_i log max(sigma_i(P - z), floor) by the distributional
Laplacian: density = (1/2 pi) Lap h. The floor regularizes the log
singularity; its default N^-6 mirrors a truncation of the smallest
singular values far below any scale the samples reach, and the share of
floored values is reported per node so regularization is visible.

Summing log sigma_i equals log |det(P - z)| = sum_i log |lambda_i - z|,
so when no singular value can reach the floor the whole z-sweep needs just
one Schur decomposition per sample. A per-node triangular condition
estimate certifies that (with a wide safety margin); nodes that cannot be
certified fall back to an exact singular value decomposition. Pass
method="svd" to force the exact route everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
import scipy.linalg
from scipy.linalg import lapack

from ._pool import parallel_map
from .pseudospec import GridField, GridSpec, trial_matrix
from .rmtcore import DecompositionError

__all__ = [
    "LogPotentialField",
    "BrownEstimate",
    "default_floor",
    "log_potential",
    "brown_estimate",
    "stieltjes",
    "compare_esd_brown",
]

# The condition-estimate guard must clear the floor by this factor before
# the eigenvalue route is trusted; anything closer gets the exact SVD.
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
    eye = np.eye(N)

    if method == "svd":
        for k, z in enumerate(nodes_flat):
            sv = np.linalg.svd(P - z * eye, compute_uv=False)
            h[k] = np.mean(np.log(np.maximum(sv, floor)))
            trunc[k] = np.mean(sv <= floor)
        return h, trunc

    try:
        T, _ = scipy.linalg.schur(P, output="complex")
    except (np.linalg.LinAlgError, scipy.linalg.LinAlgError) as exc:
        raise DecompositionError(f"Schur decomposition failed: {exc}") from exc
    lam = np.diag(T).copy()
    diag_idx = np.diag_indices(N)
    for k, z in enumerate(nodes_flat):
        Tz = T.copy()
        Tz[diag_idx] -= z
        # smin(T - z) >= rcond * ||T - z||_1 / sqrt(N); rcond of a
        # triangular matrix costs O(N^2).
        rcond, info = lapack.ztrcon(Tz, norm="1", uplo="U", diag="N")
        norm1 = np.abs(Tz).sum(axis=0).max()
        if info == 0 and rcond * norm1 / math.sqrt(N) > _GUARD_MARGIN * floor:
            # No singular value can reach the floor, so the floored sum
            # equals (1/N) log |det(P - z)|, a function of eigenvalues.
            h[k] = np.mean(np.log(np.abs(lam - z)))
        else:
            sv = np.linalg.svd(P - z * eye, compute_uv=False)
            h[k] = np.mean(np.log(np.maximum(sv, floor)))
            trunc[k] = np.mean(sv <= floor)
    return h, trunc


def log_potential(p, N, grid, trials, floor=None, seed=0, threads=None, method="auto"):
    """Average of (1/N) sum_i log max(sigma_i(P - z), floor) over trials."""
    floor = default_floor(N) if floor is None else float(floor)
    if floor <= 0:
        raise ValueError("floor must be positive")
    if trials < 1:
        raise ValueError("trials must be >= 1")
    if method not in ("auto", "svd"):
        raise ValueError("method must be 'auto' or 'svd'")
    nodes_flat = grid.nodes().ravel()

    def one(trial):
        return _h_one_sample(trial_matrix(p, N, seed, trial), nodes_flat, floor, method)

    results = parallel_map(one, range(trials), threads)
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

    def interior_nodes(self):
        return self.grid.nodes()[1:-1, 1:-1]

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

    def one(trial):
        P = trial_matrix(p, N, seed, trial)
        sv = np.linalg.svd(P - z * np.eye(N), compute_uv=False)
        masses = sv * sv
        return np.array([np.mean(1.0 / (1j * e - masses)) for e in eta])

    samples = parallel_map(one, range(trials), threads)
    return np.mean(samples, axis=0)


def _interior_cell_edges(grid):
    # Cells of width dx centered on the interior nodes.
    re_edges = grid.re_min + grid.dx * (np.arange(grid.nx - 1) + 0.5)
    im_edges = grid.im_min + grid.dy * (np.arange(grid.ny - 1) + 0.5)
    return re_edges, im_edges


def compare_esd_brown(esd_sample, brown, bins):
    """Total-variation distance between binned ESD and Brown density.

    Eigenvalue mass is normalized over the whole sample; mass falling
    outside the binning box counts fully toward the distance (the Brown
    side has no mass there). The Brown density is clipped to nonnegative
    and renormalized before comparison. bins must coincide with the grid
    the Brown estimate was computed on.
    """
    lam = np.asarray(esd_sample.eigenvalues)
    if lam.size == 0:
        raise ValueError("empty spectrum")
    g = brown.grid
    same = (
        bins.nx == g.nx
        and bins.ny == g.ny
        and np.allclose(
            [bins.re_min, bins.re_max, bins.im_min, bins.im_max],
            [g.re_min, g.re_max, g.im_min, g.im_max],
        )
    )
    if not same:
        raise ValueError("bins must match the Brown estimate grid")

    re_edges, im_edges = _interior_cell_edges(g)
    hist, _, _ = np.histogram2d(lam.real, lam.imag, bins=[re_edges, im_edges])
    p = hist / lam.size

    q = np.clip(brown.density, 0.0, None)
    qsum = q.sum()
    if qsum <= 0:
        raise ValueError("Brown density has no positive mass to compare")
    q = q / qsum

    outside = 1.0 - p.sum()
    return float(0.5 * (np.abs(p - q).sum() + outside))
