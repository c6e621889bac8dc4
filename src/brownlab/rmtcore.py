"""Ginibre sampling, dense spectral decompositions, and empirical spectra.

All randomness flows through counter-based Philox streams keyed by
``(master seed, stream id, draw index)``, so that Monte Carlo trials are
reproducible no matter how they are scheduled across workers.

Decompositions call numpy directly, except the singular values of
`shifted_svals`, which call LAPACK's values-only ``zgesdd`` from numpy's
OpenBLAS through `_openblas.svdvals` (with the same bytes as
`np.linalg.svd`, but without holding the GIL). A LAPACK failure raises
numpy's LinAlgError and ends the run (exit code 2 from the CLI).
"""

from __future__ import annotations

import numpy as np

from ._openblas import svdvals

__all__ = [
    "stream",
    "ginibre_matrix",
    "ginibre_tuple",
    "haar_unitary",
    "esd",
    "shifted_svals",
    "csv_text",
]

# Stream ids for the substream registry. Every operation that consumes
# randomness draws from stream(seed, <id>, draw_index, ...).
STREAM_GINIBRE = 1
STREAM_HAAR = 2
STREAM_WALK = 3


def stream(seed, *path):
    """Return a Generator for the substream addressed by (seed, *path).

    Philox is counter based, so two streams with different paths are
    independent and the mapping is stable across runs, platforms, and
    thread schedules.
    """
    path = tuple(int(p) for p in path)
    ss = np.random.SeedSequence(int(seed), spawn_key=path)
    return np.random.Generator(np.random.Philox(ss))


def ginibre_matrix(N, rng):
    """N x N matrix of iid complex Gaussians, Re/Im variance 1/(2N) each."""
    if N < 1:
        raise ValueError("N must be >= 1")
    g = rng.standard_normal((N, N))
    h = rng.standard_normal((N, N))
    return (g + 1j * h) / np.sqrt(2.0 * N)


def ginibre_tuple(n, N, rng):
    """n independent Ginibre matrices drawn in order from one stream."""
    return [ginibre_matrix(N, rng) for _ in range(n)]


def haar_unitary(d, rng):
    """Haar-distributed d x d unitary (QR of a Ginibre with phase fix)."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def csv_text(columns):
    """CSV text with a header row, then one row of '.17g' reals per index.

    columns maps header name to an array; the arrays are read in
    row-major order, and ValueError is raised unless their sizes agree.
    """
    names = ",".join(columns)
    rows = zip(*(np.asarray(c).ravel().tolist() for c in columns.values()), strict=True)
    return names + "\n" + "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)


def esd(M):
    """Eigenvalues of a square matrix, with multiplicity; the uniform
    measure on them is the empirical spectral distribution.

    A non-square or non-finite M raises ValueError; a LAPACK failure
    raises LinAlgError.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("esd expects a square matrix")
    if not np.all(np.isfinite(M.real)) or not np.all(np.isfinite(M.imag)):
        raise ValueError("esd expects finite entries")
    return np.linalg.eigvals(M)


def shifted_svals(P, shifts):
    """Singular values of P - z for each shift z, one descending row per shift.

    One values-only SVD per shift, so only one shifted copy of P is alive
    at a time however many shifts there are. P - z is taken as complex128,
    as every P from `evaluate` already is.
    """
    eye = np.eye(P.shape[0])
    out = np.empty((len(shifts), P.shape[0]))
    for k, z in enumerate(shifts):
        out[k] = svdvals(P - z * eye)
    return out
