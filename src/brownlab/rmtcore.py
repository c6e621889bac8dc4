"""Ginibre sampling, dense spectral decompositions, and empirical spectra.

All randomness flows through counter-based Philox streams keyed by
``(master seed, stream id, draw index)``, so that Monte Carlo trials are
reproducible no matter how they are scheduled across workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "DecompositionError",
    "SpectrumSample",
    "SingularSpectrum",
    "stream",
    "ginibre_matrix",
    "ginibre_tuple",
    "haar_unitary",
    "esd",
    "singular_values",
    "singular_values_stack",
    "smin_stack",
    "write_csv",
]

# Stream ids for the substream registry. Every operation that consumes
# randomness draws from stream(seed, <id>, draw_index, ...).
STREAM_GINIBRE = 1
STREAM_HAAR = 2
STREAM_WALK = 3


class DecompositionError(RuntimeError):
    """A dense eigenvalue/SVD backend failed to converge."""


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


@dataclass(frozen=True)
class SpectrumSample:
    """Multiset of eigenvalues; the uniform measure on them is the ESD."""

    eigenvalues: np.ndarray

    def __len__(self):
        return len(self.eigenvalues)

    def to_csv(self, path_or_file):
        write_csv(path_or_file, {"re": self.eigenvalues.real, "im": self.eigenvalues.imag})

    @staticmethod
    def from_csv(path_or_file):
        data = np.loadtxt(path_or_file, delimiter=",", skiprows=1, ndmin=2)
        return SpectrumSample(eigenvalues=data[:, 0] + 1j * data[:, 1])


@dataclass(frozen=True)
class SingularSpectrum:
    """All singular values of a matrix, sorted non-increasing."""

    values: np.ndarray

    @property
    def smin(self):
        return float(self.values[-1])

    @property
    def smax(self):
        return float(self.values[0])


def write_csv(path_or_file, columns):
    """CSV with a header row, then one row of '.17g' reals per index.

    columns maps header name to an array; the arrays are read in
    row-major order, and ValueError is raised unless their sizes agree.
    """
    names = ",".join(columns)
    rows = zip(*(np.asarray(c).ravel().tolist() for c in columns.values()), strict=True)
    text = names + "\n" + "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)
    if hasattr(path_or_file, "write"):
        path_or_file.write(text)
    else:
        with open(path_or_file, "w", encoding="utf-8") as fh:
            fh.write(text)


def esd(M):
    """Eigenvalues of a square matrix, with multiplicity.

    Backend non-convergence surfaces as DecompositionError rather than a
    bare LinAlgError so callers can distinguish it from validation issues.
    """
    M = np.asarray(M)
    if M.ndim != 2 or M.shape[0] != M.shape[1]:
        raise ValueError("esd expects a square matrix")
    if not np.all(np.isfinite(M.real)) or not np.all(np.isfinite(M.imag)):
        raise ValueError("esd expects finite entries")
    try:
        lam = np.linalg.eigvals(M)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"eigenvalue backend failed: {exc}") from exc
    return SpectrumSample(eigenvalues=lam)


def singular_values(M):
    """Full singular spectrum of a rectangular matrix."""
    M = np.asarray(M)
    if not np.all(np.isfinite(M.real)) or not np.all(np.isfinite(M.imag)):
        raise ValueError("singular_values expects finite entries")
    try:
        sv = np.linalg.svd(M, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise DecompositionError(f"SVD backend failed: {exc}") from exc
    return SingularSpectrum(values=sv)


def singular_values_stack(stack):
    """Singular values of a stack of matrices, shape (..., k, min(m,n)).

    Items where the backend fails come back as NaN rows instead of
    aborting the whole batch.
    """
    stack = np.asarray(stack)
    try:
        return np.linalg.svd(stack, compute_uv=False)
    except np.linalg.LinAlgError:
        pass
    out = np.full(stack.shape[:-2] + (min(stack.shape[-2:]),), np.nan)
    flat = stack.reshape((-1,) + stack.shape[-2:])
    oflat = out.reshape((-1, out.shape[-1]))
    for i in range(flat.shape[0]):
        try:
            oflat[i] = np.linalg.svd(flat[i], compute_uv=False)
        except np.linalg.LinAlgError:
            pass
    return out


def smin_stack(stack):
    """Smallest singular value of each matrix in a stack (NaN on failure)."""
    return singular_values_stack(stack)[..., -1]
