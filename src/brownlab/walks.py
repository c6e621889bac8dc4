"""Orthocomplement bases, test projections, determinant walks.

The linearized matrix L^z, viewed inside-out as an N x N array of
(r+1) x (r+1) blocks, reduces invertibility questions to a small test
projection: project one block column onto the orthocomplement of the
span of the others. That orthocomplement is spanned by the columns of a
basis matrix U, partitioned into N square blocks U_i, and the projected
column is the matrix random walk sum_i U_i^* L_i.

The basis is read off (L^z)^{-1}: its rows for block column j annihilate
every other column of L^z. L^z is given by its 2r+1 nonzero N x N blocks
(`linearize.LzBlocks`), and those rows come from the N x N Schur factor
S = P - z alone: one `np.linalg.inv` of S, then the blocks of the
inverse, one N x N product at a time. Neither L^z nor its inverse, both
(r+1)N square, is formed. That route is taken only when it is proven
safe. The retained columns M = L^z S satisfy
smin(M)/smax(M) >= 1/(||L^z||_F ||(L^z)^{-1}||_F), with both norms summed
exactly over the blocks, and that bound must clear the null-space cutoff
1e-12 by a factor 1e3; the basis must also annihilate M to
1e-10 ||L^z||_F. Any other draw assembles L^z and takes a full SVD of M,
which alone decides whether the draw is degenerate. Blocks with a
non-finite entry are refused with LinAlgError before either route runs.

Anti-concentration of det(walk) is governed by the determinant
coefficients Delta built from the rows of the blocks, by the structured
sets they define, and by the walk matrix Phi whose Gram matrix is the
covariance of the vectorized walk. This module makes each of those
objects samplable so the theory's inequalities can be checked on draws.

With Ginibre entries the steps are circular Gaussian, so the walk is a
circular Gaussian matrix whose law depends on Phi^* Phi alone: the
determinant experiment draws it in its (r+1)^2 coordinates through a QR
of Phi, not through the nN Gaussians of the steps. That shortcut needs
Gaussian steps; a walk with other step laws must be summed in full.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .pseudospec import MIN_TAIL_TRIALS, TailEstimate
from .rmtcore import STREAM_HAAR, STREAM_WALK, haar_unitary, stream

__all__ = [
    "WalkBasis",
    "DeltaReport",
    "DegenerateDrawError",
    "orthocomplement_basis",
    "delta_report",
    "walk_matrix",
    "det_tail_experiment",
]

ORTHO_TOL = 1e-10       # orthonormality of basis columns, checked on every draw
NULLSPACE_RTOL = 1e-12  # relative cutoff for reading off the null space
_CERT_MARGIN = 1e3      # factor by which the inverse's bound must clear NULLSPACE_RTOL
_CERT_RESID = 1e-10     # ||M^* U|| / ||L^z||_F the inverse's basis must reach
_TUPLE_CHUNK = 32_768   # Delta tuples per batched det call


class DegenerateDrawError(RuntimeError):
    """Retained columns were rank deficient; no clean orthocomplement."""


@dataclass(frozen=True)
class WalkBasis:
    """(r+1)N x (r+1) matrix with orthonormal columns, in N square blocks.

    Block U_i collects row i of each of the r+1 tall blocks of U; its
    k-th row is (v_i^k)^*.
    """

    N: int
    r: int
    U: np.ndarray

    def __post_init__(self):
        d = self.r + 1
        if self.U.shape != (d * self.N, d):
            raise ValueError("U must be (r+1)N x (r+1)")
        gram = self.U.conj().T @ self.U
        # negated so that a NaN residual (a non-finite U) is refused too
        if not np.abs(gram - np.eye(d)).max() <= ORTHO_TOL:
            raise ValueError("columns of U are not orthonormal to 1e-10")

    @property
    def blocks(self):
        """Array of shape (N, r+1, r+1); blocks[i] is U_i."""
        d = self.r + 1
        return self.U.reshape(d, self.N, d).transpose(1, 0, 2)

    def tall_block(self, k):
        """U^k, the k-th N x (r+1) slab of U."""
        return self.U[k * self.N:(k + 1) * self.N, :]

    def v_rows(self, k):
        """v_i^k vectors as rows of an N x (r+1) array (conjugated rows)."""
        return np.conj(self.tall_block(k))

    def dump(self):
        """(column-major complex-pair bytes, JSON header {N, r}), as `load` reads them."""
        flat = self.U.flatten(order="F")
        out = np.empty(2 * flat.size)
        out[0::2] = flat.real
        out[1::2] = flat.imag
        return out.tobytes(), json.dumps({"N": self.N, "r": self.r})

    @staticmethod
    def load(bin_path, header_path):
        with open(header_path, encoding="utf-8") as fh:
            head = json.load(fh)
        N, r = int(head["N"]), int(head["r"])
        raw = np.fromfile(bin_path)
        flat = raw[0::2] + 1j * raw[1::2]
        U = flat.reshape(((r + 1) * N, r + 1), order="F")
        return WalkBasis(N=N, r=r, U=U)


def orthocomplement_basis(blocks, j, seed):
    """Orthonormal basis of the orthocomplement of all block columns but j
    of L^z, given by its `linearize.LzBlocks`, right-twisted by a Haar
    unitary drawn from (seed, j).

    The basis comes from the block-row j of (L^z)^{-1}, which the N x N
    Schur factor S = P - z gives without forming L^z, when a bound
    proves the retained columns well conditioned and the result is
    checked to annihilate them; any other draw takes the exact route, a
    full SVD of the retained columns of the assembled L^z. Raises
    DegenerateDrawError when the retained columns are rank deficient
    (relative smin below 1e-12), since then the complement has excess
    dimension and the draw is ill-posed; no draw the bound certifies can
    be. Blocks with a non-finite entry raise LinAlgError before anything
    is decomposed, as a non-finite trial matrix does.
    """
    N, r = blocks.N, blocks.r
    d = r + 1
    if not 0 <= j < N:
        raise ValueError(f"block column index {j} outside [0, {N})")
    if not all(np.isfinite(M).all() for M in (blocks.B00, blocks.Y, blocks.C)):
        raise np.linalg.LinAlgError("L^z has non-finite entries")
    H = haar_unitary(d, stream(seed, STREAM_HAAR, j))
    if N == 1:
        return WalkBasis(N=N, r=r, U=H)
    null_basis = _certified_complement(blocks, j)
    if null_basis is None:
        null_basis = _svd_complement(blocks, j)
    return WalkBasis(N=N, r=r, U=null_basis @ H)


def _inverse_rows(blocks, j):
    """Rows kN + j (k = 0..r) of (L^z)^{-1} as an (r+1) x (r+1)N array, and
    ||(L^z)^{-1}||_F.

    With T_0 = S^{-1} and T_a = C_a S^{-1}, block (a, 0) of the inverse is
    T_a and block (a, b) is T_a Y_b, minus Id when a = b (`LzBlocks`). Each
    block is formed once, from the one inverse of S (`np.linalg.inv`); its
    row j goes to the rows and its squared norm to the sum, so the norm is
    exact, not a bound. A singular S raises LinAlgError.
    """
    S_inv = np.linalg.inv(blocks.schur())
    N, d = blocks.N, blocks.r + 1
    rows = np.empty((d, d * N), dtype=complex)
    inv_sq = 0.0
    for a in range(d):
        left = S_inv if a == 0 else blocks.C[a - 1] @ S_inv
        for b in range(d):
            block = left if b == 0 else left @ blocks.Y[b - 1]
            if a == b > 0:
                block.flat[::N + 1] -= 1.0
            inv_sq += np.vdot(block, block).real
            rows[a, b * N:(b + 1) * N] = block[j]
    return rows, np.sqrt(inv_sq)


def _annihilation_residual(blocks, Q, j):
    """||Q^H M||_F for the retained columns M of L^z, one block column at a time.

    Block column 0 of Q^H L^z is Q_0^H B00 + sum_k Q_k^H C_k and block
    column k is Q_0^H Y_k - Q_k^H, Q_a being the a-th N-row slab of Q;
    column j of each is a kept column and is left out.
    """
    N = blocks.N
    Qh = [Q[a * N:(a + 1) * N].conj().T for a in range(blocks.r + 1)]
    cols = [Qh[0] @ blocks.B00 + sum(Qh[k + 1] @ C_k for k, C_k in enumerate(blocks.C))]
    cols += [Qh[0] @ Y_k - Qh[k + 1] for k, Y_k in enumerate(blocks.Y)]
    sq = 0.0
    for col in cols:
        col[:, j] = 0.0
        sq += np.vdot(col, col).real
    return np.sqrt(sq)


def _certified_complement(blocks, j):
    """Orthonormal complement from the rows kN + j of (L^z)^{-1}, or None
    when no bound proves it.

    (L^z)^{-1} L^z = I, so the conjugates of those rows annihilate every
    other column of L^z; a reduced QR orthonormalizes them. The rows and the
    norm of the inverse come from `_inverse_rows`, so the route holds the
    blocks and a few N x N arrays, never an (r+1)N-square one. The
    retained columns are M = L^z S for a column selection S, so
    smin(M)/smax(M) >= 1/(||L^z||_F ||(L^z)^{-1}||_F); that bound must
    clear NULLSPACE_RTOL by _CERT_MARGIN, and the basis must annihilate
    the retained columns to _CERT_RESID ||L^z||_F.
    """
    try:
        rows, inv_norm = _inverse_rows(blocks, j)
    except np.linalg.LinAlgError:
        return None
    norm = blocks.frobenius()
    with np.errstate(over="ignore"):  # an infinite kappa is not certified
        kappa = norm * inv_norm
    if not np.isfinite(kappa) or kappa * NULLSPACE_RTOL * _CERT_MARGIN > 1.0:
        return None
    Q = np.linalg.qr(rows.conj().T)[0]
    if not _annihilation_residual(blocks, Q, j) <= _CERT_RESID * norm:
        return None
    return Q


def _svd_complement(blocks, j):
    """The exact route: trailing left singular vectors of the retained
    columns of the assembled L^z."""
    N, d = blocks.N, blocks.r + 1
    keep = [k * N + jj for k in range(d) for jj in range(N) if jj != j]
    M = blocks.dense()[:, keep]
    Ufull, sv, _ = np.linalg.svd(M)
    if sv[-1] <= NULLSPACE_RTOL * sv[0]:
        raise DegenerateDrawError(
            f"retained columns rank deficient: smin/smax = {sv[-1] / sv[0]:.2e}"
        )
    return Ufull[:, M.shape[1]:]


@dataclass(frozen=True)
class DeltaReport:
    """Maxima of the two Delta determinant families with witnesses.

    Witnesses are (variable index l, index tuple (i_0..i_r)); both maxima
    strictly below the threshold marks the basis as structured.
    """

    delta_threshold: float
    max_abs_delta1: float
    witness1: tuple | None
    max_abs_delta2: float
    witness2: tuple | None
    structured: bool

    def to_json(self):
        def wit(w):
            if w is None:
                return None
            return {"l": w[0], "indices": list(w[1])}

        return json.dumps(
            {
                "delta_threshold": self.delta_threshold,
                "max_abs_delta1": self.max_abs_delta1,
                "witness1": wit(self.witness1),
                "max_abs_delta2": self.max_abs_delta2,
                "witness2": wit(self.witness2),
                "structured": self.structured,
                # every scan is exhaustive; the key stays for existing readers
                "exact": True,
            },
            indent=1,
        )


def _delta_single(U, s_mat, l, indices):
    """One Delta determinant, recomputed directly from its definition."""
    v0 = U.v_rows(0)
    w = np.zeros(U.r + 1, dtype=complex)
    for k in range(U.r + 1):
        w += np.conj(s_mat[k, l - 1]) * U.v_rows(k)[indices[0]]
    cols = [w] + [v0[i] for i in indices[1:]]
    return np.linalg.det(np.stack(cols, axis=1))


def delta_report(U, s_vectors, threshold):
    """Exact maxima of |Delta| over both structured index families.

    For l in [r] (family 2) the tuples are (i_1..i_r) with i_0 = i_l, for
    l in [r+1, n] (family 1) all (i_0..i_r). The scan walks the N^r tails
    (i_1..i_r) in chunks of at most _TUPLE_CHUNK, so the full tensor is
    never materialized. Each chunk's (tuples, r+1, r+1) block gets its
    v^0 tail columns once; then for every l in [r], and for every l in
    [r+1, n] and i_0, only its first column is rewritten, and one batched
    det covers the chunk. The witness is the first strict maximum in the
    scan order (l, then i_0, then the tail): exact ties, which
    permutations of one tuple can give, go to the earlier scan position
    whatever the chunking.
    """
    if not 0 < threshold < np.inf:  # NaN fails too
        raise ValueError("threshold must be positive and finite")
    s_mat = np.atleast_2d(np.asarray(s_vectors, dtype=complex))
    r, N = U.r, U.N
    d = r + 1
    n = s_mat.shape[1]
    if s_mat.shape[0] != d:
        raise ValueError("need r+1 s-vectors")
    v0 = U.v_rows(0)                                    # (N, r+1)
    vk = np.stack([U.v_rows(k) for k in range(d)])      # (r+1, N, r+1)
    W = np.einsum("kl,kim->lim", np.conj(s_mat), vk)    # (n, N, r+1)

    T = N ** r
    best = {1: (0.0, None, None), 2: (0.0, None, None)}  # (max, scan position, witness)
    for start in range(0, T, _TUPLE_CHUNK):
        flat = np.arange(start, min(start + _TUPLE_CHUNK, T))
        tails = [flat // N ** (r - 1 - c) % N for c in range(r)]  # i_1..i_r
        block = np.empty((flat.size, d, d), dtype=complex)
        for c, t in enumerate(tails):
            block[:, :, c + 1] = v0[t]
        # (family, l, scan position of the chunk's first tuple, i_0)
        heads = [(2, l, (l - 1) * T, tails[l - 1]) for l in range(1, r + 1)]
        heads += [(1, l, ((l - 1) * N + i0) * T, i0)
                  for l in range(r + 1, n + 1) for i0 in range(N)]
        for family, l, base, i0 in heads:
            block[:, :, 0] = W[l - 1, i0]
            dets = np.abs(np.linalg.det(block))
            k = int(np.argmax(dets))
            top, pos, wit = best[family]
            here = base + start + k
            if dets[k] > top or (wit is not None and dets[k] == top and here < pos):
                head = int(i0[k] if family == 2 else i0)
                best[family] = (float(dets[k]), here, (l, (head, *(int(t[k]) for t in tails))))

    max1, _, wit1 = best[1]
    max2, _, wit2 = best[2]
    for fam_wit, fam_max in ((wit1, max1), (wit2, max2)):
        if fam_wit is not None:
            check = abs(_delta_single(U, s_mat, fam_wit[0], fam_wit[1]))
            if not np.isclose(check, fam_max, rtol=1e-9, atol=1e-12):
                raise AssertionError("witness failed to reproduce its maximum")
    structured = max1 < threshold and max2 < threshold
    return DeltaReport(
        delta_threshold=float(threshold),
        max_abs_delta1=max1,
        witness1=wit1,
        max_abs_delta2=max2,
        witness2=wit2,
        structured=structured,
    )


def walk_matrix(U, s_vectors):
    """Phi = (Q R), the (nN x (r+1)^2) covariance square root of the walk.

    The first r+1 columns stack Q^l = sum_k s_k[l] U^k over l in [n]; the
    remaining r(r+1) columns repeat U^0 down the block diagonal of the
    first r row blocks.
    """
    s_mat = np.atleast_2d(np.asarray(s_vectors, dtype=complex))
    r, N = U.r, U.N
    d = r + 1
    n = s_mat.shape[1]
    slabs = np.stack([U.tall_block(k) for k in range(d)])  # (r+1, N, r+1)
    Q = np.einsum("kl,kim->lim", s_mat, slabs)             # (n, N, r+1)
    phi = np.zeros((n * N, d * d), dtype=complex)
    for l in range(1, n + 1):
        phi[(l - 1) * N:l * N, 0:d] = Q[l - 1]
    for l in range(1, r + 1):
        phi[(l - 1) * N:l * N, l * d:(l + 1) * d] = slabs[0]
    return phi


def _walk_draws(U, s_vectors, trials, seed):
    """vec(W) of `trials` Gaussian walks, as a ((r+1)^2, trials) array."""
    R = np.linalg.qr(walk_matrix(U, s_vectors), mode="r")  # (k, (r+1)^2)
    rng = stream(seed, STREAM_WALK)
    # xi = g + i h, with g and then h drawn into one reused buffer
    xi = np.empty((R.shape[0], trials), dtype=complex)
    buf = np.empty((R.shape[0], trials))
    xi.real = rng.standard_normal(out=buf)
    xi.imag = rng.standard_normal(out=buf)
    del buf
    vecs = R.conj().T @ xi
    vecs /= np.sqrt(2.0 * U.N)
    return vecs


def det_tail_experiment(U, s_vectors, shift, eps_ladder, trials, seed):
    """Small-ball ladder for |det(shift + sum_i U_i^* L_i)|.

    The steps are complex Gaussians with the (2N)^{-1/2}(g + i h)
    normalization, so vec(W) = Phi^* xi / sqrt(N) with xi iid CN(0, 1) of
    length nN. The walk is drawn in its (r+1)^2 coordinates instead. With
    Phi = Q R from a QR of Phi (R has k = min(nN, (r+1)^2) rows),
    Phi^* xi = R^* (Q^* xi), and Q^* xi is again iid CN(0, 1) because the
    circular Gaussian is unitarily invariant. So the walk stream gives a
    (k x trials) block g, then h, and vec(W) = R^* (g + i h) / sqrt(2N).
    The law is exact, also for a rank-deficient Phi (the structured
    case), and memory is O((r+1)^2 trials). The reduction assumes
    circular Gaussian steps; any other step law needs the full
    nN-dimensional walk. A scalar shift c stands for c times the
    (r+1) x (r+1) identity.
    """
    if trials < MIN_TAIL_TRIALS:
        raise ValueError(f"det tail experiments need trials >= {MIN_TAIL_TRIALS}")
    r, N = U.r, U.N
    d = r + 1
    shift = shift * np.eye(d) if np.ndim(shift) == 0 else np.asarray(shift)
    if shift.shape != (d, d):
        raise ValueError("shift must be (r+1) x (r+1)")
    vecs = _walk_draws(U, s_vectors, trials, seed)
    W = vecs.T.reshape(trials, d, d).transpose(0, 2, 1)  # a view of vecs
    W += shift
    dets = np.abs(np.linalg.det(W))
    return TailEstimate.from_samples(dets, eps_ladder, z=None, N=N)
