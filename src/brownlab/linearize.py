"""SVD-based linearization of a degree-2 polynomial and its block matrix.

A degree-2 polynomial p = sum A[l,m] x_l x_m + sum b[l] x_l + gamma, with
A, b and gamma read straight from its terms and A of numerical rank r, is
realized as the (0,0) resolvent block of an (r+1)N x (r+1)N matrix L^z
whose entries are degree-1 in the inputs: write A = U S V*, put
s_0 = conj(b), s_k = sigma_k v_k, and r_k = conj(u_k). Rotating the
Gaussian inputs by the unitary R = U^T, so that (R x)_k = <r_k, x> for the
r quadratic directions and the SVD's other left singular vectors fill the
remaining rows, turns the top row into the rotated inputs themselves,
which is the block form assembled here. Written as a pencil,
L^z = K^z (x) Id + sum_l A_l (x) X_l with (r+1) x (r+1) coefficients A_l
and K^z = diag(gamma - z, -Id_r). The Schur complement of the lower-right
-Id block is p(X) - z, so (p - z)^{-1} = ((L^z)^{-1})_{0,0} exactly.
Only 2r+1 of the (r+1)^2 N x N blocks of L^z are not -delta Id:
`Linearization.blocks` returns those (`LzBlocks`), and `LzBlocks.dense`
writes them into the dense matrix.

The SVD gauge (phases, ordering of degenerate singular directions) is not
fixed; every downstream contract in this package is gauge invariant.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from ._openblas import svdvals
from .ncpoly import NcPoly, evaluate
from .rmtcore import shifted_svals

__all__ = [
    "Linearization",
    "LzBlocks",
    "SingularFactorError",
    "build_linearization",
    "verify_schur",
    "SchurMismatchError",
]


class SingularFactorError(RuntimeError):
    """L^z or P - z was numerically singular; `which` names the culprit."""

    def __init__(self, which, smin):
        super().__init__(f"{which} is numerically singular (smin={smin:.3e})")
        self.which = which
        self.smin = smin


class SchurMismatchError(RuntimeError):
    """||(P-z)^{-1}|| exceeded ||(L^z)^{-1}||, which a block of an inverse cannot."""


@dataclass(frozen=True)
class Linearization:
    """Vectors and rotation realizing the degree-2 linearization.

    s holds s_0..s_r from the SVD route (s_1..s_r nonzero and mutually
    orthogonal); rotation is the n x n unitary U^T, the transpose of the
    SVD's left factor, whose first r rows turn the quadratic left factors
    into coordinate projections.
    """

    rank: int
    s: tuple
    rotation: np.ndarray
    gamma: complex
    source: NcPoly

    @property
    def num_vars(self):
        return self.rotation.shape[0]

    @property
    def dim(self):
        return self.rank + 1

    def pencil(self, z):
        """The coefficients (A, K) of L^z = kron(K, Id) + sum_l kron(A[l], X_l).

        A has shape (n, r+1, r+1): A_l[0,0] = conj(s_0[l]),
        A_l[0,k] = R[k-1,l] and A_l[k,0] = conj(s_k[l]) for k = 1..r, zero
        elsewhere. K = diag(gamma - z, -1, ..., -1) is (r+1) x (r+1).
        """
        A = np.zeros((self.num_vars, self.dim, self.dim), dtype=complex)
        A[:, :, 0] = np.conj(np.stack(self.s)).T
        A[:, 0, 1:] = self.rotation[:self.rank].T
        K = -np.eye(self.dim, dtype=complex)
        K[0, 0] = self.gamma - z
        return A, K

    def blocks(self, X, z):
        """The 2r+1 nonzero N x N blocks of L^z, read from pencil(z).

        Block (a, b) of L^z is sum_l A_l[a, b] X_l + K[a, b] Id, summed in
        the order of l. X needs at least num_vars square matrices of equal
        size; any beyond those are ignored.
        """
        X = [np.asarray(M) for M in X]
        n = self.num_vars
        if len(X) < n:
            raise ValueError(f"need {n} matrices, got {len(X)}")
        N = X[0].shape[0]
        for M in X[:n]:
            if M.shape != (N, N):
                raise ValueError("all matrices must be square of equal size")
        A, K = self.pencil(z)

        def block(a, b, out):
            np.multiply(A[0, a, b], X[0], out=out)
            for A_l, X_l in zip(A[1:n], X[1:n]):
                out += A_l[a, b] * X_l
            return out

        B00 = block(0, 0, np.empty((N, N), dtype=complex))
        B00.flat[::N + 1] += K[0, 0]
        Y = np.empty((self.rank, N, N), dtype=complex)
        C = np.empty((self.rank, N, N), dtype=complex)
        for k in range(1, self.dim):
            block(0, k, Y[k - 1])
            block(k, 0, C[k - 1])
        return LzBlocks(B00=B00, Y=Y, C=C)

    def s_matrix(self):
        """The s-vectors in the rotated frame of L^z, as (r+1) x n."""
        return np.stack([self.rotation @ sk for sk in self.s])

    def to_json(self):
        return json.dumps(
            {
                "rank": self.rank,
                "s": [_cvec(v) for v in self.s],
                "rotation": _cvec(self.rotation.ravel()),
                "gamma": [self.gamma.real, self.gamma.imag],
            }
        )


@dataclass(frozen=True)
class LzBlocks:
    """The nonzero N x N blocks of L^z: B00, Y_k = block (0, k) and C_k = block (k, 0).

    Y and C have shape (r, N, N), Y[k-1] being Y_k; every other block of
    L^z is -delta Id. The Schur complement of the -Id block is
    S = B00 + sum_k Y_k C_k, which is exactly P - z, and
    (L^z)^{-1} = [[S^{-1}, S^{-1} B01], [B10 S^{-1}, -Id + B10 S^{-1} B01]]
    with B01 = (Y_1 .. Y_r) and B10 = (C_1; ..; C_r).
    """

    B00: np.ndarray
    Y: np.ndarray
    C: np.ndarray

    @property
    def N(self):
        return self.B00.shape[0]

    @property
    def r(self):
        return self.Y.shape[0]

    def schur(self):
        """S = B00 + sum_k Y_k C_k, the N x N Schur factor P - z."""
        S = self.B00.copy()
        for Y_k, C_k in zip(self.Y, self.C):
            S += Y_k @ C_k
        return S

    def frobenius(self):
        """||L^z||_F, summed over the blocks; the r blocks -Id add rN."""
        sq = sum(np.vdot(M, M).real for M in (self.B00, self.Y, self.C))
        return float(np.sqrt(sq + self.r * self.N))

    def dense(self):
        """L^z as one (r+1)N-square array, each block written in place."""
        N, d = self.N, self.r + 1
        L = np.zeros((d * N, d * N), dtype=complex)
        L[:N, :N] = self.B00
        for k in range(1, d):
            L[:N, k * N:(k + 1) * N] = self.Y[k - 1]
            L[k * N:(k + 1) * N, :N] = self.C[k - 1]
            np.fill_diagonal(L[k * N:(k + 1) * N, k * N:(k + 1) * N], -1.0)
        return L


def _cvec(v):
    return [[z.real, z.imag] for z in np.asarray(v).ravel()]


# Rank cutoff relative to the top singular value. Coefficients are
# user-supplied exact-ish constants, so the cut sits far below any
# intentional scale separation.
RANK_TOL = 1e-10


def build_linearization(p):
    """Construct the linearization of a polynomial of degree exactly 2.

    One SVD of A != 0 gives the rank (at least 1), s-vectors and rotation.
    """
    if p.degree != 2:
        raise ValueError(f"linearization needs degree 2, got degree {p.degree}")
    n = p.num_vars
    A = np.zeros((n, n), dtype=complex)
    b = np.zeros(n, dtype=complex)
    for word, coeff in p.terms.items():
        if len(word) == 2:
            A[word[0] - 1, word[1] - 1] = coeff
        elif len(word) == 1:
            b[word[0] - 1] = coeff
    U, sigma, Vh = np.linalg.svd(A)
    r = int(np.sum(sigma > RANK_TOL * sigma[0]))
    s = (np.conj(b), *(sigma[k] * np.conj(Vh[k]) for k in range(r)))

    # Rows k of the rotation are the unconjugated SVD left columns, so that
    # (R x)_k recovers the k-th left linear factor of the quadratic part for
    # k < r; the full SVD's remaining columns complete R to a unitary.
    return Linearization(rank=r, s=s, rotation=U.T, gamma=p.terms.get((), 0j), source=p)


# Invertibility guard for both factors entering the resolvent identity.
SMIN_GUARD = 1e-10


def verify_schur(lin, X, z):
    """Residual of the resolvent identity between L^z and P - z.

    Inverts both sides densely and returns
    || (L^z)^{-1}[0:N,0:N] - (P-z)^{-1} ||_HS / || (P-z)^{-1} ||_HS.
    Raises SingularFactorError if either factor has smin below 1e-10. The
    weaker operator-norm domination ||(P-z)^{-1}|| <= ||(L^z)^{-1}|| must
    hold identically, since (P-z)^{-1} is a block of (L^z)^{-1}; it is
    read off the two smins, ||A^{-1}||_2 = 1/smin(A), and a violation
    raises SchurMismatchError. smin(P - z) comes from
    `rmtcore.shifted_svals`, and smin(L^z) from the same values-only SVD.
    """
    X = [np.asarray(M) for M in X]
    N = X[0].shape[0]
    P = evaluate(lin.source, X)
    Lz = lin.blocks(X, z).dense()

    smin_L = svdvals(Lz)[-1]
    if smin_L < SMIN_GUARD:
        raise SingularFactorError("linearization L^z", smin_L)
    smin_P = shifted_svals(P, [z])[0, -1]
    if smin_P < SMIN_GUARD:
        raise SingularFactorError("shifted polynomial P - z", smin_P)
    op_L, op_P = 1 / smin_L, 1 / smin_P
    if op_P > op_L * (1 + 1e-9):
        raise SchurMismatchError(
            f"operator-norm domination violated: {op_P:.6e} > {op_L:.6e}"
        )

    inv_L = np.linalg.inv(Lz)
    inv_P = np.linalg.inv(P - z * np.eye(N))
    return float(np.linalg.norm(inv_L[0:N, 0:N] - inv_P) / np.linalg.norm(inv_P))
