import itertools
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from brownlab import walks
from brownlab.linearize import LzBlocks, build_linearization
from brownlab.ncpoly import NcPoly, evaluate, parse
from brownlab.pseudospec import TailEstimate, trial_tuple
from brownlab.rmtcore import STREAM_HAAR, STREAM_WALK, haar_unitary, stream
from brownlab.walks import (
    DegenerateDrawError,
    WalkBasis,
    delta_report,
    det_tail_experiment,
    orthocomplement_basis,
    walk_matrix,
)

ANTI = parse("x1*x2 + x2*x1")


def _anti_setup(N, z=0.0, seed=5, draw_seed=9, j=0):
    lin = build_linearization(ANTI)
    X = trial_tuple(2, N, seed, 0)
    Lz = lin.blocks(X, z).dense()
    U = orthocomplement_basis(lin.blocks(X, z), j, draw_seed)
    return lin, X, Lz, U


def _single_block_basis(N, r, i0):
    d = r + 1
    U = np.zeros((d * N, d), dtype=complex)
    U[np.arange(d) * N + i0, :] = np.eye(d)
    return WalkBasis(N=N, r=r, U=U)


# ---------------------------------------------------------- basis drawing

def test_orthocomplement_annihilates_retained_columns():
    lin, X, Lz, U = _anti_setup(12)
    N, r = 12, lin.rank
    keep = [k * N + jj for k in range(r + 1) for jj in range(N) if jj != 0]
    assert np.linalg.norm(U.U.conj().T @ Lz[:, keep]) <= 1e-9


def test_orthocomplement_orthonormal_and_deterministic():
    lin, X, _, U = _anti_setup(10)
    gram = U.U.conj().T @ U.U
    assert np.abs(gram - np.eye(3)).max() <= 1e-10
    U2 = orthocomplement_basis(lin.blocks(X, 0.0), 0, 9)
    assert np.array_equal(U.U, U2.U)


def test_orthocomplement_single_block_case_is_haar():
    # N = 1: no retained columns, the basis is a bare Haar unitary
    lin = build_linearization(ANTI)
    X = trial_tuple(2, 1, 1, 0)
    U = orthocomplement_basis(lin.blocks(X, 0.0), 0, 7)
    assert U.U.shape == (3, 3)
    assert np.abs(U.U @ U.U.conj().T - np.eye(3)).max() <= 1e-10


def test_orthocomplement_degenerate_draw_reported():
    # zero inputs at z = 0 leave the first block column of L^0 zero, so
    # the retained columns are rank deficient
    lin = build_linearization(ANTI)
    Z = np.zeros((4, 4))
    with pytest.raises(DegenerateDrawError):
        orthocomplement_basis(lin.blocks([Z, Z], 0.0), 0, 1)


# -------------------------------------------------- certified basis route

def _svd_route(Lz, j, seed, r):
    """The exact route written out: the trailing left singular vectors of
    the retained columns, twisted by the draw's Haar unitary, and the
    retained columns' smin/smax."""
    d = r + 1
    N = Lz.shape[0] // d
    keep = [k * N + jj for k in range(d) for jj in range(N) if jj != j]
    M = Lz[:, keep]
    Ufull, sv, _ = np.linalg.svd(M)
    return Ufull[:, M.shape[1]:] @ haar_unitary(d, stream(seed, STREAM_HAAR, j)), sv[-1] / sv[0]


def _no_svd(*args, **kwargs):
    raise AssertionError("the certified route took an SVD")


@pytest.mark.parametrize("text, n", [("x1*x2+x2*x1", 2), ("x1*x2+x2*x1+x3", 3)])
@pytest.mark.parametrize("N", [2, 12, 40])
@pytest.mark.parametrize("last", [False, True], ids=["j=0", "j=N-1"])
def test_certified_basis_spans_the_svd_complement(text, n, N, last, monkeypatch):
    lin = build_linearization(parse(text, num_vars=n))
    j = N - 1 if last else 0
    for seed in (1, 2, 3):
        X = trial_tuple(n, N, seed, 0)
        ref, _ = _svd_route(lin.blocks(X, 0.3 - 0.2j).dense(), j, seed, lin.rank)
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "svd", _no_svd)
            U = orthocomplement_basis(lin.blocks(X, 0.3 - 0.2j), j, seed).U
        assert np.abs(U @ U.conj().T - ref @ ref.conj().T).max() <= 1e-10


_CERT_KAPPA = 1 / (walks.NULLSPACE_RTOL * walks._CERT_MARGIN)  # largest kappa_F certified


def _kappa(blocks, j):
    """kappa_F = ||L^z||_F ||(L^z)^{-1}||_F as the certified route reads it."""
    return blocks.frobenius() * walks._inverse_rows(blocks, j)[1]


@pytest.mark.parametrize("case", ["singular", "ill-conditioned", "residual"])
def test_uncertified_draw_takes_the_exact_route_bit_for_bit(case, monkeypatch):
    # the Schur factor S = P - z is singular (every input has a zero column
    # j, so z = gamma = 0 is an eigenvalue of P and LU meets an exact zero
    # pivot) or nearly so (z = lambda + 1e-13 for an eigenvalue lambda of
    # P, so kappa_F is far above the cutoff), or the residual check is
    # made to fail; the retained columns stay full rank, so the exact
    # route returns its basis unchanged
    lin = build_linearization(ANTI)
    N, j, seed = 6, 2, 4
    X = trial_tuple(2, N, 70, 0)
    z = 0.0
    if case == "singular":
        for M in X:
            M[:, j] = 0.0
    elif case == "ill-conditioned":
        z = np.linalg.eigvals(evaluate(ANTI, X))[0] + 1e-13
    else:
        monkeypatch.setattr(walks, "_CERT_RESID", 0.0)
    blocks = lin.blocks(X, z)
    if case == "singular":
        with pytest.raises(np.linalg.LinAlgError):
            walks._inverse_rows(blocks, j)
    else:
        assert (_kappa(blocks, j) > _CERT_KAPPA) == (case == "ill-conditioned")
    ref, ratio = _svd_route(lin.blocks(X, z).dense(), j, seed, lin.rank)
    assert ratio > 1e-3
    assert np.array_equal(orthocomplement_basis(blocks, j, seed).U, ref)


def _no_inverse(*args, **kwargs):
    raise AssertionError("L^z was inverted")


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.inf)],
                         ids=["nan", "inf", "imag-inf"])
@pytest.mark.parametrize("N", [1, 5])
def test_non_finite_Lz_raises_before_any_decomposition(bad, N, monkeypatch):
    # trial_matrix's rule: a non-finite matrix is a backend failure
    # (LinAlgError, exit 2), not a draw; neither route may run on it. The
    # bad entry is entry (3N - 1, 0) of L^z, in its block C_2
    lin = build_linearization(ANTI)
    blocks = lin.blocks(trial_tuple(2, N, 72, 0), 0.3)
    blocks.C[1][N - 1, 0] = bad
    monkeypatch.setattr(np.linalg, "inv", _no_inverse)
    monkeypatch.setattr(np.linalg, "svd", _no_svd)
    with pytest.raises(np.linalg.LinAlgError, match="non-finite"):
        orthocomplement_basis(blocks, 0, 1)


def test_certified_route_inverts_only_the_N_by_N_schur_factor(monkeypatch):
    # one np.linalg.inv, of S = P - z, and no SVD: L^z is never inverted
    lin = build_linearization(ANTI)
    X = trial_tuple(2, 12, 3, 0)
    ref, _ = _svd_route(lin.blocks(X, 0.3).dense(), 4, 3, lin.rank)
    shapes = []
    numpy_inv = np.linalg.inv

    def recording_inv(A):
        shapes.append(np.shape(A))
        return numpy_inv(A)

    monkeypatch.setattr(np.linalg, "inv", recording_inv)
    monkeypatch.setattr(np.linalg, "svd", _no_svd)
    U = orthocomplement_basis(lin.blocks(X, 0.3), 4, 3).U
    assert shapes == [(12, 12)]
    assert np.abs(U @ U.conj().T - ref @ ref.conj().T).max() <= 1e-10


def _no_assembly(*args, **kwargs):
    raise AssertionError("L^z was assembled")


def test_certified_route_never_assembles_Lz(monkeypatch):
    lin = build_linearization(parse("x1*x2+x2*x1+x3", num_vars=3))
    X = trial_tuple(3, 12, 5, 0)
    ref, _ = _svd_route(lin.blocks(X, 0.3 - 0.2j).dense(), 7, 5, lin.rank)
    monkeypatch.setattr(LzBlocks, "dense", _no_assembly)
    U = orthocomplement_basis(lin.blocks(X, 0.3 - 0.2j), 7, 5).U
    assert np.abs(U @ U.conj().T - ref @ ref.conj().T).max() <= 1e-10


@pytest.mark.parametrize("N", [2, 12, 40])
def test_blockwise_kappa_equals_the_dense_frobenius_product(N):
    # ||L^z||_F is summed over the blocks, and ||(L^z)^{-1}||_F and the rows
    # kN + j over the blocks of the inverse, one N x N block at a time; a
    # dense inverse gives all of them at once
    lin = build_linearization(parse("x1*x2+x2*x1+x3", num_vars=3))
    X = trial_tuple(3, N, 80, 0)
    z, j = 0.3 - 0.2j, N - 1
    Lz = lin.blocks(X, z).dense()
    inv = np.linalg.inv(Lz)
    blocks = lin.blocks(X, z)
    rows, _ = walks._inverse_rows(blocks, j)
    dense = np.linalg.norm(Lz) * np.linalg.norm(inv)
    assert abs(_kappa(blocks, j) - dense) <= 1e-10 * dense
    ref = inv[[k * N + j for k in range(lin.dim)]]
    assert np.abs(rows - ref).max() <= 1e-10 * np.abs(ref).max()


@st.composite
def _quadratic_draws(draw):
    """A random quadratic polynomial in n <= 3 variables (coefficients in
    the unit disk), a Ginibre input of size N <= 8, a shift and j."""
    n = draw(st.integers(1, 3))
    N = draw(st.integers(2, 8))
    coeff = st.complex_numbers(max_magnitude=1.0)
    words = [()] + [(l,) for l in range(1, n + 1)]
    words += [(l, m) for l in range(1, n + 1) for m in range(1, n + 1)]
    p = NcPoly(n, {w: draw(coeff) for w in words})
    assume(p.degree == 2)
    X = trial_tuple(n, N, draw(st.integers(0, 2**32 - 1)), 0)
    return p, X, draw(coeff), draw(st.integers(0, N - 1))


@settings(max_examples=60, deadline=None)
@given(_quadratic_draws())
def test_certified_projector_matches_the_svd_route_property(case):
    # whenever the Schur-factor route certifies a draw, its projector is
    # the exact route's
    p, X, z, j = case
    lin = build_linearization(p)
    Q = walks._certified_complement(lin.blocks(X, z), j)
    if Q is not None:
        ref, _ = _svd_route(lin.blocks(X, z).dense(), j, 0, lin.rank)
        assert np.abs(Q @ Q.conj().T - ref @ ref.conj().T).max() <= 1e-10


@pytest.mark.parametrize("scale, degenerate", [(1e-14, True), (1e-9, False)])
def test_degenerate_exactly_below_the_nullspace_cutoff(scale, degenerate):
    # column 1 of every input scaled down, with z = gamma, scales column 1
    # of L^z, so smin/smax of the retained columns falls on either side of
    # 1e-12; L^z stays invertible, and the bound, which is below that
    # ratio, refuses both, so the exact route decides
    lin = build_linearization(ANTI)
    N, j = 5, 0
    X = trial_tuple(2, N, 71, 0)
    for M in X:
        M[:, 1] *= scale
    z = lin.gamma
    blocks = lin.blocks(X, z)
    assert _kappa(blocks, j) > _CERT_KAPPA
    _, exact = _svd_route(lin.blocks(X, z).dense(), j, 1, lin.rank)
    assert (exact <= walks.NULLSPACE_RTOL) == degenerate
    if degenerate:
        with pytest.raises(DegenerateDrawError):
            orthocomplement_basis(blocks, j, 1)
    else:
        orthocomplement_basis(blocks, j, 1)


def test_orthocomplement_memory_stays_below_two_copies_of_Lz(monkeypatch):
    # walks-scan's walks-delta draw (N = 120, z = 0.3, seed 1) takes the
    # certified route, which holds the Schur factor S, its inverse and
    # a few other N x N products beside the blocks, never an (r+1)N-square
    # array: 0.46 copies of L^z. The exact route's M, U and V^H peak at 3
    # copies of L^z
    lin = build_linearization(parse("x1*x2+x2*x1+x3", num_vars=3))
    N = 120
    blocks = lin.blocks(trial_tuple(3, N, 1, 0), 0.3)
    Lz_bytes = (lin.dim * N) ** 2 * np.dtype(complex).itemsize
    monkeypatch.setattr(np.linalg, "svd", _no_svd)
    tracemalloc.start()
    try:
        orthocomplement_basis(blocks, 0, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < Lz_bytes


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_walkbasis_rejects_a_non_finite_basis(bad):
    with pytest.raises(ValueError, match="orthonormal"):
        WalkBasis(N=1, r=2, U=np.full((3, 3), bad, dtype=complex))


def test_blocks_tile_the_basis():
    _, _, _, U = _anti_setup(8)
    blocks = U.blocks
    for i in range(8):
        for k in range(3):
            assert np.array_equal(blocks[i][k], U.U[k * 8 + i])


def _write_dump(U, bin_path, header_path):
    basis, header = U.dump()
    bin_path.write_bytes(basis)
    header_path.write_text(header)


def test_walkbasis_io_round_trip(tmp_path):
    _, _, _, U = _anti_setup(6)
    _write_dump(U, tmp_path / "u.bin", tmp_path / "u.json")
    back = WalkBasis.load(tmp_path / "u.bin", tmp_path / "u.json")
    assert back.N == U.N and back.r == U.r
    assert np.array_equal(back.U, U.U)


@given(st.integers(1, 6), st.integers(1, 3), st.integers(0, 2**32 - 1))
def test_walkbasis_io_round_trip_property(N, r, seed):
    rng = np.random.default_rng(seed)
    d = r + 1
    Q, _ = np.linalg.qr(rng.normal(size=(d * N, d)) + 1j * rng.normal(size=(d * N, d)))
    U = WalkBasis(N=N, r=r, U=Q)
    with tempfile.TemporaryDirectory() as tmp:
        _write_dump(U, Path(tmp) / "u.bin", Path(tmp) / "u.json")
        back = WalkBasis.load(Path(tmp) / "u.bin", Path(tmp) / "u.json")
    assert (back.N, back.r) == (N, r)
    assert np.array_equal(back.U, U.U)


# --------------------------------------------------------- test projection

def test_projection_single_block_identity():
    N, r, i0 = 7, 2, 3
    U = _single_block_basis(N, r, i0)
    rng = np.random.default_rng(0)
    col = rng.normal(size=((r + 1) * N, r + 1)) + 1j * rng.normal(size=((r + 1) * N, r + 1))
    M = np.stack([col[k * N + i0] for k in range(r + 1)])
    assert np.allclose(U.U.conj().T @ col, M)


def test_projection_determinant_bound():
    N = 14
    lin, X, Lz, U = _anti_setup(N)
    hL = U.U.conj().T @ Lz[:, [k * N for k in range(lin.rank + 1)]]
    sv = np.linalg.svd(hL, compute_uv=False)
    assert abs(np.linalg.det(hL)) <= sv[-1] * sv[0] ** lin.rank * (1 + 1e-9)


@pytest.mark.parametrize("text", ["x1*x2 + x2*x1", "x1*x2+x2*x1+x3", "x1*x2+0.5i*x2*x1+x3"])
@pytest.mark.parametrize("j", [0, 5])
def test_projection_is_shift_plus_walk(text, j):
    # U^* (block column j) = U_j^* K + sum_{l,i} X_l[i,j] U_i^* A_l: the
    # constant part is the shift walks-dettail adds to the walk
    p = parse(text)
    lin = build_linearization(p)
    N, z = 8, 0.3 - 0.1j
    X = trial_tuple(p.num_vars, N, 11, 0)
    Lz = lin.blocks(X, z).dense()
    U = orthocomplement_basis(lin.blocks(X, z), j, 12)
    A, K = lin.pencil(z)
    Ui = U.blocks
    walk = sum(X[l][i, j] * Ui[i].conj().T @ A[l]
               for l in range(p.num_vars) for i in range(N))
    hL = U.U.conj().T @ Lz[:, [k * N + j for k in range(lin.rank + 1)]]
    assert np.abs(hL - (Ui[j].conj().T @ K + walk)).max() <= 1e-12


def test_projection_scan_bounds_smin_of_Lz():
    # scanning j for the weakest test projection witnesses the reduction
    # inequality smin(hL_j0) <= sqrt(N) smin(L^z)
    lin = build_linearization(ANTI)
    N = 16
    for seed in (3, 4):
        X = trial_tuple(2, N, seed, 0)
        Lz = lin.blocks(X, 0.1 + 0.05j).dense()
        blocks = lin.blocks(X, 0.1 + 0.05j)
        smin_L = np.linalg.svd(Lz, compute_uv=False)[-1]
        smins = []
        for j in range(N):
            U = orthocomplement_basis(blocks, j, 100 + seed)
            hL = U.U.conj().T @ Lz[:, [k * N + j for k in range(lin.rank + 1)]]
            smins.append(np.linalg.svd(hL, compute_uv=False)[-1])
        assert min(smins) <= np.sqrt(N) * smin_L * (1 + 1e-6)


def test_projection_relabeling_invariance_statistical():
    # permuting the N block indices of U leaves the walk distribution
    # unchanged; check first moments across two permutations at 1e4 trials
    _, _, _, U = _anti_setup(8)
    lin = build_linearization(ANTI)
    s = lin.s_matrix()
    rng = np.random.default_rng(1)
    trials = 10_000

    def moments(basis, perm_seed):
        phi = walk_matrix(basis, s)
        prng = np.random.default_rng(perm_seed)
        g = prng.standard_normal((phi.shape[0], trials))
        h = prng.standard_normal((phi.shape[0], trials))
        xi = (g + 1j * h) / np.sqrt(2.0 * 8)
        vecs = phi.conj().T @ xi
        return (
            vecs.mean(axis=1),
            np.abs(vecs).mean(axis=1),
            vecs.std(axis=1),
            np.abs(vecs).std(axis=1),
        )

    perm = rng.permutation(8)
    blocks = U.U.reshape(3, 8, 3)[:, perm, :].reshape(24, 3)
    U_perm = WalkBasis(N=8, r=2, U=blocks)
    m1, a1, sc1, sa1 = moments(U, 11)
    m2, a2, sc2, sa2 = moments(U_perm, 12)
    se_complex = np.sqrt((sc1**2 + sc2**2) / trials)
    se_abs = np.sqrt((sa1**2 + sa2**2) / trials)
    assert np.all(np.abs(m1 - m2) <= 3 * (se_complex + 1e-12))
    assert np.all(np.abs(a1 - a2) <= 3 * (se_abs + 1e-12))


# ------------------------------------------------------------------ delta

def _brute_delta_maxima(U, s_mat):
    """Exhaustive tensor oracle, independent of the streaming scan.

    Returns (max, witness) per family, the witness being the first strict
    maximum in ascending l and itertools.product order.
    """
    r, N = U.r, U.N
    n = s_mat.shape[1]
    v = [np.conj(U.U[k * N:(k + 1) * N]) for k in range(r + 1)]
    w = [
        sum(np.conj(s_mat[k, l]) * v[k] for k in range(r + 1)) for l in range(n)
    ]
    best1, wit1 = 0.0, None
    for l in range(r + 1, n + 1):
        for tup in itertools.product(range(N), repeat=r + 1):
            cols = [w[l - 1][tup[0]]] + [v[0][i] for i in tup[1:]]
            val = abs(np.linalg.det(np.stack(cols, axis=1)))
            if val > best1:
                best1, wit1 = val, (l, tup)
    best2, wit2 = 0.0, None
    for l in range(1, r + 1):
        for tup in itertools.product(range(N), repeat=r):
            i0 = tup[l - 1]
            cols = [w[l - 1][i0]] + [v[0][i] for i in tup]
            val = abs(np.linalg.det(np.stack(cols, axis=1)))
            if val > best2:
                best2, wit2 = val, (l, (i0,) + tup)
    return (best1, wit1), (best2, wit2)


def test_delta_matches_brute_force_tensor():
    lin, _, _, U = _anti_setup(12)
    s = lin.s_matrix()
    rep = delta_report(U, s, threshold=1e-6)
    (b1, w1), (b2, w2) = _brute_delta_maxima(U, s)
    assert rep.max_abs_delta1 == b1 == 0.0  # family 1 empty for n = r
    assert rep.witness1 is None and w1 is None
    assert np.isclose(rep.max_abs_delta2, b2, rtol=1e-12)
    assert rep.witness2 == w2


def test_delta_family1_nonempty_when_n_exceeds_r():
    # rank-1 polynomial in 2 variables: family 1 ranges over l = 2
    lin = build_linearization(parse("x1*x2"))
    X = trial_tuple(2, 9, 13, 0)
    U = orthocomplement_basis(lin.blocks(X, 0.2), 0, 3)
    s = lin.s_matrix()
    rep = delta_report(U, s, threshold=1e-6)
    (b1, w1), (b2, w2) = _brute_delta_maxima(U, s)
    assert np.isclose(rep.max_abs_delta1, b1, rtol=1e-12)
    assert np.isclose(rep.max_abs_delta2, b2, rtol=1e-12)
    assert rep.witness1 is not None
    assert (rep.witness1, rep.witness2) == (w1, w2)


@pytest.mark.parametrize("text, n, N", [
    ("x1*x2+x2*x1+x3", 3, 6),  # r = 2: family 2 over l = 1, 2; family 1 over l = 3
    # r = 2, family 1 over l = 3..5; the s-vectors vanish at l = 1, 2, so
    # every family-2 Delta is 0 and neither side has a family-2 witness
    ("x1*x2+x3*x4+x5", 5, 4),
])
def test_delta_witnesses_follow_scan_order_in_both_families(text, n, N):
    # the witnesses set the delta.json bytes, so the scan order is pinned
    # against the oracle for a case with both families present
    lin = build_linearization(parse(text, num_vars=n))
    X = trial_tuple(n, N, 17, 0)
    U = orthocomplement_basis(lin.blocks(X, 0.3), 0, 19)
    s = lin.s_matrix()
    rep = delta_report(U, s, threshold=1e-9)
    (b1, w1), (b2, w2) = _brute_delta_maxima(U, s)
    assert w1 is not None
    assert np.isclose(rep.max_abs_delta1, b1, rtol=1e-12)
    assert np.isclose(rep.max_abs_delta2, b2, rtol=1e-12)
    assert (rep.witness1, rep.witness2) == (w1, w2)


def test_delta_repeated_zero_rows_give_zero():
    # a basis whose v_i^0 rows repeat makes every Delta with two equal
    # columns vanish
    N, r = 6, 2
    d = r + 1
    rng = np.random.default_rng(3)
    w = np.array([1.0, 0.0, 0.0])
    # columns [w_c 1/sqrt(N); y_c] with Y^H Y = I - conj(w) w^T
    M = np.eye(d) - np.outer(np.conj(w), w)
    evals, evecs = np.linalg.eigh(M)
    root = evecs @ np.diag(np.sqrt(np.maximum(evals, 0))) @ evecs.conj().T
    Q = np.linalg.qr(rng.normal(size=(r * N, d)) + 1j * rng.normal(size=(r * N, d)))[0]
    U = np.vstack([np.outer(np.ones(N) / np.sqrt(N), w), Q @ root])
    basis = WalkBasis(N=N, r=r, U=U)
    lin = build_linearization(ANTI)
    rep = delta_report(basis, lin.s_matrix(), threshold=1e-6)
    # tuples with i_1 = i_2 put the same v^0 column twice: det = 0; the
    # scan maximum comes only from distinct tuples, and v^0 constant
    # across i makes those vanish too
    assert rep.max_abs_delta2 <= 1e-12
    assert rep.structured


def test_delta_phase_invariance():
    lin, _, _, U = _anti_setup(10)
    s = lin.s_matrix()
    rep = delta_report(U, s, threshold=1e-6)
    phases = np.exp(1j * np.array([1.0, 0.3, -0.7]))
    U2 = WalkBasis(N=U.N, r=U.r, U=U.U * phases[None, :])
    rep2 = delta_report(U2, s, threshold=1e-6)
    assert np.isclose(rep.max_abs_delta1, rep2.max_abs_delta1, atol=1e-12)
    assert np.isclose(rep.max_abs_delta2, rep2.max_abs_delta2, rtol=1e-12)


def test_delta_sampled_bases_are_never_structured():
    lin = build_linearization(ANTI)
    N = 20
    threshold = float(N) ** (-lin.rank / 2 - 10)
    for draw in range(5):
        X = trial_tuple(2, N, 20 + draw, 0)
        U = orthocomplement_basis(lin.blocks(X, 0.0), 0, 30 + draw)
        rep = delta_report(U, lin.s_matrix(), threshold)
        assert not rep.structured
        assert np.linalg.svd(U.tall_block(0), compute_uv=False)[-1] > 0


def test_delta_report_independent_of_tuple_chunk(monkeypatch):
    # n = 3 > r = 2, so both families scan; a chunk of 7 divides neither
    # N^r = 100 nor N^(r+1) = 1000
    lin = build_linearization(parse("x1*x2 + x2*x1 + x3"))
    X = trial_tuple(3, 10, 11, 0)
    U = orthocomplement_basis(lin.blocks(X, 0.3), 0, 12)
    whole = delta_report(U, lin.s_matrix(), threshold=1e-9)
    monkeypatch.setattr(walks, "_TUPLE_CHUNK", 7)
    chunked = delta_report(U, lin.s_matrix(), threshold=1e-9)
    assert whole.witness1 is not None and whole.witness2 is not None
    assert chunked == whole


def _per_tuple_delta_maxima(U, s):
    """First strict maximum of |_delta_single| in scan order, one tuple at a time.

    |.| is np.abs, as in the scan: Python's abs rounds complex moduli
    differently in the last bit.
    """
    r, N, n = U.r, U.N, s.shape[1]
    best = {1: (0.0, None), 2: (0.0, None)}
    for l in range(1, n + 1):
        family = 2 if l <= r else 1
        for tup in itertools.product(range(N), repeat=r if family == 2 else r + 1):
            ind = (tup[l - 1], *tup) if family == 2 else tup
            val = np.abs(walks._delta_single(U, s, l, ind))
            if val > best[family][0]:
                best[family] = (val, (l, ind))
    return best


# six rows with entries 0 and +-1/2 whose three columns are orthonormal;
# any four of them span C^3
_HALF_ROWS = 0.5 * np.array([[1, 1, 0], [1, -1, 0], [1, 0, 1],
                             [1, 0, -1], [0, 1, 1], [0, 1, -1]])


def _dyadic_basis(seed, N=5, r=2):
    """A basis whose entries are 0 and +-1/2, so every Delta is exact.

    Four of _HALF_ROWS, with random signs, go to random rows of the v^0
    slab and the other two to random rows of the later slabs. LU of a
    matrix with such entries pivots on +-1/2 or +-1 and multiplies by 0,
    +-1/2, +-1 or +-2, so each det is computed without rounding.
    """
    rng = np.random.default_rng(seed)
    d = r + 1
    U = np.zeros((d * N, d), dtype=complex)
    rows = np.concatenate([rng.choice(N, 4, replace=False),
                           N + rng.choice((d - 1) * N, 2, replace=False)])
    U[rows] = _HALF_ROWS[rng.permutation(6)] * rng.choice([-1.0, 1.0], size=(6, 1))
    return WalkBasis(N=N, r=r, U=U)


@pytest.mark.parametrize("chunk", [walks._TUPLE_CHUNK, 7])
@pytest.mark.parametrize("seed", [0, 1, 2, 5, 7])
def test_delta_report_equals_per_tuple_loop(seed, chunk, monkeypatch):
    # for x1*x2+x2*x1+x3, w_3 = v^0, so every family-1 Delta is
    # det[v0[i0], v0[i1], v0[i2]]: on a dyadic basis the permutations of
    # the maximizing tuple tie bit for bit. A chunk of 7 tails visits
    # them out of scan order, so the witness must come from the scan
    # position, not from the order of discovery
    lin = build_linearization(parse("x1*x2+x2*x1+x3", num_vars=3))
    s = lin.s_matrix()
    U = _dyadic_basis(seed)
    monkeypatch.setattr(walks, "_TUPLE_CHUNK", chunk)
    rep = delta_report(U, s, threshold=1e-9)
    ref = _per_tuple_delta_maxima(U, s)
    assert (rep.max_abs_delta1, rep.witness1) == ref[1]
    assert (rep.max_abs_delta2, rep.witness2) == ref[2]
    top, (l, _) = ref[1]
    tied = [t for t in itertools.product(range(5), repeat=3)
            if np.abs(walks._delta_single(U, s, l, t)) == top]
    assert len(tied) > 1


@pytest.mark.parametrize("chunk", [walks._TUPLE_CHUNK, 7])
def test_delta_report_det_batches_cover_every_tuple_once(chunk, monkeypatch):
    # the batch sizes of det calls sum to r N^r + (n - r) N^(r+1), each at
    # most _TUPLE_CHUNK (the witness re-check is one 2-d det, not a batch)
    lin = build_linearization(parse("x1*x2+x2*x1+x3", num_vars=3))
    N, r, n = 9, lin.rank, 3
    X = trial_tuple(n, N, 21, 0)
    U = orthocomplement_basis(lin.blocks(X, 0.3), 0, 22)
    sizes = []
    det = np.linalg.det

    def counting_det(a):
        if a.ndim > 2:
            sizes.append(int(np.prod(a.shape[:-2])))
        return det(a)

    monkeypatch.setattr(walks, "_TUPLE_CHUNK", chunk)
    monkeypatch.setattr(np.linalg, "det", counting_det)
    delta_report(U, lin.s_matrix(), threshold=1e-9)
    assert sum(sizes) == r * N**r + (n - r) * N ** (r + 1)
    assert max(sizes) <= chunk


def test_delta_report_json_contains_witnesses():
    import json

    lin, _, _, U = _anti_setup(8)
    rep = delta_report(U, lin.s_matrix(), threshold=1e-6)
    data = json.loads(rep.to_json())
    assert data["witness2"]["l"] in (1, 2)
    assert len(data["witness2"]["indices"]) == 3
    assert data["structured"] is False


# ------------------------------------------------------------ walk matrix

def test_walk_matrix_shape_and_sparsity_rank_one():
    # n = 2, r = 1: Phi is 2N x 4 with U^0 in the upper right block only
    lin = build_linearization(parse("x1*x2"))
    X = trial_tuple(2, 5, 40, 0)
    U = orthocomplement_basis(lin.blocks(X, 0.1), 0, 41)
    phi = walk_matrix(U, lin.s_matrix())
    assert phi.shape == (10, 4)
    assert np.array_equal(phi[:5, 2:4], U.tall_block(0))
    assert np.all(phi[5:, 2:4] == 0)


def test_walk_matrix_anticommutator_layout():
    lin, _, _, U = _anti_setup(6)
    s = lin.s_matrix()
    phi = walk_matrix(U, s)
    N, d = 6, 3
    assert phi.shape == (2 * N, 9)
    # U^0 repeats down the block diagonal of the R part
    assert np.array_equal(phi[0:N, d:2 * d], U.tall_block(0))
    assert np.all(phi[0:N, 2 * d:] == 0)
    assert np.array_equal(phi[N:, 2 * d:], U.tall_block(0))
    assert np.all(phi[N:, d:2 * d] == 0)
    # Q block rows are the walk coefficient vectors
    slabs = np.stack([U.tall_block(k) for k in range(d)])
    for l in (1, 2):
        Q = sum(s[k, l - 1] * slabs[k] for k in range(d))
        assert np.allclose(phi[(l - 1) * N:l * N, 0:d], Q)


def test_walk_matrix_covariance_contract():
    # empirical covariance of the vectorized test projection U^* col against
    # Phi^* Phi / N, with the column built independently from explicit L_i blocks
    lin, _, _, U = _anti_setup(8)
    N, d, n = 8, 3, 2
    s = lin.s_matrix()
    phi = walk_matrix(U, s)
    rng = np.random.default_rng(44)
    trials = 10_000
    vecs = np.empty((trials, d * d), dtype=complex)
    for t in range(trials):
        xi = (rng.standard_normal((n, N)) + 1j * rng.standard_normal((n, N)))
        xi /= np.sqrt(2 * N)
        col = np.zeros((d * N, d), dtype=complex)
        for i in range(N):
            Li = np.zeros((d, d), dtype=complex)
            for k in range(d):
                Li[k, 0] = np.conj(s[k]) @ xi[:, i]
            for k in range(1, d):
                Li[0, k] = xi[k - 1, i]
            col[np.arange(d) * N + i, :] = Li
        vecs[t] = (U.U.conj().T @ col).flatten(order="F")
    emp = np.einsum("ta,tb->ab", vecs, vecs.conj()) / trials
    target = phi.conj().T @ phi / N
    err = np.linalg.norm(emp - target) / np.linalg.norm(target)
    assert err <= 0.10


# --------------------------------------------------------------- det tails

def test_det_tail_degenerate_single_block_walk():
    # all mass on one block with index >= 2 and no shift: every step is a
    # singular matrix times a unitary, so the determinant vanishes
    U = _single_block_basis(8, 2, i0=2)
    lin = build_linearization(ANTI)
    est = det_tail_experiment(U, lin.s_matrix(), np.zeros((3, 3)), np.logspace(-12, -1, 5),
                              200, 1)
    assert np.all(est.hits == est.trials)


def test_det_tail_unstructured_slope():
    lin, _, _, U = _anti_setup(30)
    rep = delta_report(U, lin.s_matrix(), threshold=1e-9)
    assert not rep.structured
    K = lin.pencil(0.0)[1]
    M = U.blocks[0].conj().T @ K
    est = det_tail_experiment(
        U, lin.s_matrix(), M, np.logspace(-6, -2, 9), 2000, seed=2
    )
    assert est.slope >= 1 / 3 - 0.1


def test_det_tail_rate_one_above_max_det():
    _, _, _, U = _anti_setup(10)
    lin = build_linearization(ANTI)
    est = det_tail_experiment(U, lin.s_matrix(), np.zeros((3, 3)), np.array([100.0]), 150,
                              seed=3)
    assert est.hits[-1] == est.trials


def test_det_tail_requires_trials():
    _, _, _, U = _anti_setup(6)
    lin = build_linearization(ANTI)
    with pytest.raises(ValueError):
        det_tail_experiment(U, lin.s_matrix(), np.zeros((3, 3)), np.array([0.1]), 50, seed=4)


@pytest.mark.parametrize("shift", [0.5, np.eye(2), np.eye(3).ravel()],
                         ids=["scalar", "2x2", "flat"])
def test_det_tail_shift_must_be_r_plus_1_square(shift):
    _, _, _, U = _anti_setup(6)
    lin = build_linearization(ANTI)
    with pytest.raises(ValueError, match=r"shift must be \(r\+1\) x \(r\+1\)"):
        det_tail_experiment(U, lin.s_matrix(), shift, np.array([0.1]), 100, seed=4)


def test_det_tail_deterministic():
    lin, _, _, U = _anti_setup(9)
    ladder = np.logspace(-5, -2, 5)
    a = det_tail_experiment(U, lin.s_matrix(), np.zeros((3, 3)), ladder, 300, seed=5)
    b = det_tail_experiment(U, lin.s_matrix(), np.zeros((3, 3)), ladder, 300, seed=5)
    assert np.array_equal(a.hits, b.hits)


def test_walk_qr_coordinates_reproduce_the_walk():
    # Phi^* xi = R^* (Q^* xi) for a fixed xi, and the sampler's R is the
    # R of that factorization
    lin, _, _, U = _anti_setup(12)
    phi = walk_matrix(U, lin.s_matrix())
    Q, R = np.linalg.qr(phi)
    rng = np.random.default_rng(61)
    xi = rng.standard_normal(phi.shape[0]) + 1j * rng.standard_normal(phi.shape[0])
    assert np.abs(phi.conj().T @ xi - R.conj().T @ (Q.conj().T @ xi)).max() <= 1e-12
    assert np.abs(np.linalg.qr(phi, mode="r") - R).max() <= 1e-12


def test_det_tail_walk_covariance_within_standard_errors():
    # vec W is circular Gaussian with covariance Phi^* Phi / N: for each
    # entry, the empirical E[v_a conj(v_b)] has standard error
    # sqrt(S_aa S_bb / T) and E[v_a v_b] (zero) has sqrt((S_aa S_bb + |S_ab|^2) / T)
    lin, _, _, U = _anti_setup(8)
    phi = walk_matrix(U, lin.s_matrix())
    trials = 20_000
    v = walks._walk_draws(U, lin.s_matrix(), trials, seed=62)
    assert v.shape == (9, trials)
    S = phi.conj().T @ phi / U.N
    var = np.outer(np.diag(S).real, np.diag(S).real)
    cov = v @ v.conj().T / trials
    pseudo = v @ v.T / trials
    assert np.all(np.abs(cov - S) <= 5 * np.sqrt(var / trials) + 1e-12)
    assert np.all(np.abs(pseudo) <= 5 * np.sqrt((var + np.abs(S) ** 2) / trials) + 1e-12)


def _one_shot_det_tail(U, s_vectors, shift, eps_ladder, trials, seed):
    """The walk as one (nN x trials) complex Gaussian block: the reference."""
    phi = walk_matrix(U, s_vectors)
    rng = stream(seed, STREAM_WALK)
    g = rng.standard_normal((phi.shape[0], trials))
    h = rng.standard_normal((phi.shape[0], trials))
    xi = (g + 1j * h) / np.sqrt(2.0 * U.N)
    d = U.r + 1
    W = (phi.conj().T @ xi).T.reshape(trials, d, d).transpose(0, 2, 1) + shift
    return TailEstimate.from_samples(np.abs(np.linalg.det(W)), eps_ladder, z=None, N=U.N)


def test_det_tail_rates_agree_with_the_full_walk():
    # every rung within 4 pooled binomial standard errors of the full
    # nN-dimensional walk, drawn independently (seed 106 against 6)
    lin, _, _, U = _anti_setup(45)
    K = lin.pencil(0.0)[1]
    M = U.blocks[0].conj().T @ K
    ladder = np.logspace(-5, -2, 13)
    trials = 3000
    got = det_tail_experiment(U, lin.s_matrix(), M, ladder, trials, seed=106)
    ref = _one_shot_det_tail(U, lin.s_matrix(), M, ladder, trials, seed=6)
    assert 0 < got.hits[-1] < trials
    pooled = (got.hits + ref.hits) / (2 * trials)
    se = np.sqrt(2 * pooled * (1 - pooled) / trials)
    assert np.all(np.abs(got.hits - ref.hits) / trials <= 4 * se)


def test_det_tail_runs_when_nN_is_below_the_walk_dimension():
    # N = 1: nN = 2 < (r+1)^2 = 9, so R has 2 rows and the walk spans a
    # 2-dimensional subspace of the 3 x 3 matrices
    lin, _, _, U = _anti_setup(1)
    v = walks._walk_draws(U, lin.s_matrix(), 500, seed=63)
    assert v.shape == (9, 500)
    assert np.linalg.matrix_rank(v) == 2
    est = det_tail_experiment(U, lin.s_matrix(), 0.5 * np.eye(3), np.logspace(-3, 0, 4),
                              500, seed=63)
    assert np.all(np.diff(est.hits) >= 0) and est.hits[-1] <= 500


def test_det_tail_memory_stays_below_one_gaussian_block():
    # the draw never forms an nN-row block: peak memory is a few complex
    # (r+1)^2 x trials arrays, whatever N (here 4 of them are 11.5 MB,
    # while one complex nN x trials block would be 32 MB)
    lin, _, _, U = _anti_setup(50)
    trials = 20_000
    walk_bytes = (U.r + 1) ** 2 * trials * 16
    tracemalloc.start()
    try:
        det_tail_experiment(U, lin.s_matrix(), np.zeros((3, 3)), np.logspace(-6, -1, 6), trials,
                            seed=7)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * walk_bytes
