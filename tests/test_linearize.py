import dataclasses
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from brownlab.linearize import (
    Linearization,
    SchurMismatchError,
    SingularFactorError,
    build_linearization,
    verify_schur,
)
from brownlab.ncpoly import NcPoly, evaluate, parse
from brownlab.pseudospec import trial_tuple


def _random_degree2(rng, n):
    """Random degree-2 polynomial with coefficients in the unit disk."""
    terms = {}
    while True:
        for l in range(1, n + 1):
            terms[(l,)] = _disk(rng)
            for m in range(1, n + 1):
                terms[(l, m)] = _disk(rng)
        terms[()] = _disk(rng)
        p = NcPoly(n, terms)
        if p.degree == 2:
            return p


def _split(p):
    """(A, b, gamma) with p = sum A[l,m] x_l x_m + sum b[l] x_l + gamma."""
    n = p.num_vars
    A = np.zeros((n, n), dtype=complex)
    b = np.zeros(n, dtype=complex)
    for word, coeff in p.terms.items():
        if len(word) == 2:
            A[word[0] - 1, word[1] - 1] = coeff
        elif len(word) == 1:
            b[word[0] - 1] = coeff
    return A, b, p.terms.get((), 0j)


def _disk(rng):
    z = complex(*rng.normal(size=2))
    return z / max(1.0, abs(z))


@st.composite
def degree2_polys(draw):
    """Polynomials of degree exactly 2 in 2..4 variables, coefficients in the unit disk."""
    n = draw(st.integers(2, 4))
    words = [()] + [(l,) for l in range(1, n + 1)]
    words += [(l, m) for l in range(1, n + 1) for m in range(1, n + 1)]
    p = NcPoly(n, {w: draw(st.complex_numbers(max_magnitude=1.0)) for w in words})
    assume(p.degree == 2)
    return p


# ------------------------------------------------------------ construction

def test_build_anticommutator_structure():
    lin = build_linearization(parse("x1*x2 + x2*x1"))
    assert lin.rank == 2
    assert lin.gamma == 0
    # s_1..s_r mutually orthogonal with positive norms
    S = np.stack(lin.s[1:])
    gram = S @ S.conj().T
    assert np.abs(gram - np.diag(np.diag(gram))).max() <= 1e-10
    assert np.all(np.diag(gram).real > 0)
    # rotation is unitary
    R = lin.rotation
    assert np.abs(R @ R.conj().T - np.eye(2)).max() <= 1e-10


def test_build_reconstructs_quadratic_coefficients():
    rng = np.random.default_rng(0)
    for n in (1, 2, 3, 4):
        p = _random_degree2(rng, n)
        lin = build_linearization(p)
        A, b, gamma = _split(p)
        # A[l,m] = sum_k R[k-1,l] * conj(s_k[m]) by the SVD construction
        recon = sum(
            np.outer(lin.rotation[k - 1], np.conj(lin.s[k]))
            for k in range(1, lin.rank + 1)
        )
        assert np.allclose(recon, A, atol=1e-12)
        # s_0 is the conjugated linear part
        assert np.allclose(lin.s[0], np.conj(b))
        assert lin.gamma == gamma


def test_build_square_of_one_variable():
    lin = build_linearization(parse("x1*x1"))
    assert lin.rank == 1
    assert np.allclose(lin.s[0], 0)
    assert np.isclose(abs(lin.s[1][0]), 1)


def test_build_rank_one_product():
    lin = build_linearization(parse("x1*x2"))
    assert lin.rank == 1
    # sigma_1 = 1 and s_1 = e_2 up to phase (hand SVD of [[0,1],[0,0]])
    assert np.isclose(np.linalg.norm(lin.s[1]), 1)
    assert np.isclose(abs(lin.s[1][1]), 1)


@pytest.mark.parametrize("text, n, r", [
    ("x1*x2+x2*x1", 2, 2),
    ("x1*x2+x2*x1+x3", 3, 2),
    ("x1*x2+x3*x4+x5", 5, 2),
    ("x1*x1+x2", 2, 1),
    ("x1*x2+0.5i*x2*x1+x3", 3, 2),  # complex A: conjugation would show
])
def test_build_rank_deficient_rotation(text, n, r):
    # for r < n, rows r..n-1 complete the rotation to a unitary
    p = parse(text)
    lin = build_linearization(p)
    assert (lin.num_vars, lin.rank) == (n, r)
    R = lin.rotation
    assert np.abs(R @ R.conj().T - np.eye(n)).max() <= 1e-12
    # the first r rows are the unconjugated left singular vectors of A
    A = _split(p)[0]
    sigma = np.linalg.svd(A, compute_uv=False)
    for k in range(r):
        assert np.allclose(A @ A.conj().T @ R[k], sigma[k] ** 2 * R[k], atol=1e-12)
    assert np.abs(A.conj().T @ R[r:].T).max(initial=0.0) <= 1e-12
    recon = sum(np.outer(R[k - 1], np.conj(lin.s[k])) for k in range(1, r + 1))
    assert np.abs(recon - A).max() <= 1e-12
    X = trial_tuple(n, 6, 12, 0)
    assert verify_schur(lin, X, 0.3 + 0.1j) <= 1e-8


def test_build_runs_one_svd(monkeypatch):
    calls = []
    svd = np.linalg.svd

    def counting_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counting_svd)
    build_linearization(parse("x1*x2+0.5i*x2*x1+x3"))
    assert len(calls) == 1


@pytest.mark.parametrize("weight, r", [(1e-9, 2), (1e-11, 1)])
def test_build_rank_cutoff(weight, r):
    # singular values at or below 1e-10 times the largest do not count
    assert build_linearization(parse(f"x1*x1 + {weight}*x2*x2")).rank == r


def test_build_rejects_wrong_degree():
    with pytest.raises(ValueError):
        build_linearization(parse("x1 + 2"))
    with pytest.raises(ValueError):
        build_linearization(parse("x1*x2*x1"))


_PENCIL_CASES = [
    ("x1*x2 + x2*x1", 1.0),
    ("x1*x2+x2*x1+x3", 0.3 - 0.2j),
    ("x1*x2+0.5i*x2*x1+x3", 2j),
    ("x1*x1+x2 - 0.7", -0.4 + 0.1j),
    ("x1*x2 - 0.3*x2*x3 + 0.1*x3*x1 + 0.2i*x2 + 1.5", 0.5j),
]


@pytest.mark.parametrize("text, z", _PENCIL_CASES)
def test_pencil_reads_back_quadratic_data(text, z):
    p = parse(text)
    lin = build_linearization(p)
    A, K = lin.pencil(z)
    n, d = lin.num_vars, lin.dim
    assert A.shape == (n, d, d) and K.shape == (d, d)
    A_p, b, gamma = _split(p)
    assert np.array_equal(A[:, 0, 0], b)
    quad = np.einsum("lk,mk->lm", A[:, 0, 1:], A[:, 1:, 0])
    assert np.abs(quad - A_p).max() <= 1e-12
    assert np.isclose(K[0, 0] + z, gamma, rtol=0, atol=1e-15)
    assert np.array_equal(np.diag(K)[1:], -np.ones(d - 1))
    # no other entry is set: A_l is an arrow, K is diagonal
    assert not A[:, 1:, 1:].any()
    assert not (K - np.diag(np.diag(K))).any()


# -------------------------------------------------------------- assembly

def test_assemble_anticommutator_scalar_case():
    lin = build_linearization(parse("x1*x2 + x2*x1"))
    x1, x2 = np.array([[0.7]]), np.array([[-0.3]])
    L = lin.blocks([x1, x2], 0.0).dense()
    assert L.shape == (3, 3)
    assert np.isclose(L[0, 0], 0)  # gamma - z + Y_0 with b = 0
    assert np.allclose(np.diag(L)[1:], -1)
    assert np.isclose(L[1, 2], 0) and np.isclose(L[2, 1], 0)
    # the off-diagonal blocks multiply back to the quadratic part
    assert np.isclose(L[0, 1] * L[1, 0] + L[0, 2] * L[2, 0], 2 * 0.7 * (-0.3))


def test_assemble_zero_inputs_is_pure_shift():
    lin = build_linearization(parse("x1*x2 + x2*x1"))
    Z = np.zeros((2, 2))
    L = lin.blocks([Z, Z], 1.0).dense()
    K = lin.pencil(1.0)[1]
    assert np.allclose(L, np.kron(K, np.eye(2)))


def test_assemble_corner_block_oracle():
    rng = np.random.default_rng(1)
    p = _random_degree2(rng, 3)
    lin = build_linearization(p)
    X = trial_tuple(3, 4, 2, 0)
    z = 0.3 - 0.2j
    L = lin.blocks(X, z).dense()
    _, b, gamma = _split(p)
    # direct block assembly oracle: (0,0) block is sum_l b_l X_l + (gamma-z) Id
    Y0 = sum(b[l] * X[l] for l in range(3)) + (gamma - z) * np.eye(4)
    assert np.allclose(L[:4, :4], Y0, atol=1e-12)
    assert L.shape == ((lin.rank + 1) * 4,) * 2


def _reference_Lz(lin, X, z):
    """L^z assembled block by block from the stored fields: the reference.

    Row 0 is (Y_0 + (gamma - z) Id, Xr_1, ..., Xr_r) with Xr_k the rotated
    inputs, column 0 is (., Y_1, ..., Y_r) with Y_k = sum_l conj(s_k[l]) X_l,
    and -Id fills the remaining diagonal.
    """
    n, r, R, N = lin.num_vars, lin.rank, lin.rotation, X[0].shape[0]
    d = r + 1
    L = np.zeros((d * N, d * N), dtype=complex)
    Y0 = sum(np.conj(lin.s[0][l]) * X[l] for l in range(n))
    L[0:N, 0:N] = Y0 + (lin.gamma - z) * np.eye(N)
    for k in range(1, d):
        L[0:N, k * N:(k + 1) * N] = sum(R[k - 1, l] * X[l] for l in range(n))
        L[k * N:(k + 1) * N, 0:N] = sum(np.conj(lin.s[k][l]) * X[l] for l in range(n))
        L[k * N:(k + 1) * N, k * N:(k + 1) * N] = -np.eye(N)
    return L


@settings(max_examples=50)
@given(degree2_polys(), st.integers(1, 6), st.integers(0, 2**32 - 1),
       st.complex_numbers(max_magnitude=3.0))
def test_assemble_equals_block_reference(p, N, trial, z):
    lin = build_linearization(p)
    X = trial_tuple(p.num_vars, N, 10, trial)
    assert np.array_equal(lin.blocks(X, z).dense(), _reference_Lz(lin, X, z))


@pytest.mark.parametrize("text, z", _PENCIL_CASES)
@pytest.mark.parametrize("N", [1, 6, 30])
def test_schur_factor_is_P_minus_z(text, z, N):
    # the linearization trick: the Schur complement S = B00 + sum_k Y_k C_k
    # of the -Id block of L^z is p(X) - z, so the blocks are read right
    p = parse(text)
    lin = build_linearization(p)
    X = trial_tuple(p.num_vars, N, 23, 0)
    ref = evaluate(p, X) - z * np.eye(N)
    S = lin.blocks(X, z).schur()
    assert np.linalg.norm(S - ref) <= 1e-12 * np.linalg.norm(ref)


def test_assemble_dimension_errors():
    lin = build_linearization(parse("x1*x2 + x2*x1"))
    with pytest.raises(ValueError):
        lin.blocks([np.eye(2)], 0.0).dense()
    with pytest.raises(ValueError):
        lin.blocks([np.eye(2), np.eye(3)], 0.0).dense()


# ------------------------------------------------------------ Schur checks

def test_verify_schur_anticommutator():
    lin = build_linearization(parse("x1*x2 + x2*x1"))
    X = trial_tuple(2, 6, 3, 0)
    assert verify_schur(lin, X, 0.3 + 0.1j) <= 1e-9


def test_verify_schur_scalar_like_case():
    lin = build_linearization(parse("x1*x1"))
    X = [np.eye(5)]
    # (P - z)^{-1} = (1 - 2)^{-1} Id = -Id
    P = evaluate(lin.source, X)
    assert np.allclose(np.linalg.inv(P - 2 * np.eye(5)), -np.eye(5))
    assert verify_schur(lin, X, 2.0) <= 1e-12


def test_verify_schur_figure_polynomial():
    lin = build_linearization(parse("x1*x2 - 0.3*x2*x3 + 0.1*x3*x1"))
    X = trial_tuple(3, 5, 4, 0)
    assert verify_schur(lin, X, 0.2 + 0.3j) <= 1e-9


@settings(max_examples=50)
@given(degree2_polys(), st.integers(2, 8), st.integers(0, 2**32 - 1),
       st.complex_numbers(max_magnitude=3.0))
def test_verify_schur_random_property(p, N, trial, z):
    X = trial_tuple(p.num_vars, N, 6, trial)
    try:
        residual = verify_schur(build_linearization(p), X, z)
    except SingularFactorError:
        assume(False)
    assert residual <= 1e-8


def test_verify_schur_singular_reported_distinctly():
    lin = build_linearization(parse("x1*x1"))
    with pytest.raises(SingularFactorError) as err:
        # P = Id, z = 1 makes P - z exactly singular; since
        # smin(L^z) <= smin(P - z) the linearization check trips first
        # and the error names the offending factor
        verify_schur(lin, [np.eye(4)], 1.0)
    assert err.value.which == "linearization L^z"
    assert err.value.smin <= 1e-10


def test_verify_schur_domination_violation():
    # a linearization paired with the wrong polynomial: P - z = 1e-6 Id,
    # whose inverse has norm 1e6, far above that of the whole (L^z)^{-1}
    lin = build_linearization(parse("x1*x2 + x2*x1"))
    lin = dataclasses.replace(lin, source=NcPoly(2, {(): 0.4 + 1e-6}))
    X = trial_tuple(2, 5, 7, 0)
    with pytest.raises(SchurMismatchError, match="domination"):
        verify_schur(lin, X, 0.4)


def test_gauge_invariance_of_corner_resolvent():
    p = parse("x1*x2 + x2*x1")
    lin = build_linearization(p)
    # rephase: r_k -> phi_k r_k, s_k -> conj(phi_k) s_k preserves the
    # quadratic part; also swap the two degenerate singular directions
    phis = np.exp(1j * np.array([0.4, -1.1]))
    R2 = lin.rotation.copy()
    s2 = list(lin.s)
    for k in (1, 2):
        R2[k - 1] = np.conj(phis[k - 1]) * R2[k - 1]
        s2[k] = np.conj(phis[k - 1]) * s2[k]
    R2[[0, 1]] = R2[[1, 0]]
    s2[1], s2[2] = s2[2], s2[1]
    lin2 = Linearization(rank=2, s=tuple(s2), rotation=R2, gamma=lin.gamma, source=p)

    X = trial_tuple(2, 5, 8, 0)
    z = 0.25 + 0.1j
    N = 5
    inv1 = np.linalg.inv(lin.blocks(X, z).dense())[:N, :N]
    inv2 = np.linalg.inv(lin2.blocks(X, z).dense())[:N, :N]
    assert np.allclose(inv1, inv2, atol=1e-10)


def _json_fields(text):
    """The fields of `Linearization.to_json`, read back with json.loads."""
    data = json.loads(text)
    s = tuple(np.array([complex(a, b) for a, b in v]) for v in data["s"])
    n = len(s[0])
    rot = np.array([complex(a, b) for a, b in data["rotation"]]).reshape(n, n)
    return {"rank": data["rank"], "s": s, "rotation": rot,
            "gamma": complex(*data["gamma"])}


def test_linearization_json_round_trip():
    p = parse("x1*x2 - 0.3*x2*x3 + 0.1*x3*x1")
    lin = build_linearization(p)
    back = Linearization(**_json_fields(lin.to_json()), source=p)
    assert back.rank == lin.rank
    assert np.allclose(back.rotation, lin.rotation)
    for a, b in zip(back.s, lin.s):
        assert np.allclose(a, b)
    assert back.gamma == lin.gamma
    X = trial_tuple(3, 4, 9, 0)
    assert np.allclose(back.blocks(X, 0.1).dense(), lin.blocks(X, 0.1).dense())


@given(st.integers(0, 2**32 - 1), st.integers(1, 3))
def test_linearization_json_round_trip_property(seed, n):
    lin = build_linearization(_random_degree2(np.random.default_rng(seed), n))
    back = _json_fields(lin.to_json())
    assert back["rank"] == lin.rank and back["gamma"] == lin.gamma
    assert np.array_equal(back["rotation"], lin.rotation)
    assert all(np.array_equal(a, b) for a, b in zip(back["s"], lin.s, strict=True))


def test_linearization_from_json_requires_source():
    # the JSON does not store the polynomial, and Linearization has no
    # default for it: a default would stand in P = 0
    lin = build_linearization(parse("x1*x2 + x2*x1"))
    assert "source" not in json.loads(lin.to_json())
    with pytest.raises(TypeError):
        Linearization(**_json_fields(lin.to_json()))
