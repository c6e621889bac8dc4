"""Reference computations that only the tests use.

Normalized traces of products of matrices and their adjoints, the Monte
Carlo side of the free-moment checks in test_ncpoly and acceptance
criterion 5.
"""

import numpy as np


def star_word_matrix(w, X):
    """Product matrix for a star word: c_i -> X[i-1], c_i* -> X[i-1]^H."""
    X = [np.asarray(M) for M in X]
    N = X[0].shape[0]
    out = np.eye(N, dtype=complex)
    for idx, starred in w.letters:
        M = X[idx - 1]
        out = out @ (M.conj().T if starred else M)
    return out


def circular_word_traces(X, max_len):
    """Normalized traces (1/N) tr for every star word of length <= max_len.

    Returns a dict keyed by letter tuples as in StarWord.letters. Words are
    split near the middle and all traces of a given split are contracted in
    one matrix product of flattened prefixes, which keeps the cost far below
    one matrix product per word.
    """
    X = [np.asarray(M) for M in X]
    n = len(X)
    N = X[0].shape[0]
    alphabet = [(i, False) for i in range(1, n + 1)] + [(i, True) for i in range(1, n + 1)]
    mats = {(i, False): X[i - 1] for i in range(1, n + 1)}
    mats.update({(i, True): X[i - 1].conj().T for i in range(1, n + 1)})

    half = (max_len + 1) // 2
    products = {(): np.eye(N, dtype=complex)}
    words_by_len = {0: [()]}
    for length in range(1, half + 1):
        words_by_len[length] = []
        for prefix in words_by_len[length - 1]:
            base = products[prefix]
            for letter in alphabet:
                w = prefix + (letter,)
                words_by_len[length].append(w)
                products[w] = base @ mats[letter]

    traces = {w: np.trace(P) / N for w, P in products.items() if len(w) <= max_len}
    for length in range(half + 1, max_len + 1):
        a = length // 2
        b = length - a
        left = words_by_len[a]
        right = words_by_len[b]
        L = np.stack([products[u].ravel() for u in left])
        R = np.stack([products[v].T.ravel() for v in right])
        T = (L @ R.T) / N
        for iu, u in enumerate(left):
            for iv, v in enumerate(right):
                traces[u + v] = T[iu, iv]
    return traces
