"""Non-commutative polynomials: parsing, matrix evaluation, free moments.

A polynomial in n non-commuting variables is stored sparsely as a map from
words (tuples over 1..n) to complex coefficients.

Free moments of words in circular variables are counted by enumerating
non-crossing pairings in which every pair joins equal indices with opposite
adjoint markers.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

import numpy as np

__all__ = [
    "NcPoly",
    "StarWord",
    "ParseError",
    "parse",
    "parse_star_word",
    "evaluate",
    "free_moment",
    "star_word_matrix",
    "circular_word_traces",
]


class ParseError(ValueError):
    """Syntax or validation error in polynomial text, with byte offset."""

    def __init__(self, message, offset):
        super().__init__(f"{message} (at byte {offset})")
        self.offset = offset


@dataclass(frozen=True)
class NcPoly:
    """Sparse non-commutative polynomial over complex coefficients.

    terms maps words (tuples over 1..num_vars) to coefficients. Construction
    makes num_vars an int of at least 1 and every coefficient complex,
    checks the letters, merges like words and drops zeros; the degree is the
    longest stored word (0 for the zero polynomial).
    """

    num_vars: int
    terms: dict

    def __post_init__(self):
        num_vars = int(self.num_vars)
        if num_vars < 1:
            raise ValueError("num_vars must be a positive integer")
        clean = {}
        for word, coeff in self.terms.items():
            word = tuple(int(v) for v in word)
            coeff = complex(coeff)
            if coeff == 0:
                continue
            for letter in word:
                if not 1 <= letter <= num_vars:
                    raise ValueError(f"letter {letter} outside [1, {num_vars}]")
            clean[word] = clean.get(word, 0) + coeff
        object.__setattr__(self, "num_vars", num_vars)
        object.__setattr__(self, "terms", {w: c for w, c in clean.items() if c != 0})

    @property
    def degree(self):
        return max((len(w) for w in self.terms), default=0)

    def __add__(self, other):
        terms = dict(self.terms)
        for w, c in other.terms.items():
            terms[w] = terms.get(w, 0) + c
        return NcPoly(max(self.num_vars, other.num_vars), terms)

    def __mul__(self, other):
        if isinstance(other, (int, float, complex)):
            return NcPoly(self.num_vars, {w: c * other for w, c in self.terms.items()})
        n = max(self.num_vars, other.num_vars)
        terms = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                terms[w] = terms.get(w, 0) + c1 * c2
        return NcPoly(n, terms)


_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)(?P<imag>i)?"
    r"|(?P<var>x\d+)"
    r"|(?P<op>[+\-*()])"
)


# Deepest parenthesis nesting parse accepts. Each level costs three Python
# frames of the recursive descent, so this keeps far below the interpreter's
# recursion limit.
MAX_NESTING = 100


class _Parser:
    """Recursive descent over:  expr := term (('+'|'-') term)* ;
    term := factor ('*' factor)* ; factor := coeff | var | '(' expr ')'.
    """

    def __init__(self, text, num_vars):
        self.text = text
        self.num_vars = num_vars
        self.pos = 0
        self.depth = 0
        self.tok = None
        self._advance()

    def _advance(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        if self.pos >= len(self.text):
            self.tok = ("end", None, self.pos)
            return
        m = _TOKEN_RE.match(self.text, self.pos)
        if not m:
            raise ParseError(f"unexpected character {self.text[self.pos]!r}", self.pos)
        if m.group("num") is not None:
            value = float(m.group("num"))
            coeff = 1j * value if m.group("imag") else complex(value)
            self.tok = ("num", coeff, m.start("num"))
        elif m.group("var") is not None:
            self.tok = ("var", int(m.group("var")[1:]), m.start("var"))
        else:
            self.tok = ("op", m.group("op"), m.start("op"))
        self.pos = m.end()

    def parse(self):
        poly = self.expr()
        if self.tok[0] != "end":
            raise ParseError(f"trailing input {self.tok[1]!r}", self.tok[2])
        return poly

    def expr(self):
        sign = 1
        if self.tok[0] == "op" and self.tok[1] in "+-":
            sign = -1 if self.tok[1] == "-" else 1
            self._advance()
        poly = self.term() * sign
        while self.tok[0] == "op" and self.tok[1] in "+-":
            sign = -1 if self.tok[1] == "-" else 1
            self._advance()
            poly = poly + self.term() * sign
        return poly

    def term(self):
        poly = self.factor()
        while self.tok[0] == "op" and self.tok[1] == "*":
            self._advance()
            poly = poly * self.factor()
        return poly

    def factor(self):
        kind, value, offset = self.tok
        if kind == "num":
            self._advance()
            return NcPoly(1, {(): value})
        if kind == "var":
            if value == 0:
                raise ParseError("variable index 0 is not allowed", offset)
            if self.num_vars is not None and value > self.num_vars:
                raise ParseError(
                    f"variable x{value} exceeds declared n={self.num_vars}", offset
                )
            self._advance()
            return NcPoly(value, {(value,): 1.0})
        if kind == "op" and value == "(":
            if self.depth == MAX_NESTING:
                raise ParseError(f"parentheses nest deeper than {MAX_NESTING}", offset)
            self.depth += 1
            self._advance()
            poly = self.expr()
            if not (self.tok[0] == "op" and self.tok[1] == ")"):
                raise ParseError("expected ')'", self.tok[2])
            self.depth -= 1
            self._advance()
            return poly
        raise ParseError("expected coefficient, variable, or '('", offset)


def parse(text, num_vars=None):
    """Parse polynomial text into canonical NcPoly form.

    If num_vars is given, variable indices above it are rejected;
    otherwise n is the largest index that occurs (n=1 for constants).
    Parentheses nest at most MAX_NESTING (100) deep.
    """
    poly = _Parser(text, num_vars).parse()
    if num_vars is None:
        num_vars = max((max(w) for w in poly.terms if w), default=1)
    return NcPoly(num_vars, poly.terms)


def evaluate(p, X):
    """Evaluate p on a tuple of square matrices (any degree).

    The empty word contributes gamma times the identity.
    """
    X = [np.asarray(M) for M in X]
    if len(X) < p.num_vars:
        raise ValueError(f"need {p.num_vars} matrices, got {len(X)}")
    N = X[0].shape[0]
    for M in X:
        if M.shape != (N, N):
            raise ValueError("all matrices must be square of equal size")
    out = np.zeros((N, N), dtype=complex)
    eye = np.eye(N)
    for word, coeff in p.terms.items():
        if not word:
            out += coeff * eye
            continue
        prod = X[word[0] - 1]
        for letter in word[1:]:
            prod = prod @ X[letter - 1]
        out += coeff * prod
    return out


@dataclass(frozen=True)
class StarWord:
    """Word in circular variables and their adjoints, e.g. c1 c1* c2 c2*.

    letters is a tuple of (index, starred) pairs; the empty word is the unit.
    """

    letters: tuple

    def __str__(self):
        return " ".join(f"c{i}{'*' if s else ''}" for i, s in self.letters) or "1"


_STAR_RE = re.compile(r"c(\d+)(\*?)")


def parse_star_word(text):
    letters = []
    pos = 0
    for chunk in text.split():
        m = _STAR_RE.fullmatch(chunk)
        if not m:
            raise ParseError(f"bad star-word token {chunk!r}", text.find(chunk, pos))
        idx = int(m.group(1))
        if idx == 0:
            raise ParseError("variable index 0 is not allowed", text.find(chunk, pos))
        letters.append((idx, m.group(2) == "*"))
        pos = text.find(chunk, pos) + len(chunk)
    return StarWord(letters=tuple(letters))


def _pairable(a, b):
    return a[0] == b[0] and a[1] != b[1]


# Longest star word free_moment accepts. The interval table costs O(k^3)
# big-integer products: the alternating word of 512 letters takes about
# 1 s, and the cost grows eightfold with each doubling.
MAX_WORD_LETTERS = 512


def free_moment(w):
    """Count non-crossing pairings with equal indices and opposite markers.

    This is the mixed moment of free circular elements on the StarWord w.
    Non-crossing structure lets intervals be counted independently: the
    first letter of an interval pairs with some later letter m, splitting
    it into the interval inside the pair and the one after it. A table
    over the intervals, filled by increasing even length, gives exact
    integers for words of at most MAX_WORD_LETTERS (512) letters, and a
    ValueError for a longer one.
    """
    letters = w.letters
    k = len(letters)
    if k > MAX_WORD_LETTERS:
        raise ValueError(f"star word of {k} letters exceeds {MAX_WORD_LETTERS}")
    if k % 2 == 1:
        return 0
    # count[i][j]: admissible non-crossing pairings of letters[i:j]; an
    # empty interval has one, and odd intervals are never read
    count = [[1] * (k + 1) for _ in range(k + 1)]
    partners = [[m for m in range(i + 1, k, 2) if _pairable(letters[i], letters[m])]
                for i in range(k)]
    for length in range(2, k + 1, 2):
        for i in range(k - length + 1):
            j = i + length
            inner = count[i + 1]
            count[i][j] = sum(inner[m] * count[m + 1][j] for m in partners[i] if m < j)
    return count[0][k]


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
