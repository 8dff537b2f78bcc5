"""Exact linear algebra over the rationals.

Dense Gauss-Jordan elimination with first-nonzero pivoting, so every
result is deterministic and reproducible.  Matrices are lists of rows
of rationals (ints, Fractions, or anything ``Fraction`` reads), and
results are rows of Fractions.  :func:`rref`, which every dense routine
goes through, eliminates fraction-free on integer rows and divides by
the pivots only at the end.  :class:`SparseEchelon` eliminates sparse
vectors keyed by ordered basis keys.  :func:`rational` reads the
numbers of an input document exactly.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm

# |e| for a decimal "...e<e>": 10**e is built in full before reducing
MAX_DECIMAL_EXPONENT = 1000

_EXPONENT = re.compile(r"[eE][-+]?([\d_]+)")


def rational(value) -> Fraction:
    """``value`` (an int, a Fraction, a float, or a string such as
    ``"1/2"`` or ``"1.5e3"``) as an exact rational.

    A float is read as its shortest decimal, so a JSON ``0.1`` is 1/10.
    A decimal exponent beyond ``MAX_DECIMAL_EXPONENT`` raises ValueError
    before any power of ten is built; a value of no rational type, a
    ``bool`` (a JSON ``true``) among them, raises TypeError.
    """
    if isinstance(value, bool):
        raise TypeError(f"{value!r} is a boolean, not a number")
    if isinstance(value, float):
        value = repr(value)
    if isinstance(value, str):
        found = _EXPONENT.search(value)
        digits = found and found.group(1).replace("_", "").lstrip("0")
        if digits and (len(digits) > len(str(MAX_DECIMAL_EXPONENT))
                       or int(digits) > MAX_DECIMAL_EXPONENT):
            raise ValueError("decimal exponent beyond the limit of "
                             f"MAX_DECIMAL_EXPONENT = {MAX_DECIMAL_EXPONENT}")
    return Fraction(value)


def _primitive(row: list) -> list:
    """``row`` of ints divided by the gcd of its entries."""
    g = gcd(*row)
    return [x // g for x in row] if g > 1 else row


def _integer_row(row) -> list:
    """A primitive integer row with the same span as the rational ``row``."""
    row = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in row]
    d = lcm(*(x.denominator for x in row))
    return _primitive([x.numerator * (d // x.denominator) for x in row])


def rref(rows):
    """Reduced row echelon form.

    Returns ``(reduced, pivots)`` where ``reduced`` holds only the
    nonzero rows, as lists of Fractions, and ``pivots`` the pivot column
    of each.  Each row is scaled to a primitive integer row; a pivot
    clears its column from another row by cross-multiplication, and the
    result is made primitive again.  Scaling a row changes neither the
    pivots nor the reduced form, which is unique, so dividing each pivot
    row by its pivot at the end gives what ``Fraction`` elimination
    gives.
    """
    mat = [_integer_row(row) for row in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][c]), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        prow = mat[r]
        p = prow[c]
        for i, row in enumerate(mat):
            f = row[c]
            if f and i != r:
                mat[i] = _primitive([p * a - f * b for a, b in zip(row, prow)])
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [[Fraction(x, row[c]) for x in row]
            for row, c in zip(mat, pivots)], pivots


def rank(rows) -> int:
    return len(rref(rows)[0])


def nullspace(rows, ncols):
    """Basis of the right nullspace of the matrix with the given rows."""
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    basis = []
    for free in range(ncols):
        if free in pivot_set:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, p in zip(red, pivots):
            vec[p] = -row[free]
        basis.append(vec)
    return basis


def invert(mat):
    """Inverse of a square matrix; raises ValueError when singular."""
    n = len(mat)
    aug = [list(row) + [int(i == j) for j in range(n)] for i, row in enumerate(mat)]
    red, pivots = rref(aug)
    if pivots[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [row[n:] for row in red[:n]]


def solve_combination(rows, target):
    """Coefficients expressing ``target`` as a combination of ``rows``.

    Returns None when the target is outside the span.  With dependent
    rows the solution is the deterministic one with free coefficients
    set to zero.
    """
    target = [Fraction(t) for t in target]
    if not rows:
        return [] if not any(target) else None
    k = len(rows)
    n = len(rows[0])
    aug = [[Fraction(rows[j][i]) for j in range(k)] + [target[i]] for i in range(n)]
    red, pivots = rref(aug)
    if k in pivots:
        return None
    coeffs = [Fraction(0)] * k
    for row, p in zip(red, pivots):
        coeffs[p] = row[k]
    check = [sum(coeffs[j] * rows[j][i] for j in range(k)) for i in range(n)]
    return coeffs if check == target else None


def rank_factorization(mat):
    """Factor ``mat = C @ R`` with C the pivot columns and R the rref rows."""
    red, pivots = rref(mat)
    cols = [[Fraction(row[p]) for p in pivots] for row in mat]
    return cols, red


def intersect_spans(rows_a, rows_b, ncols):
    """Basis of the intersection of two row spans."""
    if not rows_a or not rows_b:
        return []
    stack = [list(map(Fraction, r)) for r in rows_a] + \
            [list(map(Fraction, r)) for r in rows_b]
    transposed = [[stack[i][j] for i in range(len(stack))] for j in range(ncols)]
    inter = []
    for coeffs in nullspace(transposed, len(stack)):
        vec = [sum(coeffs[i] * Fraction(rows_a[i][j]) for i in range(len(rows_a)))
               for j in range(ncols)]
        if any(vec):
            inter.append(vec)
    red, _ = rref(inter)
    return red


class SparseEchelon:
    """Sparse row echelon form over the rationals.

    Vectors are dicts from totally ordered keys to coefficients.  Each
    stored row is scaled to 1 at its pivot, its least key, and carries
    its combination: a dict from the labels of inserted vectors to the
    coefficients that give the row.  Elimination always clears the least
    key of the vector first.  Integral coefficients are stored as ints,
    so integer input with unit pivots never leaves integer arithmetic.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict = {}

    def reduce(self, vec: dict, coords: dict | None = None) -> dict:
        """What is left of ``vec`` after clearing every pivot it reaches.

        Stops at the first least key that is not a pivot; the result is
        empty exactly when ``vec`` lies in the span.  When ``coords`` is
        given, the labelled vectors subtracted along the way are added
        to it, so that ``vec`` equals the result plus the combination
        ``coords`` of labelled vectors.
        """
        vec = {k: v for k, v in vec.items() if v}
        while vec:
            lead = min(vec)
            hit = self.rows.get(lead)
            if hit is None:
                break
            row, combo = hit
            factor = vec[lead]
            for k, v in row.items():
                nv = vec.get(k, 0) - factor * v
                if nv:
                    vec[k] = nv
                else:
                    del vec[k]
            if coords is not None:
                for k, v in combo.items():
                    coords[k] = coords.get(k, 0) + factor * v
        return vec

    def insert(self, vec: dict, label=None) -> bool:
        """Reduce ``vec`` and store the remainder as a new row.

        Returns False, storing nothing, when ``vec`` lies in the span.
        """
        coords: dict = {}
        rest = self.reduce(vec, coords)
        if not rest:
            return False
        lead = min(rest)
        scale = Fraction(rest[lead])
        combo = {} if label is None else {label: 1}
        combo.update((k, -v) for k, v in coords.items())
        self.rows[lead] = tuple(
            {k: q.numerator if (q := v / scale).denominator == 1 else q
             for k, v in part.items()} for part in (rest, combo))
        return True
