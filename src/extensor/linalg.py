"""Exact linear algebra over the rationals.

Dense Gaussian elimination with first-nonzero pivoting, so every result
is deterministic and reproducible.  Matrices are lists of rows of
Fractions; everything stays exact.  :class:`SparseEchelon` does the same
for sparse vectors keyed by ordered basis keys.
"""

from __future__ import annotations

from fractions import Fraction


def _copy(rows):
    return [[Fraction(x) for x in row] for row in rows]


def rref(rows):
    """Reduced row echelon form.

    Returns ``(reduced, pivots)`` where ``reduced`` holds only the
    nonzero rows and ``pivots`` the pivot column of each.
    """
    mat = _copy(rows)
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
        inv = 1 / mat[r][c]
        mat[r] = [x * inv for x in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                f = mat[i][c]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return mat[:r], pivots


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
    aug = [list(map(Fraction, row)) + [Fraction(i == j) for j in range(n)]
           for i, row in enumerate(mat)]
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
    key of the vector first.
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
        vec = {k: Fraction(v) for k, v in vec.items() if v}
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
        scale = rest[lead]
        combo = {} if label is None else {label: 1 / scale}
        for k, v in coords.items():
            combo[k] = -v / scale
        self.rows[lead] = ({k: v / scale for k, v in rest.items()}, combo)
        return True
