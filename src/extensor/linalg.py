"""Exact linear algebra over the rationals.

:class:`SparseEchelon` is the package's one elimination routine: it
eliminates sparse vectors keyed by totally ordered keys fraction-free,
with the least key of a vector as its pivot.  The dense routines are
thin wrappers over it.  A matrix is a list of rows of rationals (ints,
Fractions, or anything ``Fraction`` reads), its columns are the keys,
and results are rows of Fractions; first-nonzero pivoting makes every
result deterministic.  :func:`rational` reads the numbers of an input
document exactly.
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


def _exact(q):
    """The rational ``q`` as an int when it is integral."""
    return q.numerator if q.denominator == 1 else q


def _add_multiple(vec: dict, f, other: dict) -> None:
    """``vec += f * other`` in place, dropping the zeros."""
    for k, v in other.items():
        nv = vec.get(k, 0) + f * v
        if nv:
            vec[k] = nv
        else:
            del vec[k]


class SparseEchelon:
    """Fraction-free sparse row echelon form over the rationals.

    Vectors are dicts from totally ordered keys to rationals.  ``rows``
    maps each pivot to ``(row, combo, den)``: ``row`` is a primitive
    integer vector with a positive coefficient at its least key, the
    pivot, and ``den * row`` is the integer combination ``combo`` of the
    labelled inserted vectors, plus one of the unlabelled ones, with
    ``den`` a positive int.  A vector is scaled to integers and each
    least key cleared by cross-multiplication with its pivot row, so it
    is only ever multiplied by positive ints, whose product is its
    scale.  Coordinates are added over the scale of their step and the
    remainder is divided by the final scale, so both are exact: ints
    where integral, else Fractions.
    """

    __slots__ = ("rows",)

    def __init__(self):
        self.rows: dict = {}

    def _clear(self, vec: dict, coords: dict | None):
        """``(rest, scale)``: ``rest`` is the integer vector left of
        ``scale * vec`` once its least key is not a pivot, and ``vec`` is
        ``rest / scale`` plus the combination of labelled vectors added
        to ``coords`` (plus unlabelled ones)."""
        rest = {k: v for k, v in vec.items() if v}
        scale = 1
        # a sum of ints is an int, and one Fraction makes it a Fraction
        if type(sum(rest.values())) is not int:
            scale = lcm(*[v.denominator for v in rest.values()])
            rest = {k: v.numerator * (scale // v.denominator) for k, v in rest.items()}
        while rest and (hit := self.rows.get(lead := min(rest))):
            row, combo, den = hit
            # p rest - f den row with p rest[lead] == f den row[lead] clears
            # the pivot; f combo / scale, at the new scale, goes to coords
            p, f = den * row[lead], rest[lead]
            if p != 1:
                g = gcd(f, p)
                p, f = p // g, f // g
                scale *= p
                rest = {k: p * v for k, v in rest.items()}
            _add_multiple(rest, -f * den, row)
            if coords is not None:
                _add_multiple(coords, f if scale == 1 else Fraction(f, scale), combo)
        return rest, scale

    def reduce(self, vec: dict, coords: dict | None = None) -> dict:
        """What is left of ``vec`` after clearing every pivot it reaches.

        Stops at the first least key that is not a pivot; the result is
        empty exactly when ``vec`` lies in the span.  When ``coords`` is
        given, the labelled vectors subtracted along the way are added
        to it, so that ``vec`` equals the result plus the combination
        ``coords`` of labelled vectors (plus unlabelled ones).
        """
        rest, scale = self._clear(vec, coords)
        if scale == 1:
            return rest
        if coords is not None:
            coords.update({k: _exact(v) for k, v in coords.items()})
        return {k: _exact(Fraction(v, scale)) for k, v in rest.items()}

    def insert(self, vec: dict, label=None) -> bool:
        """Reduce ``vec`` and store the remainder as a new row.

        Returns False, storing nothing, when ``vec`` lies in the span.
        """
        coords: dict = {}
        rest, scale = self._clear(vec, coords)
        if not rest:
            return False
        lead = min(rest)
        # h row == rest == scale (vec - coords) is the combination combo
        combo = {} if label is None else {label: scale}
        for k, v in coords.items():
            combo[k] = combo.get(k, 0) - int(scale * v)
        sign = 1 if rest[lead] > 0 else -1
        h = sign * gcd(*rest.values())
        g = sign * gcd(h, *combo.values())
        self.rows[lead] = ({k: v // h for k, v in rest.items()},
                           {k: v // g for k, v in combo.items() if v}, h // g)
        return True

    def reduced(self) -> dict:
        """The reduced row echelon form as ``{pivot: row}`` in increasing
        pivot order: each row primitive with a positive pivot and zero at
        every other pivot.  Divided by its pivot coefficient, each row is
        the row of the unique reduced form of the span."""
        done: dict = {}
        for lead in sorted(self.rows, reverse=True):
            row = self.rows[lead][0]
            for q in [k for k in row if k in done]:
                g = gcd(row[q], done[q][q])
                a, p = row[q] // g, done[q][q] // g
                row = {k: p * v for k, v in row.items()}
                _add_multiple(row, -a, done[q])
            h = gcd(*row.values())
            done[lead] = {k: v // h for k, v in row.items()}
        return dict(sorted(done.items()))


def _sparse(row) -> dict:
    """The dense ``row`` of rationals as a vector keyed by column."""
    return {j: x if isinstance(x, (int, Fraction)) else Fraction(x)
            for j, x in enumerate(row)}


def _reduced(rows) -> dict:
    """The echelon's reduced form of the dense ``rows``."""
    echelon = SparseEchelon()
    for row in rows:
        echelon.insert(_sparse(row))
    return echelon.reduced()


def rref(rows):
    """Reduced row echelon form.

    Returns ``(reduced, pivots)`` where ``reduced`` holds only the
    nonzero rows, as lists of Fractions, and ``pivots`` the pivot column
    of each: the echelon's reduced form divided by its pivots.
    """
    if not rows:
        return [], []
    reduced = _reduced(rows)
    return [[Fraction(row.get(j, 0), row[c]) for j in range(len(rows[0]))]
            for c, row in reduced.items()], list(reduced)


def rank(rows) -> int:
    echelon = SparseEchelon()
    return sum(echelon.insert(_sparse(row)) for row in rows)


def nullspace(rows, ncols):
    """Basis of the right nullspace of the matrix with the given rows,
    one vector per free column, read off the reduced form."""
    reduced = _reduced(rows)
    basis = []
    for free in range(ncols):
        if free in reduced:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for p, row in reduced.items():
            vec[p] = Fraction(-row.get(free, 0), row[p])
        basis.append(vec)
    return basis


def invert(mat):
    """Inverse of a square matrix; raises ValueError when singular."""
    n = len(mat)
    reduced = _reduced(list(row) + [int(i == j) for j in range(n)]
                       for i, row in enumerate(mat))
    if list(reduced)[:n] != list(range(n)):
        raise ValueError("matrix is singular")
    return [[Fraction(row.get(j, 0), row[p]) for j in range(n, 2 * n)]
            for p, row in list(reduced.items())[:n]]


def intersect_spans(rows_a, rows_b, ncols):
    """Basis of the intersection of two row spans, in reduced form
    (Zassenhaus): the vectors of the span of the rows ``(a | a)`` and
    ``(b | 0)`` with a zero first half are the ``(0 | x)`` with ``x`` in
    both spans, and the reduced rows with a second-half pivot span them.
    """
    if not rows_a or not rows_b:
        return []
    echelon = SparseEchelon()
    for row in rows_a:
        echelon.insert({(h, j): x for j, x in _sparse(row).items() for h in (0, 1)})
    for row in rows_b:
        echelon.insert({(0, j): x for j, x in _sparse(row).items()})
    return [[Fraction(row.get((1, j), 0), row[p]) for j in range(ncols)]
            for p, row in echelon.reduced().items() if p[0] == 1]
