"""Dense linear algebra against a ``Fraction`` Gauss-Jordan reference.

The reference below is the elimination written entry by entry over
``Fraction``: scale the pivot row to 1, clear the pivot column above and
below.  Every public routine of :mod:`extensor.linalg` must give exactly
its results, entry types included, on random rational matrices with
dependent rows, zero rows and zero columns, and on the empty and 1 x 1
shapes.  ``SparseEchelon``, which every routine eliminates through, is
checked against it on labelled integer and rational vectors: what it
stores, what ``insert`` and ``reduce`` answer, and its reduced form.
"""

from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

from extensor import linalg


def ref_rref(rows):
    mat = [[Fraction(x) for x in row] for row in rows]
    if not mat:
        return [], []
    pivots, r = [], 0
    for c in range(len(mat[0])):
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


def ref_nullspace(rows, ncols):
    red, pivots = ref_rref(rows)
    basis = []
    for free in range(ncols):
        if free in pivots:
            continue
        vec = [Fraction(0)] * ncols
        vec[free] = Fraction(1)
        for row, p in zip(red, pivots):
            vec[p] = -row[free]
        basis.append(vec)
    return basis


def ref_invert(mat):
    n = len(mat)
    aug = [[Fraction(x) for x in row] + [Fraction(i == j) for j in range(n)]
           for i, row in enumerate(mat)]
    red, pivots = ref_rref(aug)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in red[:n]]


def ref_intersect_spans(rows_a, rows_b, ncols):
    if not rows_a or not rows_b:
        return []
    stack = [[Fraction(x) for x in r] for r in rows_a + rows_b]
    transposed = [[stack[i][j] for i in range(len(stack))] for j in range(ncols)]
    inter = []
    for coeffs in ref_nullspace(transposed, len(stack)):
        vec = [sum(coeffs[i] * stack[i][j] for i in range(len(rows_a)))
               for j in range(ncols)]
        if any(vec):
            inter.append(vec)
    return ref_rref(inter)[0]


def typed(x):
    """``x`` with the type of every entry, so that equal values of other
    types compare unequal."""
    if isinstance(x, (list, tuple)):
        return [typed(y) for y in x]
    return (type(x).__name__, x)


entries = st.one_of(
    st.integers(-6, 6),
    st.builds(Fraction, st.integers(-6, 6), st.sampled_from((1, 2, 3, 7, 1_000_000_007))))


@st.composite
def matrices(draw, nrows=None, ncols=None):
    """Rows that are random, zero, or combinations of earlier rows, with
    some columns zeroed out."""
    nrows = draw(st.integers(0, 6)) if nrows is None else nrows
    ncols = draw(st.integers(1, 6)) if ncols is None else ncols
    rows = []
    for _ in range(nrows):
        kind = draw(st.sampled_from(("random", "random", "zero", "combination")))
        if kind == "zero" or (kind == "combination" and not rows):
            rows.append([0] * ncols)
        elif kind == "random":
            rows.append(draw(st.lists(entries, min_size=ncols, max_size=ncols)))
        else:
            a, b = draw(st.sampled_from(rows)), draw(st.sampled_from(rows))
            s, t = draw(entries), draw(entries)
            rows.append([s * x + t * y for x, y in zip(a, b)])
    zeroed = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols))
    return [[0 if j in zeroed else x for j, x in enumerate(row)] for row in rows]


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_rref_rank_and_nullspace_match_the_reference(rows):
    ncols = len(rows[0]) if rows else 3
    assert typed(linalg.rref(rows)) == typed(ref_rref(rows))
    assert linalg.rank(rows) == len(ref_rref(rows)[0])
    assert typed(linalg.nullspace(rows, ncols)) == typed(ref_nullspace(rows, ncols))


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 5).flatmap(lambda n: matrices(nrows=n, ncols=max(n, 1))))
def test_invert_matches_the_reference(mat):
    want = ref_invert(mat)
    if want is None:
        with pytest.raises(ValueError, match="singular"):
            linalg.invert(mat)
    else:
        assert typed(linalg.invert(mat)) == typed(want)


@settings(max_examples=100, deadline=None)
@given(st.integers(1, 5).flatmap(lambda n: st.tuples(matrices(ncols=n), matrices(ncols=n))))
def test_intersect_spans_matches_the_reference(pair):
    rows_a, rows_b = pair
    ncols = len((rows_a + rows_b)[0]) if rows_a + rows_b else 1
    got = linalg.intersect_spans(rows_a, rows_b, ncols)
    assert typed(got) == typed(ref_intersect_spans(rows_a, rows_b, ncols))


def test_fixed_shapes():
    assert linalg.rref([]) == ([], [])
    assert linalg.rank([]) == 0
    assert linalg.nullspace([], 2) == [[1, 0], [0, 1]]
    assert linalg.invert([]) == []
    assert linalg.rref([[0]]) == ([], [])
    assert typed(linalg.rref([[Fraction(-3, 7)]])) == typed(([[Fraction(1)]], [0]))
    assert typed(linalg.invert([[Fraction(-3, 7)]])) == typed([[Fraction(-7, 3)]])
    with pytest.raises(ValueError, match="singular"):
        linalg.invert([[0]])
    # entries may be ints, Fractions or strings such as "1/2"
    rows = [[1, "1/2", Fraction(2, 3)], ["3", 0, "-1/3"]]
    assert typed(linalg.rref(rows)) == typed(ref_rref(rows))


# -- the echelon itself --------------------------------------------------

def dense(vec, ncols):
    return [Fraction(vec.get(j, 0)) for j in range(ncols)]


@st.composite
def labelled_vectors(draw):
    """Sparse vectors on column keys, random or combinations of earlier
    ones, with integer entries (non-unit pivots, as on the letterplace
    side) or rational ones."""
    ncols = draw(st.integers(1, 6))
    pick = st.integers(-6, 6) if draw(st.booleans()) else entries
    vecs = []
    for _ in range(draw(st.integers(0, 7))):
        if vecs and draw(st.booleans()):
            a, b = draw(st.sampled_from(vecs)), draw(st.sampled_from(vecs))
            s, t = draw(pick), draw(pick)
            vec = {j: s * a.get(j, 0) + t * b.get(j, 0) for j in range(ncols)}
        else:
            vec = dict(enumerate(draw(st.lists(pick, min_size=ncols, max_size=ncols))))
        vecs.append({j: x for j, x in vec.items() if x})
    probe = dict(enumerate(draw(st.lists(pick, min_size=ncols, max_size=ncols))))
    weights = draw(st.lists(pick, min_size=len(vecs), max_size=len(vecs)))
    inside = {j: sum((w * v.get(j, 0) for w, v in zip(weights, vecs)), 0)
              for j in range(ncols)}
    return ncols, vecs, [probe, inside, {}]


def exact(x):
    return type(x) is int or (type(x) is Fraction and x.denominator != 1)


@settings(max_examples=300, deadline=None)
@given(labelled_vectors())
def test_sparse_echelon_against_the_reference(case):
    ncols, vecs, probes = case
    echelon = linalg.SparseEchelon()
    for i, vec in enumerate(vecs):
        grows = len(ref_rref([dense(v, ncols) for v in vecs[:i + 1]])[0]) > \
            len(ref_rref([dense(v, ncols) for v in vecs[:i]])[0])
        assert echelon.insert(vec, label=i) == grows
    # each row: primitive ints with a positive pivot at its least key, and
    # den * row the combination combo of the inserted vectors
    for lead, (row, combo, den) in echelon.rows.items():
        assert lead == min(row) and row[lead] > 0
        assert all(type(x) is int for x in [*row.values(), *combo.values(), den])
        assert den > 0 and gcd(*row.values()) == 1
        assert [den * x for x in dense(row, ncols)] == \
            [sum(c * Fraction(vecs[l].get(j, 0)) for l, c in combo.items())
             for j in range(ncols)]
    rank = len(ref_rref([dense(v, ncols) for v in vecs])[0])
    for vec in probes:
        coords: dict = {}
        rest = echelon.reduce(vec, coords)
        inside = len(ref_rref([dense(v, ncols) for v in vecs + [vec]])[0]) == rank
        assert (not rest) == inside
        assert all(map(exact, [*rest.values(), *coords.values()]))
        assert dense(vec, ncols) == [
            rest.get(j, 0) + sum(c * vecs[l].get(j, 0) for l, c in coords.items())
            for j in range(ncols)]
    reduced = echelon.reduced()
    assert list(reduced) == sorted(echelon.rows)
    assert all(row[p] > 0 and gcd(*row.values()) == 1 for p, row in reduced.items())
    assert typed(([[Fraction(row.get(j, 0), row[p]) for j in range(ncols)]
                   for p, row in reduced.items()], list(reduced))) == \
        typed(ref_rref([dense(v, ncols) for v in vecs]))


@pytest.mark.parametrize("name,args", [
    ("rref", ([[1, 2], [3, 4]],)),
    ("rank", ([[1, 2], [3, 4]],)),
    ("nullspace", ([[1, 2]], 2)),
    ("invert", ([[1, 2], [3, 4]],)),
    ("intersect_spans", ([[1, 0], [0, 1]], [[1, 1]], 2)),
])
def test_every_routine_eliminates_through_the_echelon(name, args, monkeypatch):
    """No dense routine keeps an elimination loop of its own."""
    built = []

    class Counted(linalg.SparseEchelon):
        __slots__ = ()

        def __init__(self):
            super().__init__()
            built.append(self)

    monkeypatch.setattr(linalg, "SparseEchelon", Counted)
    getattr(linalg, name)(*args)
    assert built
