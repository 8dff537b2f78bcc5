"""Property tests of the Hodge star and the three meets against their
definitions, which are built here from public operations only."""

from fractions import Fraction
from itertools import combinations
from unittest.mock import patch

from hypothesis import assume, given, settings, strategies as st

from extensor import linalg
from extensor.cg_algebra import OrderedBasis, PeanoSpace
from extensor.exterior import ExteriorElement, substitute
from extensor.words import merge_words

fractions = st.builds(Fraction, st.integers(-4, 4), st.sampled_from((1, 2, 3)))
nonzero = fractions.filter(bool)


def words(n, k=None):
    steps = range(n + 1) if k is None else (k,)
    return [w for s in steps for w in combinations(range(1, n + 1), s)]


@st.composite
def bases(draw, max_dim=4):
    n = draw(st.integers(1, max_dim))
    rows = draw(st.lists(st.lists(fractions, min_size=n, max_size=n),
                         min_size=n, max_size=n))
    try:
        linalg.invert(rows)
    except ValueError:
        assume(False)
    return OrderedBasis(rows)


@st.composite
def elements(draw, n, k=None):
    """A random element of the given step, or of mixed steps; maybe zero."""
    chosen = draw(st.lists(st.sampled_from(words(n, k)), unique=True, max_size=6))
    return ExteriorElement(n, {w: draw(fractions) for w in chosen})


def reference_star(basis, x):
    """Phi o sigma o Phi^-1: rewrite x in the basis, take the signed
    complement of every word, and map back."""
    n = basis.dim
    columns = [[v[i] for v in basis.vectors] for i in range(n)]
    inv = linalg.invert(columns)
    to_basis = [ExteriorElement(n, {(i + 1,): inv[i][j] for i in range(n)})
                for j in range(n)]
    from_basis = [ExteriorElement(n, {(i + 1,): v[i] for i in range(n)})
                  for v in basis.vectors]
    in_basis = substitute(x, to_basis)
    full = tuple(range(1, n + 1))
    starred = ExteriorElement(n)
    for w, c in in_basis.terms.items():
        comp = tuple(i for i in full if i not in w)
        starred = starred + ExteriorElement.monomial(n, comp, merge_words(w, comp)[0] * c)
    return substitute(starred, from_basis)


def stars_without_elimination(rows):
    """A basis of the rows and the star of every word, built while
    ``SparseEchelon.insert`` raises, so neither may eliminate."""
    with patch.object(linalg.SparseEchelon, "insert",
                      side_effect=AssertionError("the star eliminated")):
        basis = OrderedBasis(rows)
        n = basis.dim
        return basis, {w: basis.star(ExteriorElement.monomial(n, w)) for w in words(n)}


@st.composite
def basis_and_elements(draw):
    basis = draw(bases())
    xs = draw(st.lists(elements(basis.dim), min_size=1, max_size=5))
    return basis, xs


class TestStarProperties:
    @settings(max_examples=80, deadline=None)
    @given(basis_and_elements())
    def test_star_is_the_rewritten_complement(self, data):
        basis, xs = data
        for x in xs:
            assert basis.star(x) == reference_star(basis, x)

    @settings(max_examples=60, deadline=None)
    @given(bases(), st.data())
    def test_double_star_sign(self, basis, data):
        n = basis.dim
        for k in range(n + 1):
            x = data.draw(elements(n, k))
            assert basis.star(basis.star(x)) == (-1) ** (k * (n - k)) * x

    @settings(max_examples=60, deadline=None)
    @given(basis_and_elements(), st.randoms(use_true_random=False))
    def test_star_does_not_depend_on_the_starring_order(self, data, rng):
        basis, xs = data
        warm = [basis.star(x) for x in xs]
        order = list(range(len(xs)))
        rng.shuffle(order)
        other = OrderedBasis(basis.vectors)
        again = {i: other.star(xs[i]) for i in order}
        assert [again[i] for i in range(len(xs))] == warm
        assert [OrderedBasis(basis.vectors).star(x) for x in xs] == warm
        assert [basis.star(x) for x in xs] == warm


def wedge_meet(ps, a, b, side):
    """The meets by their definition: wedge each slice term against the
    other factor and take the bracket of the result."""
    n = ps.dim
    zero = ExteriorElement.zero(n)
    if not a or not b or a.step() + b.step() < n:
        return zero
    sa, sb = a.step(), b.step()
    out = zero
    if side == "left":
        for (w1, w2), c in a.slice((n - sb, sa + sb - n)).terms.items():
            br = ps.bracket_element(ExteriorElement.monomial(n, w1).wedge(b))
            out = out + ExteriorElement.monomial(n, w2, c * br)
    elif side == "right":
        for (w1, w2), c in b.slice((sa + sb - n, n - sa)).terms.items():
            br = ps.bracket_element(a.wedge(ExteriorElement.monomial(n, w2)))
            out = out + ExteriorElement.monomial(n, w1, c * br)
    else:
        for (w1, w2), c in a.slice((sa + sb - n, n - sb)).terms.items():
            br = ps.bracket_element(ExteriorElement.monomial(n, w2).wedge(b))
            out = out + ExteriorElement.monomial(n, w1, c * br)
    return out


@st.composite
def meet_instances(draw):
    n = draw(st.integers(1, 4))
    scale = draw(st.one_of(st.sampled_from((1, 2, -3)), nonzero))
    ps = PeanoSpace.standard(n, scale)
    a = draw(elements(n, draw(st.integers(0, n))))
    b = draw(elements(n, draw(st.integers(0, n))))
    return ps, a, b


class TestStarWithoutInverse:
    @settings(max_examples=40, deadline=None)
    @given(bases())
    def test_a_star_runs_no_elimination(self, drawn):
        basis, stars = stars_without_elimination(drawn.vectors)
        for w, star in stars.items():
            assert star == reference_star(basis, ExteriorElement.monomial(basis.dim, w))

    def test_a_negative_determinant_other_than_one(self):
        basis, stars = stars_without_elimination([(0, 1, 0), (1, 0, 0), (0, 0, 2)])
        assert basis.F == ExteriorElement.monomial(3, (1, 2, 3), -2)
        for w, star in stars.items():
            assert star == reference_star(basis, ExteriorElement.monomial(3, w))


class TestMeetProperties:
    @settings(max_examples=150, deadline=None)
    @given(meet_instances())
    def test_meets_equal_the_wedge_definition(self, data):
        ps, a, b = data
        assert ps.meet(a, b, "left") == wedge_meet(ps, a, b, "left")
        assert ps.meet(a, b, "right") == wedge_meet(ps, a, b, "right")
        assert ps.dot_meet(a, b) == wedge_meet(ps, a, b, "dot")

    @settings(max_examples=40, deadline=None)
    @given(meet_instances())
    def test_zero_and_short_steps_give_zero(self, data):
        ps, a, b = data
        n = ps.dim
        zero = ExteriorElement.zero(n)
        for x, y in ((zero, b), (a, zero)):
            assert ps.meet(x, y, "left") == ps.meet(x, y, "right") == zero
            assert ps.dot_meet(x, y) == zero
        if a and b and a.step() + b.step() < n:
            assert ps.meet(a, b, "left") == ps.meet(a, b, "right") == zero
            assert ps.dot_meet(a, b) == zero
