import random
import tracemalloc
from collections import Counter
from itertools import combinations, product
from math import comb, prod
from unittest.mock import patch

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from extensor import bitableau, linalg
from extensor.bitableau import (BitableauElement, StraighteningBudgetExceeded,
                                _compositions, _degree_moves, _first_violation,
                                _rewrite_pair, _row_coder, _standard_candidates,
                                is_doubly_standard, is_standard,
                                shuffle_identity_sides, standard_expansion,
                                straighten)
from extensor.letterplace import (Biproduct, LetterplaceElement, _graded_components,
                                  _sum_products, biproduct_expand, expand_raw,
                                  make_biproduct, polarize, polarize_divided)
from extensor.tensorops import _sum_terms

LETTERS = "abcdef"


def rows_of(m, *specs):
    return BitableauElement.single(m, [(tuple(w), dict(d)) for w, d in specs])


def rand_multidegree(rng, total, m):
    degs = {}
    rem = total
    for place in range(1, m):
        take = rng.randint(0, rem)
        if take:
            degs[place] = take
        rem -= take
    if rem:
        degs[m] = degs.get(m, 0) + rem
    return degs


def rand_two_rows(rng, m, max_len=4):
    w1 = tuple(sorted(rng.sample(LETTERS, rng.randint(1, max_len))))
    w2 = tuple(sorted(rng.sample(LETTERS, rng.randint(1, max_len))))
    return rows_of(m, (w1, rand_multidegree(rng, len(w1), m)),
                   (w2, rand_multidegree(rng, len(w2), m)))


class TestStandardness:
    def test_single_row(self):
        _, bp = make_biproduct(("a", "c"), {1: 2})
        assert is_standard((bp,))

    def test_equal_words(self):
        _, bp = make_biproduct(("b", "c"), {1: 1, 2: 1})
        assert is_standard((bp, bp))

    def test_entry_violation(self):
        _, r1 = make_biproduct(("a", "c"), {1: 2})
        _, r2 = make_biproduct(("a", "b"), {1: 2})
        assert not is_standard((r1, r2))

    def test_length_violation(self):
        _, r1 = make_biproduct(("a",), {1: 1})
        _, r2 = make_biproduct(("b", "c"), {1: 2})
        assert not is_standard((r1, r2))

    def test_unsorted_rows_rejected(self):
        bad = Biproduct(("c", "a"), ((1, 2),))
        with pytest.raises(ValueError):
            is_standard((bad,))


class TestShuffleIdentity:
    def test_random_instances(self):
        rng = random.Random(0)
        for _ in range(60):
            m = rng.randint(2, 3)
            u = tuple(rng.choice(LETTERS) for _ in range(rng.randint(0, 3)))
            v = tuple(rng.choice(LETTERS) for _ in range(rng.randint(0, 3)))
            w = tuple(rng.choice(LETTERS) for _ in range(rng.randint(0, 2)))
            pdeg = rand_multidegree(rng, rng.randint(0, 4), m)
            qdeg = rand_multidegree(rng, rng.randint(0, 4), m) or {1: 0}
            lhs, rhs = shuffle_identity_sides(u, v, w, pdeg, qdeg, m)
            assert lhs == rhs

    def test_single_place_specialization(self):
        # degrees concentrated in one place on each side, with and
        # without a trailing word
        rng = random.Random(1)
        for _ in range(50):
            m = 2
            u = tuple(rng.choice(LETTERS) for _ in range(rng.randint(0, 3)))
            v = tuple(rng.choice(LETTERS) for _ in range(rng.randint(0, 3)))
            p = rng.randint(0, 4)
            q = rng.randint(0, 4)
            lhs, rhs = shuffle_identity_sides(u, v, (), {1: p}, {2: q}, m)
            assert lhs == rhs


class TestStraighten:
    def test_standard_input_is_a_fixed_point(self):
        b = rows_of(2, (("a", "c"), {1: 2}), (("b", "c"), {2: 2}))
        assert straighten(b) == b

    def test_two_one_row_example(self):
        # (z|1)(x|1) rewrites to the standard combination
        b = rows_of(1, (("z",), {1: 1}), (("x",), {1: 1}))
        s = straighten(b)
        assert all(_first_violation(rows) is None for rows in s.terms)
        assert s.to_letterplace() == b.to_letterplace()
        want = rows_of(1, (("x",), {1: 1}), (("z",), {1: 1})) - \
            2 * rows_of(1, (("x", "z"), {1: 2}))
        assert s == want

    def test_random_two_row_products(self):
        rng = random.Random(2)
        for _ in range(120):
            m = rng.randint(2, 3)
            b = rand_two_rows(rng, m)
            s = straighten(b)
            assert all(_first_violation(rows) is None for rows in s.terms)
            assert s.to_letterplace() == b.to_letterplace()

    def test_three_row_products(self):
        rng = random.Random(4)
        for _ in range(25):
            m = 2
            specs = []
            for _ in range(3):
                w = tuple(sorted(rng.sample(LETTERS, rng.randint(1, 3))))
                specs.append((w, rand_multidegree(rng, len(w), m)))
            b = rows_of(m, *specs)
            s = straighten(b)
            assert all(_first_violation(rows) is None for rows in s.terms)
            assert s.to_letterplace() == b.to_letterplace()

    def test_budget_trips(self):
        b = rows_of(1, (("z",), {1: 1}), (("x",), {1: 1}))
        with pytest.raises(StraighteningBudgetExceeded):
            straighten(b, budget=0)

    def test_budget_boundary(self):
        standard = rows_of(1, (("x",), {1: 1}), (("z",), {1: 1}))
        assert straighten(standard, budget=0) == standard
        with pytest.raises(ValueError, match="negative rewrite budget -1"):
            straighten(standard, budget=-1)

    def test_idempotent(self):
        rng = random.Random(7)
        for _ in range(20):
            s = straighten(rand_two_rows(rng, 2))
            assert straighten(s) == s

    def test_four_row_stress(self):
        rng = random.Random(8)
        for _ in range(10):
            m = 2
            specs = []
            for _ in range(4):
                w = tuple(sorted(rng.sample(LETTERS, rng.randint(1, 3))))
                specs.append((w, rand_multidegree(rng, len(w), m)))
            b = rows_of(m, *specs)
            s = straighten(b, budget=10 ** 5)
            assert all(_first_violation(rows) is None for rows in s.terms)
            assert s.to_letterplace() == b.to_letterplace()

    def test_value_round_trip_through_letterplace(self):
        rng = random.Random(5)
        for _ in range(20):
            m = 2
            b = rand_two_rows(rng, m)
            e = b.to_letterplace()
            again = BitableauElement.from_letterplace(e)
            assert again.to_letterplace() == e

    def test_rows_from_letterplace_cost_nothing_per_unused_place(self):
        m = 10 ** 9
        e = LetterplaceElement.generator(m, "b", 1) * LetterplaceElement.generator(m, "a", m)
        assert BitableauElement.from_letterplace(e) == rows_of(m, ("b", {1: 1}), ("a", {m: 1}))

    def test_polarizations_cost_nothing_per_unused_place(self):
        m = 10 ** 6
        gen = LetterplaceElement.generator
        tracemalloc.start()
        try:
            near = polarize_divided(1, 2, 1, gen(m, "b", 1) * gen(m, "a", 2))
            far = polarize(m - 1, m, gen(m, "b", 1) * gen(m, "a", m))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert near == -(gen(m, "a", 2) * gen(m, "b", 2))
        assert far == gen(m, "b", 1) * gen(m, "a", m - 1)
        assert peak < 10 ** 6

    @pytest.mark.parametrize("degrees", [{0: 1, 1: 1}, {1: 1, 3: 1}])
    def test_row_place_outside_one_to_m_is_refused(self, degrees):
        with pytest.raises(ValueError):
            rows_of(2, ("ab", degrees))

    @pytest.mark.parametrize("row", [Biproduct(("a",), ((1, 2),)),
                                     Biproduct(("a", "a"), ((1, 2),)),
                                     Biproduct(("a", "b"), ((1, 1), (2, 2)))])
    def test_row_of_value_zero_is_refused(self, row):
        with pytest.raises(ValueError, match="value zero"):
            BitableauElement(2, {(row,): 1})
        assert not rows_of(2, (row.word, dict(row.degrees)))


def straighten_key(rows):
    """The term order of the rewrite: total word length, then the rows'
    words and degrees, as ``straighten``'s heap orders its coded terms."""
    return (sum(len(r.word) for r in rows), rows)


def reference_straighten(e):
    """The rewrite loop without a heap or a memo: each step takes
    ``min`` over the worklist and rebuilds the pair rewrite.  Returns
    the terms and the steps."""
    work = dict(e.terms)
    done = {}
    steps = 0
    while work:
        rows = min(work, key=straighten_key)
        coeff = work.pop(rows)
        idx = _first_violation(rows)
        if idx is None:
            done[rows] = done.get(rows, 0) + coeff
            continue
        steps += 1
        for c2, newrows in _rewrite_pair(rows[idx], rows[idx + 1]):
            nk = rows[:idx] + newrows + rows[idx + 2:]
            v = work.get(nk, 0) + coeff * c2
            if v:
                work[nk] = v
            elif nk in work:
                del work[nk]
    return {rows: c for rows, c in done.items() if c}, steps


def rand_rows(rng, m, count, max_len):
    specs = []
    for _ in range(count):
        w = tuple(sorted(rng.sample(LETTERS, rng.randint(1, max_len))))
        specs.append((w, rand_multidegree(rng, len(w), m)))
    return rows_of(m, *specs)


def one_step(b):
    """The first term of ``b`` replaced by its one-step rewrite: equal
    to it in value, but sharing its nonstandard rows."""
    rows, c = next(iter(b.terms.items()))
    idx = _first_violation(rows)
    if idx is None:
        return b
    return BitableauElement(b.m, {rows[:idx] + new + rows[idx + 2:]: c * c2
                                  for c2, new in _rewrite_pair(rows[idx], rows[idx + 1])})


def _key_of_term(term):
    return straighten_key(term[0])


def deglex(terms):
    return sorted(terms, key=_key_of_term)


def reversed_deglex(terms):
    return sorted(terms, key=_key_of_term, reverse=True)


# Ways to insert the input terms.  The key orders every row tuple, so
# the result may not depend on which one built the input.
ARRANGEMENTS = (deglex, reversed_deglex, lambda terms: terms,
                lambda terms: random.Random(0).sample(terms, len(terms)))


class TestStraightenAgainstReference:
    def elements(self):
        rng = random.Random(9)
        for count, max_len, trials in ((2, 4, 6), (3, 3, 6), (4, 2, 4)):
            for _ in range(trials):
                m = rng.randint(2, 3)
                b = rand_rows(rng, m, count, max_len)
                yield b
                # cancelling sums: rows that meet the rewrite of b in the
                # worklist, and a whole element of value zero
                yield b - one_step(b) + rand_rows(rng, m, count, max_len)
                yield b - one_step(b)

    @pytest.mark.parametrize("arrange", ARRANGEMENTS,
                             ids=("deglex", "reversed", "<lambda>0", "<lambda>1"))
    def test_same_terms_in_the_same_order_and_steps(self, arrange):
        for b in self.elements():
            want, steps = reference_straighten(b)
            e = BitableauElement(b.m, dict(arrange(list(b.terms.items()))))
            got = straighten(e, budget=steps)
            assert list(got.terms.items()) == list(want.items())
            assert str(got) == str(b._like(want))
            if steps:
                with pytest.raises(StraighteningBudgetExceeded):
                    straighten(e, budget=steps - 1)


@st.composite
def degrees_for(draw, n, m=3):
    """A normalized place multidegree of total ``n`` over places 1..m."""
    cuts = sorted(draw(st.lists(st.integers(0, n), min_size=m - 1, max_size=m - 1)))
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    return tuple((p, q) for p, q in enumerate(sizes, start=1) if q)


@st.composite
def biproducts(draw, letters="abcde"):
    word = tuple(sorted(draw(st.sets(st.sampled_from(letters), min_size=1, max_size=3))))
    return Biproduct(word, draw(degrees_for(len(word))))


row_tuples = st.lists(biproducts(), max_size=3).map(tuple)

# letters whose string order is not their numeric order
MULTI_LETTERS = ("a", "x1", "x10", "x2", "x20")
multi_letter_row_tuples = st.lists(biproducts(MULTI_LETTERS), max_size=3).map(tuple)


@st.composite
def row_tuple_pairs(draw):
    """Two row tuples, often close: equal, the same words under other
    degrees, one row more or less, or unrelated."""
    a = draw(row_tuples)
    how = draw(st.sampled_from(("equal", "degrees", "longer", "shorter", "any")))
    if how == "equal":
        b = tuple(Biproduct(r.word, r.degrees) for r in a)
    elif how == "degrees":
        b = tuple(Biproduct(r.word, draw(degrees_for(len(r.word)))) for r in a)
    elif how == "longer":
        b = a + (draw(biproducts()),)
    elif how == "shorter":
        b = a[:-1]
    else:
        b = draw(row_tuples)
    return a, b


@st.composite
def coder_inputs(draw):
    """Row tuples of several lengths and contents, one-letter or
    multi-character letters, on up to five places next to each other or
    far apart; and the row tuples one rewrite step of each makes."""
    letters = draw(st.sampled_from(("abcde", MULTI_LETTERS)))
    places = draw(st.sampled_from(((1, 2, 3, 4, 5), (2, 3, 7, 10, 99999999999))))

    @st.composite
    def spread_rows(draw):
        word = tuple(sorted(draw(st.sets(st.sampled_from(letters), min_size=1, max_size=3))))
        degrees = draw(degrees_for(len(word), len(places)))
        return Biproduct(word, tuple((places[p - 1], q) for p, q in degrees))

    terms = draw(st.lists(st.lists(spread_rows(), max_size=3).map(tuple),
                          min_size=1, max_size=6))
    reached = []
    for rows in terms:
        idx = _first_violation(rows)
        if idx is not None:
            reached.extend(rows[:idx] + new + rows[idx + 2:]
                           for _, new in _rewrite_pair(rows[idx], rows[idx + 1]))
    return terms, reached


class TestStraightenInvariants:
    @settings(max_examples=300, deadline=None)
    @given(row_tuple_pairs())
    def test_the_key_tells_row_tuples_apart(self, pair):
        # equal keys of the reference order must mean equal rows, so
        # that sorting (key, rows) entries never falls through to rows
        a, b = pair
        ka, kb = straighten_key(a), straighten_key(b)
        assert (ka == kb) == (a == b)
        sorted([(ka, a), (kb, b)])

    @settings(max_examples=300, deadline=None)
    @given(coder_inputs())
    # more places than letters or word lengths: the place digits need
    # their own room
    @example(([(Biproduct((x,), ((p, 1),)),) for x in "ab" for p in range(1, 6)], []))
    def test_row_codes_order_as_the_key_and_tell_rows_apart(self, inputs):
        # codes sized from the input terms must also order the rows that
        # one rewrite step of them makes
        terms, reached = inputs
        code = _row_coder(terms)
        rows_list = terms + reached
        coded = [(sum(len(r.word) for r in rows), tuple(map(code, rows)))
                 for rows in rows_list]
        for a, ca in zip(rows_list, coded):
            for b, cb in zip(rows_list, coded):
                ka, kb = straighten_key(a), straighten_key(b)
                assert (ca < cb) == (ka < kb)
                assert (ca == cb) == (a == b)

    @settings(max_examples=150, deadline=None)
    @given(biproducts(), biproducts())
    def test_rewrite_rows_are_normalized_and_keep_the_value(self, r1, r2):
        pair = (r1, r2)
        if _first_violation(pair) is None:
            pair = (r2, r1)
        assume(_first_violation(pair) is not None)
        out = _rewrite_pair(*pair)
        for _, rows in out:
            for r in rows:
                assert make_biproduct(r.word, r.degrees) == (1, r)
        m = 3
        rewritten = BitableauElement(m, _sum_terms((rows, c) for c, rows in out))
        assert rewritten.to_letterplace() == BitableauElement(m, {pair: 1}).to_letterplace()


def row_product_reference(rows, m):
    """The value of a row product as the letterplace algebra gives it:
    the expansion of each row, multiplied in one element at a time."""
    acc = LetterplaceElement.unit(m)
    for row in rows:
        acc = acc * biproduct_expand(row, m)
    return acc


class TestFlatKernelsAgainstSecondRoutes:
    @settings(max_examples=150, deadline=None)
    @given(st.lists(st.tuples(row_tuples, st.integers(-3, 3)), max_size=4))
    def test_to_letterplace_is_the_product_of_the_row_expansions(self, terms):
        m = 3
        e = BitableauElement(m, _sum_terms(terms))
        want = LetterplaceElement.zero(m)
        for rows, c in e.terms.items():
            want = want + row_product_reference(rows, m).scale(c)
        assert e.to_letterplace() == want

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(
        st.lists(st.tuples(row_tuples, st.integers(-3, 3)), min_size=1, max_size=3),
        st.lists(st.tuples(multi_letter_row_tuples, st.integers(-3, 3)),
                 min_size=1, max_size=3)))
    def test_straighten_agrees_with_the_reference(self, terms):
        # sums of products, so that terms of other contents interleave;
        # one-letter or multi-character letters
        e = BitableauElement(3, _sum_terms(terms))
        want, steps = reference_straighten(e)
        got = straighten(e, budget=steps)
        assert list(got.terms.items()) == list(want.items())
        if steps:
            with pytest.raises(StraighteningBudgetExceeded):
                straighten(e, budget=steps - 1)


@pytest.mark.parametrize("caps", [(), (0,), (3,), (2, 0, 1), (1, 3, 2)])
def test_compositions_are_the_filtered_product(caps):
    for total in range(sum(caps) + 2):
        want = [r for r in product(*(range(c + 1) for c in caps)) if sum(r) == total]
        assert list(_compositions(total, caps)) == want


def _all_degrees(places=(1, 2, 3), most=4):
    """Every normalized place multidegree over ``places`` of total at
    most ``most``."""
    for exps in product(range(most + 1), repeat=len(places)):
        if sum(exps) <= most:
            yield tuple((p, q) for p, q in zip(places, exps) if q)


@pytest.mark.parametrize("usize", range(5))
def test_degree_moves_are_the_filtered_product(usize):
    # every place vector r below the lower degrees with total usize + 1,
    # in product order, with its binomial weight and the moved degrees
    with patch.dict(bitableau._move_tables, clear=True):
        for up, down in product(list(_all_degrees()), repeat=2):
            want = []
            for r in product(*(range(q + 1) for _, q in down)):
                if sum(r) != usize + 1:
                    continue
                extra = Counter(dict(zip((p for p, _ in down), r)))
                weight = prod(comb(dict(up).get(p, 0) + k, k) for p, k in extra.items())
                want.append((weight, tuple(sorted((Counter(dict(up)) + extra).items())),
                             tuple(sorted((Counter(dict(down)) - extra).items()))))
            assert list(_degree_moves(up, down, usize)) == want
            assert _degree_moves(up, down, usize) is _degree_moves(up, down, usize)


class TestStandardExpansion:
    def test_place_columns_must_increase(self):
        _, r1 = make_biproduct(("a", "b"), {1: 1, 2: 1})
        _, r2 = make_biproduct(("c", "d"), {2: 2})
        assert is_standard((r1, r2))
        assert not is_doubly_standard((r1, r2))
        _, r3 = make_biproduct(("a", "b", "c"), {1: 1, 2: 2})
        _, r4 = make_biproduct(("d",), {2: 1})
        assert is_doubly_standard((r3, r4))

    def test_basis_expansion_preserves_the_value(self):
        rng = random.Random(6)
        for _ in range(40):
            m = rng.randint(2, 3)
            b = rand_two_rows(rng, m, max_len=3)
            e = b.to_letterplace()
            exp = standard_expansion(e)
            assert exp.to_letterplace() == e
            assert all(is_doubly_standard(rows) for rows in exp.terms)

    def test_single_biproduct_is_its_own_expansion(self):
        # a biproduct row is doubly standard, so it must come back whole
        b = rows_of(2, (("a", "b", "c", "d"), {1: 1, 2: 3}))
        exp = standard_expansion(b.to_letterplace())
        assert exp == b

    def test_equal_length_rows_with_shared_places_recombine(self):
        # word-standard but place-violating products leave the basis
        b = rows_of(2, (("a", "b"), {1: 1, 2: 1}), (("c", "d"), {2: 2}))
        exp = standard_expansion(b.to_letterplace())
        assert exp.to_letterplace() == b.to_letterplace()
        assert all(is_doubly_standard(rows) for rows in exp.terms)
        assert any(len(rows) == 1 for rows in exp.terms)


def reference_expansion(e: LetterplaceElement) -> dict:
    """Doubly standard coordinates of ``e``, each component's echelon
    built from its own candidates on its own letters, with no table."""
    out = {}
    for (pdeg_t, content_t), vec in _graded_components(e).items():
        echelon = linalg.SparseEchelon()
        for rows in _standard_candidates(dict(content_t), dict(pdeg_t)):
            assert echelon.insert(BitableauElement(e.m, {rows: 1}).to_letterplace().terms,
                                  label=rows)
        coords: dict = {}
        assert not echelon.reduce(vec, coords)
        for rows, c in coords.items():
            assert c.denominator == 1
            if c:
                out[rows] = int(c)
    return out


# letters whose string order is not their numeric order, and an upper
# case letter before the lower case ones
ALPHABETS = ["abcdef", ("x1", "x10", "x2", "x3", "x20"), ("B", "a", "b", "c")]


@st.composite
def renamed_pairs(draw):
    """An element and its image under a random injective renaming of
    its letters, in as many places or one more: its contents share
    counts and place degrees with the element's, in the same or in
    another sorted-letter order."""
    alphabet = draw(st.sampled_from(ALPHABETS))
    m = draw(st.integers(1, 3))
    monos = draw(st.lists(st.tuples(
        st.lists(st.tuples(st.sampled_from(alphabet), st.integers(1, m)), max_size=4),
        st.integers(-3, 3)), min_size=1, max_size=4))
    renaming = dict(zip(alphabet, draw(st.permutations(alphabet))))
    m2 = m + draw(st.integers(0, 1))
    e = LetterplaceElement(m, _sum_products(monos))
    image = LetterplaceElement(m2, _sum_products(
        ([(renaming[x], i) for x, i in seq], c) for seq, c in monos))
    return e, image


class TestSharedEchelons:
    """Components with one letter pattern share one echelon."""

    @settings(max_examples=120, deadline=None)
    @given(renamed_pairs())
    def test_coordinates_match_the_unshared_reference(self, pair):
        e, image = pair
        # a cold table first; the image meets it warm, built on e's letters
        with patch.dict(bitableau._component_echelons, clear=True):
            for x in (e, image):
                assert standard_expansion(x).terms == reference_expansion(x)

    def test_one_entry_per_pattern(self):
        pieces = [(("x2", "x10"), {1: 1, 2: 1}), (("a", "c"), {1: 1, 2: 1}),
                  (("b", "c"), {1: 1, 2: 1}), (("x1", "x10", "x2"), {1: 2, 2: 1})]
        with patch.dict(bitableau._component_echelons, clear=True):
            for word, degrees in pieces:
                e = expand_raw(word, degrees, 2)
                assert standard_expansion(e).terms == reference_expansion(e)
            assert len(bitableau._component_echelons) == 2


def _all_row_products(content: dict, pdeg: dict):
    """Every sequence of rows, each a strictly increasing word over a
    multiset of places, that uses up ``content`` and ``pdeg`` exactly."""
    if not any(pdeg.values()):
        yield ()
        return
    letters = sorted(x for x, c in content.items() if c)
    places = sorted(p for p, q in pdeg.items() for _ in range(q))
    for length in range(1, len(places) + 1):
        for word in combinations(letters, length):
            for pick in set(combinations(places, length)):
                rest_c = dict(content)
                for x in word:
                    rest_c[x] -= 1
                rest_p = dict(pdeg)
                for p in pick:
                    rest_p[p] -= 1
                degrees = tuple((p, pick.count(p)) for p in sorted(set(pick)))
                for tail in _all_row_products(rest_c, rest_p):
                    yield (Biproduct(word, degrees),) + tail


@settings(max_examples=60, deadline=None)
@given(st.lists(st.tuples(st.sampled_from("abcd"), st.integers(1, 3)), max_size=5))
def test_shape_first_candidates_match_brute_force(variables):
    content: dict = {}
    pdeg: dict = {}
    for x, p in variables:
        content[x] = content.get(x, 0) + 1
        pdeg[p] = pdeg.get(p, 0) + 1
    got = list(_standard_candidates(content, pdeg))
    assert len(got) == len(set(got))
    want = {rows for rows in _all_row_products(content, pdeg)
            if is_doubly_standard(rows)}
    assert set(got) == want
