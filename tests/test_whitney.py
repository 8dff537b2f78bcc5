import random
import tracemalloc
from itertools import combinations, product as iproduct
from unittest.mock import patch

import pytest
from hypothesis import given, settings, strategies as st

from extensor import bitableau, letterplace, linalg, whitney
from extensor.bitableau import (BitableauElement, _first_violation,
                                standard_expansion, straighten)
from extensor.letterplace import (Biproduct, LetterplaceElement, _graded_components,
                                  _sum_products, biproduct_expand, expand_raw, phi,
                                  polarize, polarize_divided)
from extensor.tensor_power import TensorPowerElement, diamond
from extensor.whitney import (Matroid, NotARepresentation, WhitneyElement,
                              _build_ideal_echelon, _monomials_with,
                              check_representation, exchange_check,
                              exchange_sides, ideal_membership_bruteforce,
                              make_matroid, represent, wh_normal_form)
from extensor.words import word_slices

SIX_POINT_COLUMNS = {
    "a": (1, 0, 0), "b": (0, 1, 0), "c": (0, 0, 1),
    "d": (1, 1, 0), "e": (1, 0, 1), "f": (0, 1, 1),
}


def six_point_matroid():
    return Matroid.linear(SIX_POINT_COLUMNS)


def rand_element(rng, m, letters, nterms=3):
    out = LetterplaceElement.zero(m)
    for _ in range(nterms):
        k = rng.randint(0, 3)
        seq = [(rng.choice(letters), rng.randint(1, m)) for _ in range(k)]
        out = out + LetterplaceElement.from_vars(m, seq, rng.randint(-3, 3))
    return out


class TestMatroid:
    def test_uniform_rank(self):
        m = Matroid.uniform(3, 2)
        assert m.rank("abc") == 2
        assert m.rank("ab") == 2
        assert m.rank("a") == 1
        assert m.rank(()) == 0

    def test_free_matroid(self):
        m = Matroid.uniform(3, 3)
        assert not list(m.dependent_sorted_words())

    def test_linear_rank(self):
        m = Matroid.linear({"a": (1, 0), "b": (0, 1), "c": (1, 1)})
        assert m.rank("abc") == 2
        assert m.rank("ab") == 2
        assert not m.is_independent("abc")

    def test_independent_words(self):
        m = Matroid.uniform(3, 3)
        assert m.is_independent_word("ab") and m.is_independent_word(())
        # a repeated letter is dependent even in the free matroid
        assert not m.is_independent_word("aa")
        assert not m.is_independent_word(("a", "b", "a"))
        with pytest.raises(ValueError, match="not a subset of the ground set"):
            m.is_independent_word("az")

    def test_six_point_dependencies(self):
        m = six_point_matroid()
        deps = ["".join(w) for w in m.dependent_sorted_words(3)]
        assert deps == ["abd", "ace", "bcf"]
        assert m.full_rank() == 3

    def test_document_builders(self):
        m = make_matroid({"kind": "uniform", "n": 4, "k": 2})
        assert m.rank("abcd") == 2
        m2 = make_matroid({"kind": "linear",
                           "letters": ["a", "b", "c"],
                           "columns": [["1", "0"], ["0", "1"], ["1/2", "1/2"]]})
        assert m2.rank("abc") == 2
        with pytest.raises(ValueError):
            make_matroid({"kind": "nonsense"})

    def test_bad_rank_oracle_rejected(self):
        with pytest.raises(ValueError):
            Matroid("ab", lambda s: -len(s))


class TestNormalForm:
    def test_dependent_slice_vanishes(self):
        m = Matroid.uniform(3, 2)
        gen = expand_raw(("a", "b", "c"), {1: 2, 2: 1}, 2)
        # the slice is ab(x)c - ac(x)b + bc(x)a before reduction
        t = phi(gen)
        assert t.terms == {(("a", "b"), ("c",)): 1,
                           (("a", "c"), ("b",)): -1,
                           (("b", "c"), ("a",)): 1}
        assert not wh_normal_form(WhitneyElement(m, gen))

    def test_independent_standard_is_fixed(self):
        m = Matroid.uniform(3, 2)
        e = LetterplaceElement.from_vars(2, [("a", 1), ("b", 2)])
        nf = wh_normal_form(WhitneyElement(m, e))
        assert nf.to_letterplace() == e

    def test_zero(self):
        m = Matroid.uniform(3, 2)
        assert not wh_normal_form(WhitneyElement(m, LetterplaceElement.zero(2)))

    def test_normal_form_is_standard(self):
        rng = random.Random(0)
        m = six_point_matroid()
        for _ in range(30):
            e = rand_element(rng, 2, m.ground)
            nf = wh_normal_form(WhitneyElement(m, e))
            assert all(_first_violation(rows) is None for rows in nf.terms)

    def test_equality_is_normal_form_equality(self):
        m = Matroid.uniform(3, 2)
        gen = expand_raw(("a", "b", "c"), {1: 2, 2: 1}, 2)
        x = LetterplaceElement.from_vars(2, [("a", 1), ("b", 1), ("c", 2)])
        shifted = x + gen
        assert WhitneyElement(m, x) == WhitneyElement(m, shifted)

    def test_letters_outside_ground_rejected(self):
        m = Matroid.uniform(3, 2)
        with pytest.raises(ValueError):
            WhitneyElement(m, LetterplaceElement.generator(2, "z", 1))

    def test_arithmetic_with_foreign_operands(self):
        m = Matroid.uniform(3, 2)
        e = LetterplaceElement.from_vars(2, [("a", 1), ("b", 2)])
        x = WhitneyElement(m, e)
        for op in (lambda: x + 1, lambda: 1 + x, lambda: x - 1, lambda: 1 - x,
                   lambda: x * 1.5, lambda: 1.5 * x, lambda: x * "a",
                   lambda: "a" * x, lambda: x + e, lambda: x * e):
            with pytest.raises(TypeError):
                op()
        # ints scale from either side
        assert (2 * x).raw == (x * 2).raw == e.scale(2)
        assert (-1 * x).raw == -e


class TestIdealOracle:
    def test_generator_is_a_member(self):
        m = Matroid.uniform(3, 2)
        gen = expand_raw(("a", "b", "c"), {1: 2, 2: 1}, 2)
        assert ideal_membership_bruteforce(gen, m)

    def test_both_routes_cost_nothing_per_unused_place(self):
        gen = expand_raw("abd", {1: 2, 2: 1}, 10 ** 5)
        matroid = six_point_matroid()
        tracemalloc.start()
        try:
            member = ideal_membership_bruteforce(gen, matroid)
            nf = wh_normal_form(WhitneyElement(matroid, gen))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert member and not nf
        assert peak < 10 ** 6

    def test_independent_monomial_is_not(self):
        m = Matroid.uniform(3, 2)
        e = LetterplaceElement.from_vars(2, [("a", 1), ("b", 2)])
        assert not ideal_membership_bruteforce(e, m)

    def test_zero_is_a_member(self):
        m = Matroid.uniform(3, 2)
        assert ideal_membership_bruteforce(LetterplaceElement.zero(2), m)

    def test_multiples_of_generators_are_members(self):
        rng = random.Random(1)
        m = six_point_matroid()
        deps = list(m.dependent_sorted_words(4))
        for _ in range(20):
            word = rng.choice(deps)
            first = rng.randint(0, len(word))
            gen = expand_raw(word, {1: first, 2: len(word) - first}, 2)
            if not gen:
                continue
            free = [x for x in m.ground if x not in word]
            cof = LetterplaceElement.from_vars(
                2, [(rng.choice(free), rng.randint(1, 2))])
            assert ideal_membership_bruteforce(cof * gen, m)

    def test_agreement_with_the_normal_form(self):
        rng = random.Random(2)
        m = six_point_matroid()
        for _ in range(40):
            e = rand_element(rng, 2, m.ground)
            nf_zero = not wh_normal_form(WhitneyElement(m, e))
            assert nf_zero == ideal_membership_bruteforce(e, m)

    def test_agreement_on_shifted_members(self):
        # elements of the ideal dressed with and without noise, in two
        # and three places
        rng = random.Random(7)
        for m in (Matroid.uniform(3, 2), six_point_matroid()):
            deps = list(m.dependent_sorted_words(4))
            for folds in (2, 3):
                for _ in range(12):
                    word = rng.choice(deps)
                    comp = [0] * folds
                    for _ in range(len(word)):
                        comp[rng.randrange(folds)] += 1
                    deg = {p + 1: q for p, q in enumerate(comp) if q}
                    gen = expand_raw(word, deg, folds)
                    if not gen:
                        continue
                    free = [x for x in m.ground if x not in word]
                    cof = LetterplaceElement.unit(folds) if not free else \
                        LetterplaceElement.from_vars(
                            folds, [(rng.choice(free), rng.randint(1, folds))])
                    member = cof * gen
                    assert ideal_membership_bruteforce(member, m)
                    assert not wh_normal_form(WhitneyElement(m, member))
                    noise = LetterplaceElement.from_vars(
                        folds, [(rng.choice(m.ground), rng.randint(1, folds))])
                    mixed = member + noise
                    nf_zero = not wh_normal_form(WhitneyElement(m, mixed))
                    assert nf_zero == ideal_membership_bruteforce(mixed, m)
                    assert not nf_zero


class TestExchange:
    def test_smallest_uniform_case(self):
        m = Matroid.uniform(3, 2)
        lhs, rhs = exchange_sides(("a", "b"), ("c",), m)
        # k = 1: ab(x)c on the left, ac(x)b - bc(x)a on the right
        assert phi(lhs).terms == {(("a", "b"), ("c",)): 1}
        assert phi(rhs).terms == {(("a", "c"), ("b",)): 1,
                                  (("b", "c"), ("a",)): -1}
        assert exchange_check(("a", "b"), ("c",), m)

    def test_disjoint_flats_join_directly(self):
        m = Matroid.uniform(4, 4)
        # k = 0: both sides are the single join word
        lhs, rhs = exchange_sides(("a", "b"), ("c", "d"), m)
        assert lhs == rhs

    def test_uniform_43_pairs(self):
        m = Matroid.uniform(4, 3)
        assert exchange_check(("a", "b"), ("c", "d"), m)

    def test_dependent_word_rejected(self):
        m = Matroid.uniform(3, 2)
        with pytest.raises(ValueError):
            exchange_sides(("a", "b", "c"), ("a",), m)

    def test_full_sweep_on_small_matroids(self):
        for m in (Matroid.uniform(3, 2), Matroid.uniform(4, 2)):
            words = list(m.independent_sorted_words(3))
            for u in words:
                for v in words:
                    assert exchange_check(u, v, m)


class TestPolarizationInvariance:
    def test_unbalanced_generator_reduces_to_zero(self):
        # the word-side rewrite alone leaves this one in independent
        # rows; the basis expansion has to flush it
        m = six_point_matroid()
        gen = expand_raw(("a", "b", "c", "d"), {1: 1, 2: 3}, 2)
        assert not wh_normal_form(WhitneyElement(m, gen))
        assert ideal_membership_bruteforce(gen, m)

    def test_ideal_stays_invariant(self):
        rng = random.Random(3)
        for m in (Matroid.uniform(3, 2), six_point_matroid()):
            for word in m.dependent_sorted_words(4):
                for first in range(len(word) + 1):
                    deg = {1: first, 2: len(word) - first}
                    gen = expand_raw(word, deg, 2)
                    if not gen:
                        continue
                    for h in range(3):
                        for (j, i) in ((1, 2), (2, 1)):
                            img = polarize_divided(h, j, i, gen)
                            assert not wh_normal_form(WhitneyElement(m, img))

    def test_gl_commutation_in_the_quotient(self):
        rng = random.Random(4)
        m = Matroid.uniform(4, 2)
        for _ in range(30):
            e = rand_element(rng, 2, m.ground)
            k, h, j, i = (rng.randint(1, 2) for _ in range(4))
            lhs = polarize(k, h, polarize(j, i, e)) - \
                polarize(j, i, polarize(k, h, e))
            rhs = LetterplaceElement.zero(2)
            if h == j:
                rhs = rhs + polarize(k, i, e)
            if k == i:
                rhs = rhs - polarize(j, h, e)
            assert wh_normal_form(WhitneyElement(m, lhs)) == \
                wh_normal_form(WhitneyElement(m, rhs))


class TestRepresent:
    def test_single_letter_rule(self):
        m = six_point_matroid()
        e = LetterplaceElement.generator(3, "d", 2)
        t = represent(SIX_POINT_COLUMNS, WhitneyElement(m, e))
        # the letter d holds the vector (1, 1, 0) in fold 2
        assert t == TensorPowerElement(3, 3, {((), (1,), ()): 1,
                                              ((), (2,), ()): 1})

    def test_commutes_with_geometric_products(self):
        rng = random.Random(5)
        m = six_point_matroid()
        for _ in range(50):
            folds = rng.randint(2, 3)
            e = rand_element(rng, folds, m.ground)
            i, j = rng.sample(range(1, folds + 1), 2)
            h = rng.randint(0, 2)
            lhs = represent(SIX_POINT_COLUMNS,
                            WhitneyElement(m, polarize_divided(h, j, i, e)))
            rhs = diamond(h, j, i,
                          represent(SIX_POINT_COLUMNS, WhitneyElement(m, e)))
            assert lhs == rhs

    def test_normal_form_zero_maps_to_zero(self):
        m = six_point_matroid()
        gen = expand_raw(("a", "b", "d"), {1: 2, 2: 1}, 2)
        assert not represent(SIX_POINT_COLUMNS, WhitneyElement(m, gen))

    def test_refinement_violation_detected(self):
        m = Matroid.uniform(3, 2)   # abc dependent
        images = {"a": (1, 0, 0), "b": (0, 1, 0), "c": (0, 0, 1)}
        with pytest.raises(NotARepresentation):
            check_representation(m, images)

    @pytest.mark.parametrize("images, message", [
        ({"a": (1, 0), "b": (0, 1), "c": (1,)}, r"unequal lengths \[1, 2\]"),
        ({"a": (1, 0), "b": (0, 1)}, "no image for letter 'c'")])
    def test_ragged_or_partial_images_are_refused(self, images, message):
        m = Matroid.uniform(3, 2)
        e = WhitneyElement(m, LetterplaceElement.generator(2, "a", 1))
        with patch.object(linalg, "rank", side_effect=AssertionError("rank queried")), \
                patch.object(m, "rank", side_effect=AssertionError("rank queried")):
            for call in (lambda: check_representation(m, images),
                         lambda: represent(images, e)):
                with pytest.raises(ValueError, match=message) as info:
                    call()
                assert type(info.value) is ValueError

    def test_representability_probe(self):
        # products of independent words stay nonzero for realizable cases
        for m in (Matroid.uniform(3, 2), six_point_matroid()):
            words = list(m.independent_sorted_words(2))
            for u in words:
                for v in words:
                    seq = [(x, 1) for x in u] + [(x, 2) for x in v]
                    e = LetterplaceElement.from_vars(2, seq)
                    assert wh_normal_form(WhitneyElement(m, e))
        # three folds, spot-checked
        m = Matroid.uniform(3, 2)
        triples = [("a", "b", "c"), ("b", "c", "a"), ("a", "c", "b")]
        for u, v, w in triples:
            seq = [(u, 1), (v, 2), (w, 3)]
            e = LetterplaceElement.from_vars(3, seq)
            assert wh_normal_form(WhitneyElement(m, e))


# -- properties of the normal form ------------------------------------

FANO_LINES = [set(line) for line in
              ("abc", "ade", "afg", "bdf", "beg", "cdg", "cef")]


def fano_matroid():
    """The Fano plane: rank 3, its seven lines the dependent triples.
    Not representable over the rationals."""
    def rank_fn(subset):
        if len(subset) == 3 and subset in FANO_LINES:
            return 2
        return min(len(subset), 3)
    return Matroid("abcdefg", rank_fn, name="Fano")


MATROIDS = [Matroid.uniform(3, 2), Matroid.uniform(4, 2), Matroid.uniform(4, 3),
            six_point_matroid(), fano_matroid()]


@st.composite
def whitney_elements(draw, matroid, m):
    """Up to two random monomials plus up to two multiples of ideal
    generators, so that both members and non-members come up."""
    variables = st.tuples(st.sampled_from(matroid.ground), st.integers(1, m))
    coeffs = st.integers(-3, 3)
    out = LetterplaceElement.zero(m)
    for _ in range(draw(st.integers(0, 2))):
        seq = draw(st.lists(variables, max_size=4))
        out = out + LetterplaceElement.from_vars(m, seq, draw(coeffs))
    for _ in range(draw(st.integers(0, 2))):
        word = draw(st.sampled_from(list(matroid.dependent_sorted_words(4))))
        degrees: dict = {}
        for place in draw(st.lists(st.integers(1, m), min_size=len(word),
                                   max_size=len(word))):
            degrees[place] = degrees.get(place, 0) + 1
        cofactor = LetterplaceElement.from_vars(
            m, draw(st.lists(variables, max_size=1)), draw(coeffs))
        out = out + cofactor * expand_raw(word, degrees, m)
    return WhitneyElement(matroid, out)


@st.composite
def matroid_and_elements(draw, count):
    matroid = draw(st.sampled_from(MATROIDS))
    m = draw(st.sampled_from((2, 3)))
    return [draw(whitney_elements(matroid, m)) for _ in range(count)]


def two_stage_normal_form(e):
    """The former route: straighten, delete dependent rows, expand what
    is left in the doubly standard basis, delete again."""
    def drop(x):
        return BitableauElement(x.m, {
            rows: c for rows, c in x.terms.items()
            if all(e.matroid.is_independent(r.word) for r in rows)})
    s = drop(straighten(BitableauElement.from_letterplace(e.raw)))
    return drop(standard_expansion(s.to_letterplace()))


class TestNormalFormProperties:
    @settings(max_examples=60, deadline=None)
    @given(matroid_and_elements(1))
    def test_equals_the_two_stage_route(self, elements):
        (e,) = elements
        assert wh_normal_form(e) == two_stage_normal_form(e)

    @settings(max_examples=60, deadline=None)
    @given(matroid_and_elements(1))
    def test_zero_exactly_on_the_ideal(self, elements):
        (e,) = elements
        assert (not wh_normal_form(e)) == ideal_membership_bruteforce(e.raw, e.matroid)

    @settings(max_examples=60, deadline=None)
    @given(matroid_and_elements(1))
    def test_idempotent(self, elements):
        (e,) = elements
        nf = wh_normal_form(e)
        assert wh_normal_form(WhitneyElement(e.matroid, nf.to_letterplace())) == nf

    @settings(max_examples=60, deadline=None)
    @given(matroid_and_elements(2))
    def test_additive(self, elements):
        a, b = elements
        assert wh_normal_form(a + b) == wh_normal_form(a) + wh_normal_form(b)


def fresh_copy(matroid):
    """The same matroid as a new instance, with no rank or echelon kept."""
    return Matroid(matroid.ground, matroid._rank_fn, name=matroid.name)


@pytest.fixture
def echelon_builds(monkeypatch):
    """Every ideal component echelon built while the test runs.  The
    builder is counted, not every SparseEchelon: a linear matroid's rank
    oracle eliminates in one of its own."""
    built = []
    build = whitney._build_ideal_echelon

    def counted(*args):
        built.append(build(*args))
        return built[-1]

    monkeypatch.setattr(whitney, "_build_ideal_echelon", counted)
    return built


class TestOracleEchelons:
    """The oracle keeps each ideal component's echelon on the matroid."""

    @settings(max_examples=60, deadline=None)
    @given(matroid_and_elements(2))
    def test_a_warm_matroid_answers_as_a_fresh_one(self, elements):
        # MATROIDS are shared across examples, so their echelons are warm
        for e in elements:
            assert ideal_membership_bruteforce(e.raw, e.matroid) == \
                ideal_membership_bruteforce(e.raw, fresh_copy(e.matroid))

    def test_each_component_is_built_once_per_matroid(self, echelon_builds):
        matroid = six_point_matroid()
        member = expand_raw("abd", {1: 2, 2: 1}, 2) + \
            expand_raw("bcf", {1: 3}, 2) * LetterplaceElement.generator(2, "a", 2)
        other = LetterplaceElement.from_vars(2, [("a", 1), ("b", 1), ("d", 2)])
        assert ideal_membership_bruteforce(member, matroid)
        assert len(echelon_builds) == 2
        # other lies in the component of the abd generator
        assert not ideal_membership_bruteforce(other, matroid)
        assert len(echelon_builds) == 2
        # repeat calls build nothing, and reducing leaves the echelons as
        # they were: the non-member stays a non-member
        assert ideal_membership_bruteforce(member, matroid)
        assert not ideal_membership_bruteforce(other, matroid)
        assert len(echelon_builds) == 2
        assert len(matroid._ideal_echelons) == 2
        # a new instance of the same matroid builds its own
        assert ideal_membership_bruteforce(member, six_point_matroid())
        assert len(echelon_builds) == 4

    def test_the_degree_limit_is_checked_before_any_build(self):
        matroid = six_point_matroid()
        high = expand_raw("bcf", {1: 3}, 2) * LetterplaceElement.from_vars(
            2, [("a", 2), ("d", 2)])
        assert ideal_membership_bruteforce(high, matroid)
        warm = dict(matroid._ideal_echelons)
        assert len(warm) == 1
        # the unbuilt degree-3 component comes first, the warm degree-5
        # one second
        mixed = expand_raw("abd", {1: 2, 2: 1}, 2) + high
        assert [sum(q for _, q in pdeg) for pdeg, _ in _graded_components(mixed)] \
            == [3, 5]
        with pytest.raises(ValueError, match="component of degree 5 exceeds"):
            ideal_membership_bruteforce(mixed, matroid, max_degree=4)
        assert matroid._ideal_echelons == warm

    def test_the_same_component_in_two_and_three_places(self):
        matroid = six_point_matroid()
        for m in (2, 3, 2):
            member = expand_raw("abd", {1: 2, 2: 1}, m)
            other = LetterplaceElement.from_vars(m, [("a", 1), ("b", 1), ("d", 2)])
            assert ideal_membership_bruteforce(member, matroid)
            assert not ideal_membership_bruteforce(other, matroid)
            assert not ideal_membership_bruteforce(member + other, matroid)
        assert sorted(m for _, _, m in matroid._ideal_echelons) == [2, 3]

    def test_one_echelon_per_letter_and_dependence_pattern(self, echelon_builds):
        # abd and bcf are dependent, abc is not: the three contents share
        # their counts and place degrees
        def elements(word, m=2):
            return [expand_raw(word, {1: 2, 2: 1}, m),
                    LetterplaceElement.from_vars(m, [(word[0], 1), (word[1], 1),
                                                     (word[2], 2)])]

        matroid = six_point_matroid()
        fresh = {word: [ideal_membership_bruteforce(x, fresh_copy(matroid))
                        for x in elements(word)] for word in ("abd", "bcf", "abc")}
        assert fresh == {"abd": [True, False], "bcf": [True, False],
                         "abc": [False, False]}
        del echelon_builds[:]
        for word, builds in (("abd", 1), ("bcf", 1), ("abc", 2)):
            assert [ideal_membership_bruteforce(x, matroid)
                    for x in elements(word)] == fresh[word]
            assert len(echelon_builds) == builds
        assert len(matroid._ideal_echelons) == 3
        assert len(matroid._pattern_echelons) == 2
        # the same patterns in three places build nothing new
        for word in ("bcf", "ace", "abc"):
            assert [ideal_membership_bruteforce(x, matroid)
                    for x in elements(word, 3)] == fresh.get(word, fresh["abd"])
        assert len(echelon_builds) == 2
        assert len(matroid._ideal_echelons) == 6


VAMOS_PLANES = [set(a + b) for a, b in combinations(("ab", "cd", "ef", "gh"), 2)
                if a + b != "efgh"]


def vamos_matroid():
    """The Vamos matroid: rank 4 on eight letters, sparse paving, its
    dependent 4-sets the unions of two of the pairs ab, cd, ef, gh other
    than efgh.  Not representable over any field."""
    def rank_fn(subset):
        return 3 if subset in VAMOS_PLANES else min(len(subset), 4)
    return Matroid("abcdefgh", rank_fn, name="Vamos")


def dependent_subsets(matroid, letters):
    """Index tuples of every dependent subset of ``letters``, smallest
    first: the generating set the circuits replace."""
    return tuple(sub for size in range(1, len(letters) + 1)
                 for sub in combinations(range(len(letters)), size)
                 if not matroid.is_independent(letters[i] for i in sub))


def is_circuit(matroid, word):
    return not matroid.is_independent(word) and all(
        matroid.is_independent(rest) for rest in combinations(word, len(word) - 1))


CIRCUIT_MATROIDS = [six_point_matroid(), fano_matroid(), vamos_matroid()]


@st.composite
def ideal_components(draw):
    """A matroid, a place count and the (place degrees, letter content)
    key of a monomial of degree at most 4; a letter may repeat in other
    places."""
    matroid = draw(st.one_of(
        st.sampled_from(CIRCUIT_MATROIDS),
        st.integers(2, 6).flatmap(lambda n: st.builds(
            Matroid.uniform, st.just(n), st.integers(1, n)))))
    m = draw(st.sampled_from((2, 3)))
    variables = draw(st.lists(st.tuples(st.sampled_from(matroid.ground),
                                        st.integers(1, m)),
                              min_size=1, max_size=4, unique=True))
    (key,) = _graded_components(LetterplaceElement.from_vars(m, variables))
    return matroid, m, key


class TestCircuitGenerators:
    """The oracle spans each ideal component by the circuit biproducts
    alone; the biproducts of every dependent subset span the same rows."""

    @settings(max_examples=150, deadline=None)
    @given(ideal_components())
    def test_circuits_span_what_every_dependent_subset_spans(self, case):
        matroid, m, (pdeg_t, content_t) = case
        letters = [x for x, _ in content_t]
        dependent = dependent_subsets(matroid, letters)
        circuits = whitney._circuits(matroid, letters)
        assert circuits == tuple(sub for sub in dependent
                                 if not any(set(c) < set(sub) for c in dependent))
        assert _build_ideal_echelon(pdeg_t, content_t, m, circuits).reduced() == \
            _build_ideal_echelon(pdeg_t, content_t, m, dependent).reduced()
        whitney._ideal_echelon(matroid, pdeg_t, content_t, m)
        # every echelon the matroid keeps was built from circuits only
        for (_, subsets), (own, _) in matroid._pattern_echelons.items():
            assert all(is_circuit(matroid, [own[i] for i in sub]) for sub in subsets)

    def test_a_second_component_with_the_same_letters_makes_no_rank_query(
            self, monkeypatch):
        matroid = six_point_matroid()
        first = LetterplaceElement.from_vars(2, [("a", 1), ("b", 1), ("d", 2)])
        second = LetterplaceElement.from_vars(2, [("a", 2), ("b", 2), ("d", 1)])
        assert not ideal_membership_bruteforce(first, matroid)
        queries = []
        real = matroid.rank
        monkeypatch.setattr(matroid, "rank", lambda s: queries.append(s) or real(s))
        assert not ideal_membership_bruteforce(second, matroid)
        assert queries == []
        assert len(matroid._ideal_echelons) == 2
        assert list(matroid._circuits) == [("a", "b", "d")]
        # the kept circuits are those a fresh matroid works out
        assert matroid._circuits[("a", "b", "d")] == whitney._circuits(
            fresh_copy(matroid), ("a", "b", "d"))

    def test_a_dependent_superset_is_not_a_generator(self, echelon_builds):
        # in U(4,2) every triple of abcd is a circuit; abcd is dependent
        # but holds one
        matroid = Matroid.uniform(4, 2)
        member = expand_raw("abc", {1: 2, 2: 1}, 2) * LetterplaceElement.generator(2, "d", 2)
        assert ideal_membership_bruteforce(member, matroid)
        ((_, subsets),) = matroid._pattern_echelons
        assert subsets == tuple(combinations(range(4), 3))
        assert echelon_builds[0].reduced() == _build_ideal_echelon(
            *next(iter(matroid._ideal_echelons)),
            dependent_subsets(matroid, "abcd")).reduced()

    def test_vamos_exchange_relations(self):
        # the Vamos circuits are its five dependent 4-sets and the 5-sets
        # that hold none of them, so not every 4-set is a circuit
        matroid = vamos_matroid()
        words = list(matroid.independent_sorted_words(3))
        assert len(words) ** 2 == 8464
        assert all(exchange_check(u, v, matroid) for u in words for v in words)
        kept = {tuple(own[i] for i in sub)
                for (_, subsets), (own, _) in matroid._pattern_echelons.items()
                for sub in subsets}
        assert all(is_circuit(matroid, c) for c in kept)
        assert {c for c in kept if len(c) == 4} == {tuple(sorted(p)) for p in VAMOS_PLANES}
        assert {len(c) for c in kept} == {4, 5}


@pytest.mark.xfail(strict=True, reason="deleting dependent-row products is "
                   "sound but not complete")
def test_generator_multiples_have_zero_normal_form():
    """(w|1^3)(a|2) lies in the ideal when w is a dependent triple, yet
    its doubly standard expansion keeps products whose rows are all
    independent, so the deletion leaves a nonzero normal form."""
    cases = [(six_point_matroid(), "bcf"), (fano_matroid(), "bdf")]
    elements = [WhitneyElement(matroid, expand_raw(word, {1: 3}, 2)
                               * LetterplaceElement.generator(2, "a", 2))
                for matroid, word in cases]
    assert all(ideal_membership_bruteforce(e.raw, e.matroid) for e in elements)
    assert [str(wh_normal_form(e)) for e in elements] == ["0", "0"]


# -- second routes: every monomial put through lp_normalize -------------

def reference_exchange_sides(u, v, matroid):
    """Both sides as products of generators in the written order of the
    slices of u and v, each normalized."""
    p, q = len(u), len(v)
    k = p + q - matroid.rank(set(u) | set(v))
    lhs = _sum_products(([(x, 1) for x in u + v2] + [(x, 2) for x in v1], sign)
                        for sign, (v1, v2) in word_slices(v, (k, q - k)))
    rhs = _sum_products(([(x, 1) for x in u1 + v] + [(x, 2) for x in u2], sign)
                        for sign, (u1, u2) in word_slices(u, (p - k, k)))
    return LetterplaceElement(2, lhs), LetterplaceElement(2, rhs)


def reference_ideal_echelon(pdeg_t, content_t, m, dependent):
    """The ideal echelon of a component with every generator expanded
    slice by slice and every monomial multiple made from generators,
    both normalized, inserted in the order the oracle inserts them."""
    pdeg, letters = dict(pdeg_t), [x for x, _ in content_t]
    echelon = linalg.SparseEchelon()
    for sub in dependent:
        wset = tuple(letters[i] for i in sub)
        rest_content = dict(content_t)
        for x in wset:
            rest_content[x] -= 1
        for comp in iproduct(*(range(pdeg.get(p, 0) + 1) for p in range(1, m + 1))):
            if sum(comp) != len(wset):
                continue
            gen = _sum_products(
                ([(x, p) for p, block in enumerate(blocks, start=1) for x in block], sign)
                for sign, blocks in word_slices(wset, comp))
            rest_pdeg = {p: pdeg.get(p, 0) - q for p, q in enumerate(comp, start=1)}
            for mono in _monomials_with(rest_content, rest_pdeg, m):
                mult = LetterplaceElement(m, _sum_products(
                    (mono + g, c) for g, c in gen.items()))
                if mult:
                    echelon.insert(mult.terms)
    return echelon


def reference_graded_components(e):
    """Place degrees and letter content counted monomial by monomial."""
    components: dict = {}
    for mono, c in e.terms.items():
        pdeg: dict = {}
        content: dict = {}
        for x, i in mono:
            pdeg[i] = pdeg.get(i, 0) + 1
            content[x] = content.get(x, 0) + 1
        key = (tuple(sorted(pdeg.items())), tuple(sorted(content.items())))
        components.setdefault(key, {})[mono] = c
    return components


@st.composite
def independent_word_pairs(draw):
    """A matroid and two of its independent words, each in any letter
    order."""
    matroid = draw(st.sampled_from(MATROIDS))
    words = list(matroid.independent_sorted_words(3))
    u, v = draw(st.sampled_from(words)), draw(st.sampled_from(words))
    return matroid, tuple(draw(st.permutations(u))), tuple(draw(st.permutations(v)))


class TestCanonicalConstructionsAgainstNormalizing:
    @settings(max_examples=300, deadline=None)
    @given(independent_word_pairs())
    def test_exchange_sides_of_words_in_any_order(self, case):
        matroid, u, v = case
        got = exchange_sides(u, v, matroid)
        want = reference_exchange_sides(u, v, matroid)
        assert [side.terms for side in got] == [side.terms for side in want]

    @settings(max_examples=40, deadline=None)
    @given(matroid_and_elements(2))
    def test_ideal_echelons(self, elements):
        a, b = elements
        matroid = a.matroid
        for (pdeg_t, content_t), vec in _graded_components(a.raw).items():
            letters = [x for x, _ in content_t]
            dependent = tuple(sub for size in range(1, len(letters) + 1)
                              for sub in combinations(range(len(letters)), size)
                              if not matroid.is_independent(letters[i] for i in sub))
            got = _build_ideal_echelon(pdeg_t, content_t, a.m, dependent)
            want = reference_ideal_echelon(pdeg_t, content_t, a.m, dependent)
            assert got.rows == want.rows
            probes = [vec] + [v for key, v in _graded_components(b.raw).items()
                              if key == (pdeg_t, content_t)]
            for probe in probes:
                assert got.reduce(probe) == want.reduce(probe)

    @settings(max_examples=150, deadline=None)
    @given(matroid_and_elements(2))
    def test_graded_components_keys_and_order(self, elements):
        raw = elements[0].raw + elements[1].raw
        assert [(key, list(vec.items())) for key, vec in _graded_components(raw).items()] \
            == [(key, list(vec.items()))
                for key, vec in reference_graded_components(raw).items()]


def test_the_whitney_path_never_sorts_a_monomial(monkeypatch):
    """Exchange checks, the oracle, the divided polarizations and the
    biproduct expansion build canonical monomials; none of them may fall
    back on the general re-sort, cold caches and fresh echelons
    included."""
    def refuse(seq):
        raise AssertionError(f"lp_normalize called on {seq!r}")

    monkeypatch.setattr(letterplace, "lp_normalize", refuse)
    monkeypatch.setattr(bitableau, "_component_echelons", {})
    letterplace._expand_biproduct.cache_clear()
    matroid = six_point_matroid()
    for u, v in (("ab", "cd"), ("bea", "fc"), ("abc", "def"), ("ce", "bf")):
        assert exchange_check(u, v, matroid)
    member = expand_raw("abd", {1: 2, 2: 1}, 2) + \
        expand_raw("bcf", {1: 3}, 2) * LetterplaceElement.generator(2, "a", 2)
    assert ideal_membership_bruteforce(member, matroid)
    gen = expand_raw("acde", {1: 2, 2: 2}, 3)
    assert polarize_divided(2, 3, 1, gen) == expand_raw("acde", {2: 2, 3: 2}, 3)
    assert biproduct_expand(Biproduct(("a", "b", "e"), ((1, 1), (3, 2))), 3)


def test_an_exchange_check_hands_both_routes_one_component(monkeypatch):
    """An exchange check splits nothing: the normal form and the oracle
    receive one components object, equal to the split of the
    difference of the two sides, and each route is entered once."""
    calls, handed = [], []

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls.append(name)
            if name in ("standard_expansion", "ideal_membership_bruteforce"):
                handed.append(args[1] if name == "standard_expansion"
                              else kwargs["components"])
            return fn(*args, **kwargs)
        return wrapper

    for module in (whitney, bitableau):
        monkeypatch.setattr(module, "_graded_components",
                            counted("split", letterplace._graded_components))
    for name in ("wh_normal_form", "standard_expansion", "ideal_membership_bruteforce"):
        monkeypatch.setattr(whitney, name, counted(name, getattr(whitney, name)))
    matroid = six_point_matroid()
    for u, v in (("ab", "cd"), ("bea", "fc"), ("abc", "def"), ("ce", "bf"), ("ab", "ab")):
        lhs, rhs = exchange_sides(u, v, matroid)
        want = letterplace._graded_components(lhs - rhs)
        del calls[:], handed[:]
        assert exchange_check(u, v, matroid)
        assert sorted(calls) == ["ideal_membership_bruteforce",
                                 "standard_expansion", "wh_normal_form"]
        assert handed[0] is handed[1]
        assert handed[0] == want


@st.composite
def exchange_pairs(draw):
    """A matroid and two of its independent words, each in any letter
    order, the pairs with k = 0 and the pairs that cancel drawn often."""
    matroid = draw(st.sampled_from(MATROIDS))
    words = list(matroid.independent_sorted_words(3))
    u = draw(st.sampled_from(words))
    shape = draw(st.sampled_from(["any", "same", "k = 0"]))
    if shape == "same":
        v = u
    elif shape == "k = 0":
        free = [w for w in words if matroid.rank(set(u) | set(w)) == len(u) + len(w)]
        v = draw(st.sampled_from(free)) if free else u
    else:
        v = draw(st.sampled_from(words))
    return matroid, tuple(draw(st.permutations(u))), tuple(draw(st.permutations(v)))


class TestOnePassDifference:
    @settings(max_examples=300, deadline=None)
    @given(exchange_pairs())
    def test_matches_subtracting_and_splitting_the_sides(self, case):
        matroid, u, v = case
        lhs, rhs = exchange_sides(u, v, matroid)
        want = lhs - rhs
        diff, components = whitney._exchange_difference(u, v, matroid)
        assert diff.terms == want.terms
        # every monomial of either side has the one key, cancelled or not
        key = whitney._add_exchange_terms(u, v, matroid, {}, {}, 1)
        assert set(_graded_components(lhs)) | set(_graded_components(rhs)) == {key}
        assert list(components.items()) == list(_graded_components(want).items())

    @pytest.mark.parametrize("u, v, places", [
        ("a", "bc", ((1, 3),)), ("ba", "c", ((1, 3),)), ("a", "fe", ((1, 3),)),
        ("ab", "ab", ((1, 2), (2, 2))), ("bea", "bea", ((1, 3), (2, 3)))])
    def test_pairs_that_cancel_have_no_component(self, u, v, places):
        # with k = 0 or u = v the sides are equal, so the key is read off
        # the left side alone; k = 0 gives no place-2 entry
        matroid = six_point_matroid()
        lhs, rhs = exchange_sides(u, v, matroid)
        assert lhs == rhs
        key = whitney._add_exchange_terms(u, v, matroid, {}, {}, -1)
        assert [key] == list(_graded_components(lhs)) and key[0] == places
        assert whitney._exchange_difference(u, v, matroid) == (LetterplaceElement(2), {})

    def test_unsorted_words_give_the_sorted_pair_up_to_sign(self):
        matroid = six_point_matroid()
        diff, components = whitney._exchange_difference("ab", "ec", matroid)
        flipped, flipped_components = whitney._exchange_difference("ba", "ec", matroid)
        assert flipped == -diff and list(flipped_components) == list(components)
        key, = components
        assert key == (((1, 3), (2, 1)), (("a", 1), ("b", 1), ("c", 1), ("e", 1)))
        assert list(components.items()) == list(_graded_components(diff).items())
