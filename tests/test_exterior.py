import random
from fractions import Fraction
from itertools import permutations
from math import comb

import pytest

from extensor.exterior import (DimensionMismatch, ExteriorElement,
                               extensor_span, make_extensor, substitute,
                               unit_vector)
from extensor.letterplace import LetterplaceElement
from extensor.tensor_power import TensorPowerElement


def det_bruteforce(rows):
    """Permutation-expansion determinant, the independent oracle."""
    n = len(rows)
    total = Fraction(0)
    for perm in permutations(range(n)):
        inv = sum(1 for i in range(n) for j in range(i + 1, n)
                  if perm[i] > perm[j])
        prod = Fraction(1)
        for i in range(n):
            prod *= Fraction(rows[i][perm[i]])
        total += (-1) ** inv * prod
    return total


def rand_fraction(rng):
    return Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))


def rand_vector(rng, n):
    return tuple(rand_fraction(rng) for _ in range(n))


def rand_element(rng, n, nterms=3):
    out = ExteriorElement.zero(n)
    for _ in range(nterms):
        k = rng.randint(0, n)
        word = tuple(sorted(rng.sample(range(1, n + 1), k)))
        out = out + ExteriorElement.monomial(n, word, rand_fraction(rng))
    return out


def e(n, *idx):
    return ExteriorElement.monomial(n, idx)


class TestMakeExtensor:
    def test_basis_case(self):
        got = make_extensor([unit_vector(3, 1), unit_vector(3, 2)])
        assert got == e(3, 1, 2)

    def test_repeated_vector_vanishes(self):
        v = unit_vector(3, 1)
        assert not make_extensor([v, v])

    def test_dependent_vectors_vanish(self):
        vecs = [(1, 1, 0), (0, 1, 1), (1, 0, -1)]
        assert det_bruteforce(vecs) == 0
        assert not make_extensor(vecs)

    def test_top_coefficient_is_determinant(self):
        rng = random.Random(0)
        for _ in range(20):
            n = rng.choice((2, 3, 4))
            vecs = [rand_vector(rng, n) for _ in range(n)]
            got = make_extensor(vecs, n)
            assert got.terms.get(tuple(range(1, n + 1)), Fraction(0)) == \
                det_bruteforce(vecs)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            make_extensor([(1, 0, 0), (1, 0)], 3)

    def test_dimension_mismatch_after_a_dependent_prefix(self):
        for vecs in ([(1, 0, 0), (2, 0, 0), (1, 2)], [(0, 0, 0), (1, 2, 3, 4)]):
            with pytest.raises(DimensionMismatch):
                make_extensor(vecs, 3)


class TestWedge:
    def test_transposition_sign(self):
        assert e(3, 1).wedge(e(3, 2)) == e(3, 1, 2)
        assert e(3, 2).wedge(e(3, 1)) == -1 * e(3, 1, 2)

    def test_repeated_index(self):
        assert not e(3, 1, 2).wedge(e(3, 1))

    def test_four_vectors_in_a_three_space(self):
        # two coplanar lines join to zero
        rng = random.Random(1)
        p2, q1, q2 = (rand_vector(rng, 4) for _ in range(3))
        p1 = tuple(2 * a - b + 3 * c for a, b, c in zip(p2, q1, q2))
        a = make_extensor([p1, p2])
        b = make_extensor([q1, q2])
        assert a and b
        assert not a.wedge(b)

    def test_associative_unital(self):
        rng = random.Random(2)
        for _ in range(25):
            n = rng.choice((3, 4))
            x, y, z = (rand_element(rng, n) for _ in range(3))
            assert x.wedge(y).wedge(z) == x.wedge(y.wedge(z))
            one = ExteriorElement.unit(n)
            assert one.wedge(x) == x
            assert x.wedge(one) == x

    def test_graded_anticommutative(self):
        rng = random.Random(3)
        for _ in range(25):
            n = 4
            a = rng.randint(0, n)
            b = rng.randint(0, n)
            x = ExteriorElement.monomial(n, sorted(rng.sample(range(1, n + 1), a)),
                                         rand_fraction(rng))
            y = ExteriorElement.monomial(n, sorted(rng.sample(range(1, n + 1), b)),
                                         rand_fraction(rng))
            assert x.wedge(y) == (-1) ** (a * b) * y.wedge(x)


    def test_foreign_operand_is_a_type_error(self):
        x = ExteriorElement.unit(2)
        for other in (3, Fraction(1, 2), LetterplaceElement.unit(1)):
            name = type(other).__name__
            with pytest.raises(TypeError, match=f"ExteriorElement and {name}$"):
                x ^ other
            with pytest.raises(TypeError, match=f"ExteriorElement and {name}$"):
                x.wedge(other)
        with pytest.raises(DimensionMismatch):
            x ^ ExteriorElement.unit(3)
        with pytest.raises(DimensionMismatch):
            e(3, 1).wedge(e(2, 1))


class TestSlice:
    def test_two_vector_slice(self):
        got = e(3, 1, 2).slice((1, 1))
        want = TensorPowerElement(3, 2, {((1,), (2,)): 1, ((2,), (1,)): -1})
        assert got == want

    def test_trailing_empty_block(self):
        a = e(4, 1, 3, 4)
        got = a.slice((3, 0))
        assert got == TensorPowerElement(4, 2, {((1, 3, 4), ()): 1})

    def test_term_count_is_binomial(self):
        for n, p in ((4, 3), (5, 4)):
            a = ExteriorElement.monomial(n, range(1, p + 1))
            for h in range(p + 1):
                assert len(a.slice((p - h, h)).terms) == comb(p, h)

    def test_mismatched_total_is_zero(self):
        assert not e(3, 1, 2).slice((1, 2))

    def test_negative_part_rejected(self):
        with pytest.raises(ValueError):
            e(3, 1).slice((2, -1))

    def test_no_parts_rejected(self):
        with pytest.raises(ValueError):
            ExteriorElement.unit(3).slice(())

    def test_coassociative(self):
        rng = random.Random(4)
        for _ in range(15):
            n = 4
            p = rng.randint(0, n)
            a = rand_element(rng, n, 2).homogeneous_component(p)
            parts = []
            rem = p
            for _ in range(2):
                t = rng.randint(0, rem)
                parts.append(t)
                rem -= t
            parts.append(rem)
            p1, p2, p3 = parts
            full = a.slice((p1, p2, p3))
            # refine the left factor of a two-fold slice
            left_first = {}
            for (w12, w3), c in a.slice((p1 + p2, p3)).terms.items():
                inner = ExteriorElement.monomial(n, w12).slice((p1, p2))
                for (w1, w2), c2 in inner.terms.items():
                    k = (w1, w2, w3)
                    left_first[k] = left_first.get(k, Fraction(0)) + c * c2
            assert full == TensorPowerElement(n, 3, left_first)
            right_first = {}
            for (w1, w23), c in a.slice((p1, p2 + p3)).terms.items():
                inner = ExteriorElement.monomial(n, w23).slice((p2, p3))
                for (w2, w3), c2 in inner.terms.items():
                    k = (w1, w2, w3)
                    right_first[k] = right_first.get(k, Fraction(0)) + c * c2
            assert full == TensorPowerElement(n, 3, right_first)

    def test_slice_of_product_is_product_of_slices(self):
        rng = random.Random(5)
        for _ in range(15):
            n = 4
            sa = rng.randint(0, 2)
            sb = rng.randint(0, 2)
            a = rand_element(rng, n, 2).homogeneous_component(sa)
            b = rand_element(rng, n, 2).homogeneous_component(sb)
            p = sa + sb
            for h in range(p + 1):
                lhs = a.wedge(b).slice((p - h, h))
                rhs = TensorPowerElement.zero(n, 2)
                for h1 in range(h + 1):
                    if p - h - (sa - h1) < 0 or h1 > sa or h - h1 > sb:
                        continue
                    rhs = rhs + (a.slice((sa - h1, h1))
                                 * b.slice((sb - (h - h1), h - h1)))
                assert lhs == rhs


class TestSpanAndSubstitute:
    def test_extensor_span_dimension(self):
        rng = random.Random(6)
        for _ in range(10):
            n = 4
            k = rng.randint(1, 3)
            vecs = [rand_vector(rng, n) for _ in range(k)]
            a = make_extensor(vecs, n)
            if not a:
                continue
            assert len(extensor_span(a)) == k

    def test_substitute_identity(self):
        rng = random.Random(7)
        imgs = [ExteriorElement.from_vector(unit_vector(3, i)) for i in (1, 2, 3)]
        x = rand_element(rng, 3)
        assert substitute(x, imgs) == x

    def test_substitute_a_word_of_over_a_thousand_indices(self):
        n = 1100
        a = ExteriorElement.monomial(n, range(1, n + 1))
        images = [ExteriorElement.monomial(n, (i,)) for i in range(1, n + 1)]
        assert substitute(a, images) == a
