import random
from fractions import Fraction
from math import comb, factorial

import pytest

from extensor.exterior import ExteriorElement, extensor_span, make_extensor
from extensor.tensor_power import (FoldMismatch, TensorPowerElement, contains,
                                   diamond, meet_join_factor)
from extensor.span_invariants import minimal_representation
from extensor import linalg


def e(n, *idx):
    return ExteriorElement.monomial(n, idx)


def rand_fraction(rng):
    return Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))


def rand_vector(rng, n):
    return tuple(rand_fraction(rng) for _ in range(n))


def rand_extensor(rng, n, step):
    while True:
        x = make_extensor([rand_vector(rng, n) for _ in range(step)], n)
        if x:
            return x


def rand_tensor(rng, n, m, nterms=3):
    out = TensorPowerElement.zero(n, m)
    for _ in range(nterms):
        key = tuple(tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
                    for _ in range(m))
        out = out + TensorPowerElement(n, m, {key: rand_fraction(rng)})
    return out


class TestGradedProduct:
    def test_two_fold_sign(self):
        s = TensorPowerElement.from_elements([e(3, 1), e(3, 2)])
        t = TensorPowerElement.from_elements([e(3, 2), e(3, 3)])
        got = s * t
        want = TensorPowerElement(3, 2, {((1, 2), (2, 3)): -1})
        assert got == want

    def test_unit_fold_swap(self):
        rng = random.Random(0)
        n = 4
        for _ in range(20):
            a = rand_extensor(rng, n, rng.randint(0, n))
            b = rand_extensor(rng, n, rng.randint(0, n))
            one = ExteriorElement.unit(n)
            lhs = (TensorPowerElement.from_elements([one, a])
                   * TensorPowerElement.from_elements([b, one]))
            want = TensorPowerElement.from_elements([b, a]).scale(
                (-1) ** (a.step() * b.step()))
            assert lhs == want

    def test_unit_identity(self):
        rng = random.Random(1)
        t = rand_tensor(rng, 3, 3)
        one = TensorPowerElement.unit(3, 3)
        assert one * t == t
        assert t * one == t

    def test_fold_mismatch(self):
        with pytest.raises(FoldMismatch):
            TensorPowerElement.unit(3, 2) * TensorPowerElement.unit(3, 3)


class TestDiamond:
    def test_raising_on_split_lines(self):
        # fold 1 = e1^e2, fold 2 = e3^e4: both slice terms survive
        t = TensorPowerElement.from_elements([e(4, 1, 2), e(4, 3, 4)])
        got = diamond(1, 2, 1, t)
        want = TensorPowerElement(4, 2, {((1,), (2, 3, 4)): 1,
                                         ((2,), (1, 3, 4)): -1})
        assert got == want

    def test_h_above_step_vanishes(self):
        rng = random.Random(2)
        for _ in range(10):
            a = rand_extensor(rng, 4, 2)
            b = rand_extensor(rng, 4, 1)
            t = TensorPowerElement.from_elements([a, b])
            assert not diamond(3, 2, 1, t)

    def test_join_recovery(self):
        rng = random.Random(3)
        for _ in range(20):
            n = 4
            a = rand_extensor(rng, n, rng.randint(0, 2))
            b = rand_extensor(rng, n, rng.randint(0, 2))
            t = TensorPowerElement.from_elements([a, b])
            got = diamond(a.step(), 2, 1, t)
            want = TensorPowerElement.from_elements(
                [ExteriorElement.unit(n), a.wedge(b)])
            assert got == want

    def test_h_zero_is_identity(self):
        rng = random.Random(4)
        t = rand_tensor(rng, 3, 3)
        assert diamond(0, 3, 1, t) == t
        assert diamond(0, 1, 3, t) == t

    def test_diagonal_scales_by_step(self):
        t = TensorPowerElement(3, 2, {((1, 2), (3,)): 2, ((), (1,)): 5})
        got = diamond(1, 1, 1, t)
        assert got == TensorPowerElement(3, 2, {((1, 2), (3,)): 4})
        with pytest.raises(ValueError):
            diamond(2, 1, 1, t)

    def test_divided_power_law(self):
        rng = random.Random(5)
        for _ in range(25):
            m = rng.randint(2, 3)
            t = rand_tensor(rng, 4, m)
            i, j = rng.sample(range(1, m + 1), 2)
            h = rng.randint(0, 3)
            iterated = t
            for _ in range(h):
                iterated = diamond(1, j, i, iterated)
            assert iterated == diamond(h, j, i, t).scale(factorial(h))

    def test_gl_commutation(self):
        rng = random.Random(6)
        for _ in range(40):
            m = rng.randint(2, 4)
            t = rand_tensor(rng, 3, m)
            i, j, hh, k = (rng.randint(1, m) for _ in range(4))
            lhs = diamond(1, i, j, diamond(1, hh, k, t)) - \
                diamond(1, hh, k, diamond(1, i, j, t))
            rhs = TensorPowerElement.zero(3, m)
            if j == hh:
                rhs = rhs + diamond(1, i, k, t)
            if k == i:
                rhs = rhs - diamond(1, hh, j, t)
            assert lhs == rhs

    def test_simple_product_is_a_derivation(self):
        rng = random.Random(7)
        for _ in range(25):
            m = rng.randint(2, 3)
            s = rand_tensor(rng, 3, m, 2)
            t = rand_tensor(rng, 3, m, 2)
            i, j = rng.sample(range(1, m + 1), 2)
            lhs = diamond(1, j, i, s * t)
            rhs = diamond(1, j, i, s) * t + s * diamond(1, j, i, t)
            assert lhs == rhs

    def test_lowering_mirrors_raising_on_two_folds(self):
        rng = random.Random(8)
        for _ in range(20):
            n = 4
            a = rand_extensor(rng, n, rng.randint(0, n))
            b = rand_extensor(rng, n, rng.randint(0, n))
            t = TensorPowerElement.from_elements([a, b])
            got = diamond(b.step(), 1, 2, t)
            want = TensorPowerElement.from_elements(
                [a.wedge(b), ExteriorElement.unit(n)])
            assert got == want


class TestContains:
    def test_divisibility(self):
        assert contains(e(3, 1), e(3, 1, 2))

    def test_non_inclusion_has_surviving_term(self):
        a, b = e(3, 1, 2), e(3, 2, 3)
        assert not contains(a, b)
        t = diamond(1, 2, 1, TensorPowerElement.from_elements([a, b]))
        assert t.terms == {((2,), (1, 2, 3)): -1}

    def test_reflexive(self):
        rng = random.Random(9)
        for _ in range(10):
            a = rand_extensor(rng, 4, rng.randint(1, 3))
            assert contains(a, a)

    def test_matches_span_inclusion(self):
        rng = random.Random(10)
        for _ in range(30):
            n = 4
            a = rand_extensor(rng, n, rng.randint(1, 3))
            b = rand_extensor(rng, n, rng.randint(1, 3))
            sa = [list(v) for v in extensor_span(a)]
            sb = [list(v) for v in extensor_span(b)]
            included = linalg.rank(sa + sb) == linalg.rank(sb)
            assert contains(a, b) == included

    def test_zero_rejected(self):
        with pytest.raises(ValueError):
            contains(ExteriorElement.zero(3), e(3, 1))


class TestMeetJoinFactor:
    def test_coplanar_lines(self):
        rng = random.Random(11)
        for _ in range(10):
            while True:
                p2, q1, q2 = (rand_vector(rng, 4) for _ in range(3))
                lam = Fraction(rng.randint(1, 3))
                mu = rand_fraction(rng)
                nu = rand_fraction(rng)
                p1 = tuple(lam * x + mu * y + nu * z
                           for x, y, z in zip(p2, q1, q2))
                a = make_extensor([p1, p2])
                b = make_extensor([q1, q2])
                if a and b and linalg.rank(
                        [list(v) for v in (p1, p2, q1, q2)]) == 3:
                    break
            c, d, p = meet_join_factor(a, b)
            assert p == 1
            assert c.step() == 1 and d.step() == 3
            t = diamond(1, 2, 1, TensorPowerElement.from_elements([a, b]))
            assert TensorPowerElement.from_elements([c, d]) == t
            # the intersection point lies on both lines
            assert contains(c, a) and contains(c, b)

    def test_included_span_gives_p_zero(self):
        rng = random.Random(12)
        b = rand_extensor(rng, 4, 3)
        basis = extensor_span(b)
        a = make_extensor([basis[0], basis[1]], 4)
        c, d, p = meet_join_factor(a, b)
        assert p == 0
        assert TensorPowerElement.from_elements([c, d]) == \
            TensorPowerElement.from_elements([a, b])

    def test_vanishing_above_p(self):
        rng = random.Random(13)
        for _ in range(15):
            n = 4
            a = rand_extensor(rng, n, rng.randint(1, 3))
            b = rand_extensor(rng, n, rng.randint(1, 3))
            sa = [list(v) for v in extensor_span(a)]
            sb = [list(v) for v in extensor_span(b)]
            p = linalg.rank(sa + sb) - linalg.rank(sb)
            t = TensorPowerElement.from_elements([a, b])
            assert not diamond(p + 1, 2, 1, t)

    def test_zero_input_rejected(self):
        with pytest.raises(ValueError):
            meet_join_factor(ExteriorElement.zero(3), e(3, 1))


class TestSpanDimensions:
    def test_left_right_span_dimension_is_binomial(self):
        # exhaustive canonical pairs in dimension 4
        from itertools import combinations
        n = 4
        words = [w for size in range(n + 1)
                 for w in combinations(range(1, n + 1), size)]
        for wa in words:
            for wb in words:
                a = ExteriorElement.monomial(n, wa)
                b = ExteriorElement.monomial(n, wb)
                p = len(set(wa) | set(wb)) - len(wb)
                t0 = TensorPowerElement.from_elements([a, b])
                for h in range(p + 1):
                    rep = minimal_representation(diamond(h, 2, 1, t0))
                    assert rep.rank == comb(p, h)
                    c = ExteriorElement.monomial(n, tuple(sorted(set(wa) & set(wb))))
                    for left in rep.lefts:
                        assert contains(c, left) or not c.step()
                        assert contains(left, a) or not left.step()
