import random
from fractions import Fraction

import pytest

from extensor.cg_algebra import OrderedBasis, PeanoSpace, standard_basis
from extensor.exterior import (DimensionMismatch, ExteriorElement, make_extensor,
                               unit_vector)
from extensor.tensor_power import TensorPowerElement, contains, diamond


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


class TestBracket:
    def test_normalization(self):
        ps = PeanoSpace.standard(3)
        assert ps.bracket([unit_vector(3, i) for i in (1, 2, 3)]) == 1

    def test_repeated_vector(self):
        ps = PeanoSpace.standard(3)
        v = (1, 2, 3)
        assert ps.bracket([v, v, (0, 1, 0)]) == 0

    def test_swap_changes_sign(self):
        ps = PeanoSpace.standard(3)
        base = [unit_vector(3, i) for i in (1, 2, 3)]
        swapped = [base[1], base[0], base[2]]
        assert ps.bracket(swapped) == -1

    def test_scaled_integral(self):
        ps = PeanoSpace.standard(3, 2)
        assert ps.bracket([unit_vector(3, i) for i in (1, 2, 3)]) == Fraction(1, 2)

    def test_wrong_count(self):
        with pytest.raises(ValueError):
            PeanoSpace.standard(3).bracket([(1, 0, 0)])

    def test_short_vector_after_a_dependent_prefix(self):
        with pytest.raises(DimensionMismatch):
            PeanoSpace.standard(3).bracket([(1, 0, 0), (2, 0, 0), (1, 2)])


class TestMeet:
    def test_two_lines_formula(self):
        rng = random.Random(0)
        ps = PeanoSpace.standard(3)
        for _ in range(25):
            p1, p2, q1, q2 = (rand_vector(rng, 3) for _ in range(4))
            a = make_extensor([p1, p2])
            b = make_extensor([q1, q2])
            if not (a and b):
                continue
            left = ps.meet(a, b, "left")
            right = ps.meet(a, b, "right")
            want_a = ps.bracket([p1, q1, q2]) * make_extensor([p2]) - \
                ps.bracket([p2, q1, q2]) * make_extensor([p1])
            want_b = -ps.bracket([p1, p2, q1]) * make_extensor([q2]) + \
                ps.bracket([p1, p2, q2]) * make_extensor([q1])
            assert left == right == want_a == want_b

    def test_short_steps_vanish(self):
        ps = PeanoSpace.standard(4)
        assert not ps.meet(e(4, 1), e(4, 2, 3))

    def test_top_against_top(self):
        ps = PeanoSpace.standard(3)
        top = ps.integral
        assert ps.meet(top, top) == top

    def test_sides_agree_on_random_pairs(self):
        rng = random.Random(1)
        for _ in range(60):
            n = rng.choice((3, 4))
            ps = PeanoSpace.standard(n, rng.choice((1, 2)))
            a = rand_extensor(rng, n, rng.randint(0, n))
            b = rand_extensor(rng, n, rng.randint(0, n))
            assert ps.meet(a, b, "left") == ps.meet(a, b, "right")

    def test_meet_is_associative(self):
        rng = random.Random(2)
        ps = PeanoSpace.standard(3)
        for _ in range(20):
            a, b, c = (rand_extensor(rng, 3, 2) for _ in range(3))
            assert ps.meet(ps.meet(a, b), c) == ps.meet(a, ps.meet(b, c))

    def test_rejects_an_unknown_side_before_any_shortcut(self):
        ps = PeanoSpace.standard(3)
        for a, b in ((ExteriorElement.zero(3), e(3, 1, 2)),   # zero operand
                     (e(3, 1), e(3, 2)),                      # steps short of 3
                     (e(3, 1, 2), e(3, 2, 3))):
            with pytest.raises(ValueError, match="unknown meet side"):
                ps.meet(a, b, "bogus")
        # a chain with nothing to meet checks its side too
        with pytest.raises(ValueError, match="unknown meet side"):
            ps.meet_chain(e(3, 1, 2), side="bogus")

    def test_rejects_mixed_grade(self):
        ps = PeanoSpace.standard(3)
        mixed = e(3, 1) + e(3, 1, 2)
        with pytest.raises(ValueError):
            ps.meet(mixed, e(3, 2, 3))


class TestDotMeet:
    def test_hand_expansion(self):
        # slice (1,1) of e1^e2 against e2^e3 leaves only -e2 [e1 e2 e3]
        ps = PeanoSpace.standard(3)
        assert ps.dot_meet(e(3, 1, 2), e(3, 2, 3)) == -1 * e(3, 2)
        assert ps.meet(e(3, 1, 2), e(3, 2, 3)) == e(3, 2)

    def test_other_dimension_is_refused(self):
        ps = PeanoSpace.standard(3)
        for a, b in ((e(2, 1), e(3, 1, 2)), (e(3, 1, 2), e(4, 1, 2, 3))):
            with pytest.raises(DimensionMismatch):
                ps.dot_meet(a, b)

    def test_sign_relation_to_meet(self):
        rng = random.Random(3)
        for _ in range(40):
            n = rng.choice((3, 4))
            ps = PeanoSpace.standard(n)
            a = rand_extensor(rng, n, rng.randint(0, n))
            b = rand_extensor(rng, n, rng.randint(0, n))
            sa, sb = a.step(), b.step()
            if sa + sb < n:
                assert not ps.dot_meet(a, b)
                continue
            sign = (-1) ** ((sa + sb - n) * (n - sb))
            assert ps.dot_meet(a, b) == sign * ps.meet(a, b)

    def test_recovery_through_diamond(self):
        rng = random.Random(4)
        for _ in range(25):
            n = rng.choice((3, 4))
            ps = PeanoSpace.standard(n)
            a = rand_extensor(rng, n, rng.randint(0, n))
            b = rand_extensor(rng, n, rng.randint(0, n))
            sb = b.step()
            t = TensorPowerElement.from_elements([a, b])
            lhs = diamond(n - sb, 2, 1, t)
            rhs = TensorPowerElement.from_elements([ps.dot_meet(a, b), ps.integral])
            assert lhs == rhs


class TestHodge:
    def test_unit_and_top(self):
        ob = standard_basis(3)
        assert ob.star(ExteriorElement.unit(3)) == ob.F
        assert ob.star(ob.F) == ExteriorElement.unit(3)

    def test_dimension_two(self):
        ob = standard_basis(2)
        assert ob.star(e(2, 1)) == e(2, 2)
        assert ob.star(e(2, 2)) == -1 * e(2, 1)

    def test_double_star_sign(self):
        rng = random.Random(5)
        for n in (2, 3, 4):
            ob = standard_basis(n)
            for k in range(n + 1):
                a = rand_extensor(rng, n, k)
                assert ob.star(ob.star(a)) == (-1) ** (k * (n - k)) * a

    def test_orthogonal_transition_preserves_star(self):
        # a rational rotation: columns (3/5, 4/5), (-4/5, 3/5)
        rot = OrderedBasis([(Fraction(3, 5), Fraction(4, 5)),
                            (Fraction(-4, 5), Fraction(3, 5))])
        std = standard_basis(2)
        for word in ((), (1,), (2,), (1, 2)):
            x = ExteriorElement.monomial(2, word)
            assert rot.star(x) == std.star(x)

    def test_non_orthogonal_transition_changes_star(self):
        skew = OrderedBasis([(1, 0), (1, 1)])
        std = standard_basis(2)
        words = ((), (1,), (2,), (1, 2))
        assert any(skew.star(ExteriorElement.monomial(2, w)) !=
                   std.star(ExteriorElement.monomial(2, w)) for w in words)

    def test_star_commutation_with_diamonds(self):
        rng = random.Random(6)
        for _ in range(30):
            n = rng.choice((3, 4))
            ob = standard_basis(n)
            a = rand_extensor(rng, n, rng.randint(0, n))
            b = rand_extensor(rng, n, rng.randint(0, n))
            h = rng.randint(0, n)
            t = TensorPowerElement.from_elements([a, b])
            lhs = ob.star_tensor(diamond(h, 2, 1, t))
            rhs = diamond(h, 1, 2, ob.star_tensor(t)).scale(
                (-1) ** (h * (a.step() + b.step() - n)))
            assert lhs == rhs

    def test_star_is_inclusion_reversing(self):
        rng = random.Random(7)
        ob = standard_basis(4)
        for _ in range(40):
            a = rand_extensor(rng, 4, rng.randint(1, 3))
            b = rand_extensor(rng, 4, rng.randint(1, 3))
            assert contains(a, b) == contains(ob.star(b), ob.star(a))

    def test_duality_with_weighting(self):
        rng = random.Random(8)
        for _ in range(30):
            n = rng.choice((3, 4))
            # non-unimodular ambient integral against a random basis
            while True:
                vecs = [rand_vector(rng, n) for _ in range(n)]
                if make_extensor(vecs, n):
                    break
            ob = OrderedBasis(vecs)
            ps = PeanoSpace.standard(n, rng.choice((1, 2, 3)))
            fb = ps.bracket_element(ob.F)
            a = rand_extensor(rng, n, rng.randint(0, n))
            b = rand_extensor(rng, n, rng.randint(0, n))
            assert fb * ob.star(a.wedge(b)) == ps.meet(ob.star(a), ob.star(b))
            assert (1 / fb) * ob.star(ps.meet(a, b)) == ob.star(a).wedge(ob.star(b))

    def test_duality_unimodular(self):
        rng = random.Random(9)
        for _ in range(20):
            n = rng.choice((3, 4))
            while True:
                vecs = [rand_vector(rng, n) for _ in range(n)]
                if make_extensor(vecs, n):
                    break
            ob = OrderedBasis(vecs)
            ps = ob.peano()
            a = rand_extensor(rng, n, rng.randint(0, n))
            b = rand_extensor(rng, n, rng.randint(0, n))
            assert ob.star(a.wedge(b)) == ps.meet(ob.star(a), ob.star(b))
            assert ob.star(ps.meet(a, b)) == ob.star(a).wedge(ob.star(b))
