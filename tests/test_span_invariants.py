import random
from fractions import Fraction

import pytest

from extensor import linalg, span_invariants
from extensor.cg_algebra import standard_basis
from extensor.exterior import (DimensionMismatch, ExteriorElement, make_extensor,
                               unit_vector)
from extensor.span_invariants import (GeneralizedHodge, dagger_representation,
                                      generalized_hodge, geometric_product_sum,
                                      in_span, left_span, minimal_representation,
                                      pairing_beta, right_span,
                                      MinimalRepresentation)
from extensor.tensor_power import TensorPowerElement, contains, diamond


def rand_fraction(rng):
    return Fraction(rng.randint(-4, 4), rng.choice((1, 2, 3)))


def rand_vector(rng, n):
    return tuple(rand_fraction(rng) for _ in range(n))


def rand_tensor(rng, n, nterms=3):
    out = TensorPowerElement.zero(n, 2)
    for _ in range(nterms):
        key = tuple(tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
                    for _ in range(2))
        out = out + TensorPowerElement(n, 2, {key: rand_fraction(rng)})
    return out


def spanning_lines(rng, n, k):
    while True:
        vecs = [rand_vector(rng, n) for _ in range(k)]
        if linalg.rank([list(v) for v in vecs]) == k:
            return vecs


class TestMinimalRepresentation:
    def test_skew_lines_have_rank_two(self):
        rng = random.Random(0)
        p1, p2, q1, q2 = spanning_lines(rng, 4, 4)
        a = make_extensor([p1, p2])
        b = make_extensor([q1, q2])
        t = diamond(1, 2, 1, TensorPowerElement.from_elements([a, b]))
        rep = minimal_representation(t)
        assert rep.rank == 2
        ls = left_span(t)
        assert in_span(make_extensor([p1]), ls)
        assert in_span(make_extensor([p2]), ls)
        rs = right_span(t)
        assert in_span(make_extensor([p2, q1, q2]), rs)
        assert in_span(make_extensor([p1, q1, q2]), rs)

    def test_decomposable_has_rank_one(self):
        rng = random.Random(1)
        a = make_extensor(spanning_lines(rng, 4, 2))
        b = make_extensor(spanning_lines(rng, 4, 1))
        rep = minimal_representation(TensorPowerElement.from_elements([a, b]))
        assert rep.rank == 1
        assert in_span(a, rep.lefts)

    def test_zero_tensor(self):
        rep = minimal_representation(TensorPowerElement.zero(3, 2))
        assert rep.rank == 0

    def test_reconstruction_and_independence(self):
        rng = random.Random(2)
        for _ in range(20):
            t = rand_tensor(rng, 4)
            rep = minimal_representation(t)
            assert rep.tensor() == t
            if rep.rank:
                words = sorted({w for e in rep.lefts for w in e.terms})
                rows = [[e.terms.get(w, Fraction(0)) for w in words]
                        for e in rep.lefts]
                assert linalg.rank(rows) == rep.rank

    def test_rejects_three_folds(self):
        with pytest.raises(ValueError):
            minimal_representation(TensorPowerElement.unit(3, 3))


class TestLastFactorization:
    """minimal_representation keeps the last tensor it factored."""

    @pytest.fixture
    def factorizations(self, monkeypatch):
        calls = []
        real = span_invariants._rank_factor_pairs

        def counted(t):
            calls.append(t)
            return real(t)
        monkeypatch.setattr(span_invariants, "_rank_factor_pairs", counted)
        return calls

    def test_spans_are_the_representation_factors(self):
        rng = random.Random(3)
        for _ in range(10):
            t = rand_tensor(rng, 4)
            rep = minimal_representation(t)
            assert left_span(t) == rep.lefts
            assert right_span(t) == rep.rights

    def test_criterion_03_triple_factors_once(self, factorizations):
        a = make_extensor([(1, 2, 0, 1), (0, 1, 3, 1)])
        b = make_extensor([(1, 0, 1, 2), (2, 1, 0, 0)])
        g = diamond(1, 2, 1, TensorPowerElement.from_elements([a, b]))
        rep = minimal_representation(g)
        lefts, rights = left_span(g), right_span(g)
        assert len(factorizations) == 1
        assert rep.rank == len(lefts) == len(rights) == 2

    def test_alternating_tensors_get_their_own_representation(self, factorizations):
        rng = random.Random(4)
        s, t = rand_tensor(rng, 4), rand_tensor(rng, 4)
        want = {id(x): minimal_representation(x) for x in (s, t)}
        for x in (s, t, s, t):
            assert minimal_representation(x) == want[id(x)]
            assert minimal_representation(x).tensor() == x
        assert len(factorizations) == 6

    def test_equal_tensor_of_another_identity_is_factored_again(self, factorizations):
        rng = random.Random(5)
        t = rand_tensor(rng, 4)
        copy = TensorPowerElement(t.dim, 2, t.terms)
        assert minimal_representation(t) == minimal_representation(copy)
        assert len(factorizations) == 2

    def test_a_failed_factorization_raises_and_is_not_kept(self, monkeypatch):
        rng = random.Random(6)
        t = rand_tensor(rng, 4)
        while not t:
            t = rand_tensor(rng, 4)
        real = span_invariants._rank_factor_pairs
        wrong = (ExteriorElement.unit(4), ExteriorElement.monomial(4, (1,)))
        monkeypatch.setattr(span_invariants, "_rank_factor_pairs",
                            lambda t: [wrong])
        with pytest.raises(AssertionError):
            minimal_representation(t)
        calls = []

        def counted(t):
            calls.append(t)
            return real(t)
        monkeypatch.setattr(span_invariants, "_rank_factor_pairs", counted)
        assert minimal_representation(t).tensor() == t
        assert calls == [t]


class TestDimensionChecks:
    def test_generalized_hodge_refuses_another_dimension(self):
        a = ExteriorElement.monomial(3, (1, 2))
        b = ExteriorElement.monomial(3, (3,))
        star = GeneralizedHodge(minimal_representation(
            TensorPowerElement.from_elements([a, b])))
        assert star(a) == b
        with pytest.raises(DimensionMismatch):
            star(ExteriorElement.monomial(4, (1, 2)))

    def test_in_span_refuses_another_dimension(self):
        assert in_span(ExteriorElement.monomial(3, (1,)),
                       [ExteriorElement.monomial(3, (1,))])
        with pytest.raises(DimensionMismatch):
            in_span(ExteriorElement.monomial(4, (1,)),
                    [ExteriorElement.monomial(3, (1,))])

    def test_pure_tensors_refuse_a_factor_of_another_dimension(self):
        a3, a4 = ExteriorElement.monomial(3, (1,)), ExteriorElement.monomial(4, (1,))
        with pytest.raises(DimensionMismatch):
            TensorPowerElement.from_elements([a3, a4])
        with pytest.raises(DimensionMismatch):
            MinimalRepresentation(((a3, a3), (a3, a4)), 3).tensor()
        with pytest.raises(DimensionMismatch):
            TensorPowerElement.from_elements([a3, a3]).map_folds(
                lambda x: ExteriorElement.monomial(4, next(iter(x.num))))


class TestRepresentationFacts:
    def test_right_independent_left_span_is_minimal(self):
        # the left span of the rank factorization sits inside the left
        # span of any representation, here a genuinely redundant one
        rng = random.Random(3)
        for _ in range(15):
            t = rand_tensor(rng, 3)
            rep = minimal_representation(t)
            if rep.rank < 2:
                continue
            (l0, r0), (l1, r1) = rep.pairs[0], rep.pairs[1]
            rho = ExteriorElement.monomial(3, (1,), rand_fraction(rng)) + \
                ExteriorElement.monomial(3, (2, 3), rand_fraction(rng))
            redundant = [(l0, r0 - rho), (l1, r1 - rho), (l0 + l1, rho)] + \
                list(rep.pairs[2:])
            total = TensorPowerElement.zero(3, 2)
            for l, r in redundant:
                total = total + TensorPowerElement.from_elements([l, r])
            assert total == t
            for left in rep.lefts:
                assert in_span(left, [l for l, _ in redundant])

    def test_minimal_count_implies_independent(self):
        rng = random.Random(4)
        for _ in range(15):
            t = rand_tensor(rng, 3)
            rep = minimal_representation(t)
            # any representation with the same number of summands has
            # independent factor lists; check our own
            if rep.rank:
                words = sorted({w for e in rep.rights for w in e.terms})
                rows = [[e.terms.get(w, Fraction(0)) for w in words]
                        for e in rep.rights]
                assert linalg.rank(rows) == rep.rank

    def test_transition_compensation_keeps_tensor(self):
        rng = random.Random(5)
        for _ in range(10):
            t = rand_tensor(rng, 3)
            rep = minimal_representation(t)
            r = rep.rank
            if r < 2:
                continue
            while True:
                tmat = [[rand_fraction(rng) for _ in range(r)] for _ in range(r)]
                try:
                    tinv = linalg.invert(tmat)
                    break
                except ValueError:
                    continue
            lefts = [sum((tmat[i][j] * rep.lefts[i] for i in range(r)),
                         ExteriorElement.zero(3)) for j in range(r)]
            rights = [sum((tinv[j][i] * rep.rights[i] for i in range(r)),
                          ExteriorElement.zero(3)) for j in range(r)]
            total = TensorPowerElement.zero(3, 2)
            for l, rr in zip(lefts, rights):
                total = total + TensorPowerElement.from_elements([l, rr])
            assert total == t

    def test_orthogonal_transition_preserves_map(self):
        rng = random.Random(6)
        vecs = spanning_lines(rng, 4, 3)
        rep = dagger_representation(vecs[:2], [vecs[2]])
        r = rep.rank
        # a signed permutation is orthogonal
        perm = list(range(r))
        rng.shuffle(perm)
        signs = [rng.choice((1, -1)) for _ in range(r)]
        lefts = [signs[i] * rep.lefts[perm[i]] for i in range(r)]
        rights = [signs[i] * rep.rights[perm[i]] for i in range(r)]
        rep2 = MinimalRepresentation(tuple(zip(lefts, rights)), rep.dim)
        assert rep2.tensor() == rep.tensor()
        phi1 = generalized_hodge(rep)
        phi2 = generalized_hodge(rep2)
        for left in rep.lefts:
            assert phi1(left) == phi2(left)

    def test_non_orthogonal_transition_changes_map(self):
        rng = random.Random(7)
        vecs = spanning_lines(rng, 4, 3)
        rep = dagger_representation(vecs[:2], [vecs[2]])
        r = rep.rank
        tmat = [[Fraction(int(i == j)) for j in range(r)] for i in range(r)]
        tmat[0][0] = Fraction(2)   # scaling is not orthogonal
        tinv = linalg.invert(tmat)
        lefts = [sum((tmat[i][j] * rep.lefts[i] for i in range(r)),
                     ExteriorElement.zero(4)) for j in range(r)]
        rights = [sum((tinv[j][i] * rep.rights[i] for i in range(r)),
                      ExteriorElement.zero(4)) for j in range(r)]
        rep2 = MinimalRepresentation(tuple(zip(lefts, rights)), rep.dim)
        assert rep2.tensor() == rep.tensor()
        phi1 = generalized_hodge(rep)
        phi2 = generalized_hodge(rep2)
        assert any(phi1(l) != phi2(l) for l in rep.lefts)


class TestDaggerOperator:
    def test_full_basis_gives_the_hodge_star(self):
        for n in (2, 3):
            basis_vectors = [unit_vector(n, i) for i in range(1, n + 1)]
            rep = dagger_representation(basis_vectors, [], dim=n)
            star = generalized_hodge(rep)
            ob = standard_basis(n)
            from itertools import combinations
            for size in range(n + 1):
                for word in combinations(range(1, n + 1), size):
                    x = ExteriorElement.monomial(n, word)
                    assert star(x) == ob.star(x)

    def test_rank_one_maps_a_to_b(self):
        rng = random.Random(8)
        avecs = spanning_lines(rng, 3, 2)
        while True:
            v = rand_vector(rng, 3)
            if linalg.rank([list(avecs[0]), list(avecs[1]), list(v)]) == 3:
                bvec = [v]
                break
        a = make_extensor(avecs)
        b = make_extensor(bvec)
        # with disjoint spans the subword representation has (A, B) as
        # its top pair, and the operator maps the one to the other
        rep = dagger_representation(avecs, bvec)
        star = generalized_hodge(rep)
        top = max(rep.pairs, key=lambda lr: lr[0].step())
        assert top[0] == a
        assert star(a) == top[1]
        assert not star(a).wedge(b)   # proportional to B

    def test_antitone_on_divisible_pairs(self):
        rng = random.Random(9)
        vecs = spanning_lines(rng, 4, 3)
        rep = dagger_representation(vecs[:2], [vecs[2]])
        star = generalized_hodge(rep)
        lefts = rep.lefts
        for x in lefts:
            for y in lefts:
                if not (x.step() and y.step()):
                    continue
                if contains(x, y):
                    assert contains(star(y), star(x))

    def test_outside_span_rejected(self):
        rng = random.Random(10)
        vecs = spanning_lines(rng, 3, 2)
        rep = dagger_representation([vecs[0]], [vecs[1]])
        star = generalized_hodge(rep)
        with pytest.raises(ValueError):
            star(ExteriorElement.monomial(3, (1, 2, 3)))


class TestPairingBeta:
    def test_delta_on_subword_pairs(self):
        rng = random.Random(11)
        vecs = spanning_lines(rng, 4, 4)
        rep = dagger_representation(vecs[:3], vecs[3:])
        t = rep.tensor()
        c = rep.pairs[0][0]
        for i, (li, _) in enumerate(rep.pairs):
            for j, (_, rj) in enumerate(rep.pairs):
                assert pairing_beta(t, li, rj, c) == (1 if i == j else 0)

    def test_value_does_not_depend_on_representation(self):
        rng = random.Random(12)
        vecs = spanning_lines(rng, 4, 3)
        rep = dagger_representation(vecs[:2], [vecs[2]])
        t = rep.tensor()
        c = rep.pairs[0][0]
        x = rep.lefts[1] + rep.lefts[2]
        y = rep.rights[1] - 2 * rep.rights[2]
        # recompute the tensor through an unrelated route and pair again
        a = make_extensor(vecs[:2])
        b = make_extensor([vecs[2]])
        t2 = geometric_product_sum(a, b)
        assert t2 == t
        assert pairing_beta(t2, x, y, c) == pairing_beta(t, x, y, c)

    def test_decomposable_normalization(self):
        rng = random.Random(13)
        vecs = spanning_lines(rng, 4, 3)
        a = make_extensor(vecs[:2])
        b = make_extensor([vecs[2]])
        t = TensorPowerElement.from_elements([a, b])
        # single-pair representation: C = A, D = B at h = 0 component
        assert pairing_beta(t, a, b, a) == 1

    def test_cap_product(self):
        n = 3
        basis_vectors = [unit_vector(n, i) for i in range(1, n + 1)]
        rep = dagger_representation(basis_vectors, [], dim=n)
        t = rep.tensor()
        c = ExteriorElement.unit(n)
        ob = standard_basis(n)
        ps = ob.peano()
        from itertools import combinations
        words = [w for size in range(n + 1)
                 for w in combinations(range(1, n + 1), size)]
        for wx in words:
            for wy in words:
                x = ExteriorElement.monomial(n, wx)
                y = ExteriorElement.monomial(n, wy)
                got = pairing_beta(t, x, y, c)
                if len(wx) + len(wy) == n:
                    assert got == ps.bracket_element(x.wedge(y))
                else:
                    assert got == 0

    def test_outside_span_rejected(self):
        rng = random.Random(14)
        vecs = spanning_lines(rng, 3, 2)
        rep = dagger_representation([vecs[0]], [vecs[1]])
        t = rep.tensor()
        with pytest.raises(ValueError):
            pairing_beta(t, ExteriorElement.monomial(3, (1, 2, 3)),
                         rep.rights[0], rep.pairs[0][0])
