"""Acceptance gate: one test per criterion, each printing a PASS line.

Every check is exact (rational arithmetic, zero tolerance).  Seeds are
fixed so the whole gate is reproducible; run with ``pytest -v -s`` to
see the per-criterion lines.
"""

import json
import random
import time
from fractions import Fraction
from itertools import combinations
from math import comb, factorial

from extensor import linalg
from extensor.bitableau import (BitableauElement, is_standard,
                                shuffle_identity_sides, straighten)
from extensor.cg_algebra import OrderedBasis, PeanoSpace, standard_basis
from extensor.cli import Environment, Evaluator, _max_place, main, parse
from extensor.exterior import ExteriorElement, make_extensor
from extensor.identity_suite import (capelli_suite, desargues_suite,
                                     distributive_suite, alternative_suite,
                                     modular_suite, rand_extensor,
                                     rand_fraction, rand_vector)
from extensor.letterplace import (LetterplaceElement, expand_raw, phi, phi_inv,
                                  polarize, polarize_divided)
from extensor.span_invariants import (in_span, left_span, minimal_representation,
                                      right_span)
from extensor.tensor_power import (TensorPowerElement, contains, diamond,
                                   meet_join_factor)
from extensor.whitney import (Matroid, WhitneyElement, exchange_sides,
                              ideal_membership_bruteforce, represent,
                              wh_normal_form)

LETTERS = "abcde"

SIX_POINT_COLUMNS = {
    "a": (1, 0, 0), "b": (0, 1, 0), "c": (0, 0, 1),
    "d": (1, 1, 0), "e": (1, 0, 1), "f": (0, 1, 1),
}


def _ok(num, label):
    print(f"ACCEPTANCE {num:02d} PASS {label}")


def test_criterion_01_meet_consistency():
    rng = random.Random(101)
    for _ in range(200):
        n = rng.choice((3, 4))
        ps = PeanoSpace.standard(n, rng.choice((1, 2)))
        a = rand_extensor(rng, n, rng.randint(0, n))
        b = rand_extensor(rng, n, rng.randint(0, n))
        assert ps.meet(a, b, "left") == ps.meet(a, b, "right")
    _ok(1, "meet: both slice expansions agree on 200 random pairs, n in {3,4}")


def test_criterion_02_example_fidelity():
    rng = random.Random(102)
    # intersection point of two lines in the plane
    ps = PeanoSpace.standard(3)
    for _ in range(25):
        p1, p2, q1, q2 = (rand_vector(rng, 3) for _ in range(4))
        a, b = make_extensor([p1, p2]), make_extensor([q1, q2])
        if not (a and b):
            continue
        want = ps.bracket([p1, q1, q2]) * make_extensor([p2]) - \
            ps.bracket([p2, q1, q2]) * make_extensor([p1])
        assert ps.meet(a, b) == want

    # coplanar lines in dimension 4: expansion and its factorization
    done = 0
    while done < 25:
        p2, q1, q2 = (rand_vector(rng, 4) for _ in range(3))
        lam = Fraction(rng.randint(1, 3), rng.choice((1, 2)))
        mu, nu = rand_fraction(rng), rand_fraction(rng)
        p1 = tuple(lam * x + mu * y + nu * z for x, y, z in zip(p2, q1, q2))
        a, b = make_extensor([p1, p2]), make_extensor([q1, q2])
        if not (a and b) or linalg.rank([list(v) for v in (p1, p2, q1, q2)]) != 3:
            continue
        t = diamond(1, 2, 1, TensorPowerElement.from_elements([a, b]))
        direct = TensorPowerElement.from_elements(
            [make_extensor([p1]), make_extensor([p2, q1, q2])]) - \
            TensorPowerElement.from_elements(
                [make_extensor([p2]), make_extensor([p1, q1, q2])])
        assert t == direct
        c, d, p = meet_join_factor(a, b)
        assert p == 1
        # the scalar lam' with p1 q1 q2 = lam' p2 q1 q2 gives u = p1 - lam' p2
        top = make_extensor([p2, q1, q2])
        num = make_extensor([p1, q1, q2])
        lead = min(top.terms, key=lambda w: (len(w), w))
        lam2 = num.terms.get(lead, Fraction(0)) / top.terms[lead]
        u = make_extensor([p1]) - lam2 * make_extensor([p2])
        lead_u = min(u.terms, key=lambda w: (len(w), w))
        assert c == (1 / u.terms[lead_u]) * u
        assert t == TensorPowerElement.from_elements([c, d])
        done += 1

    # skew lines in dimension 4: spans of the non-decomposable product
    done = 0
    while done < 25:
        vecs = [rand_vector(rng, 4) for _ in range(4)]
        if linalg.rank([list(v) for v in vecs]) != 4:
            continue
        p1, p2, q1, q2 = vecs
        t = diamond(1, 2, 1, TensorPowerElement.from_elements(
            [make_extensor([p1, p2]), make_extensor([q1, q2])]))
        rep = minimal_representation(t)
        assert rep.rank == 2
        ls = left_span(t)
        assert in_span(make_extensor([p1]), ls) and in_span(make_extensor([p2]), ls)
        rs = right_span(t)
        assert in_span(make_extensor([p2, q1, q2]), rs)
        assert in_span(make_extensor([p1, q1, q2]), rs)
        done += 1
    _ok(2, "displayed examples reproduced on random rational instances")


def test_criterion_03_factorization_and_spans():
    n = 4
    words = [w for size in range(n + 1)
             for w in combinations(range(1, n + 1), size)]
    for wa in words:
        for wb in words:
            a = ExteriorElement.monomial(n, wa)
            b = ExteriorElement.monomial(n, wb)
            p = len(set(wa) | set(wb)) - len(wb)
            c, d, got_p = meet_join_factor(a, b)
            assert got_p == p
            inter = tuple(sorted(set(wa) & set(wb)))
            union = tuple(sorted(set(wa) | set(wb)))
            assert c == ExteriorElement.monomial(n, inter)
            if inter:
                assert contains(c, a) and contains(c, b)
            assert contains(a, d) and contains(b, d)
            assert d.terms.keys() == {union}
            t = TensorPowerElement.from_elements([a, b])
            assert not diamond(p + 1, 2, 1, t)
            for h in range(p + 1):
                rep = minimal_representation(diamond(h, 2, 1, t))
                assert rep.rank == comb(p, h)
                assert len(left_span(diamond(h, 2, 1, t))) == comb(p, h)
                assert len(right_span(diamond(h, 2, 1, t))) == comb(p, h)
    _ok(3, "top factorization, vanishing above p, and C(p,h) span "
           "dimensions on all 256 canonical pairs, n=4")


def test_criterion_04_star_diamond_commutation():
    n = 3
    basis = standard_basis(n)
    words = [w for size in range(n + 1)
             for w in combinations(range(1, n + 1), size)]
    count = 0
    for wa in words:
        for wb in words:
            a = ExteriorElement.monomial(n, wa)
            b = ExteriorElement.monomial(n, wb)
            t = TensorPowerElement.from_elements([a, b])
            for h in range(n + 1):
                lhs = basis.star_tensor(diamond(h, 2, 1, t))
                rhs = diamond(h, 1, 2, basis.star_tensor(t)).scale(
                    (-1) ** (h * (len(wa) + len(wb) - n)))
                assert lhs == rhs
                count += 1
    assert count == 64 * 4
    rng = random.Random(104)
    while True:
        vecs = [rand_vector(rng, 4) for _ in range(4)]
        if make_extensor(vecs, 4):
            break
    basis4 = OrderedBasis(vecs)
    for _ in range(100):
        a = rand_extensor(rng, 4, rng.randint(0, 4))
        b = rand_extensor(rng, 4, rng.randint(0, 4))
        h = rng.randint(0, 4)
        t = TensorPowerElement.from_elements([a, b])
        lhs = basis4.star_tensor(diamond(h, 2, 1, t))
        rhs = diamond(h, 1, 2, basis4.star_tensor(t)).scale(
            (-1) ** (h * (a.step() + b.step() - 4)))
        assert lhs == rhs
    _ok(4, "star/diamond sign commutation: exhaustive n=3 (256 instances) "
           "plus 100 random pairs n=4")


def test_criterion_05_recovery_and_duality():
    rng = random.Random(105)
    for _ in range(200):
        n = rng.choice((3, 4))
        ps = PeanoSpace.standard(n, rng.choice((1, 2, 3)))
        e = ps.integral
        a = rand_extensor(rng, n, rng.randint(0, n))
        b = rand_extensor(rng, n, rng.randint(0, n))
        sa, sb = a.step(), b.step()
        t = TensorPowerElement.from_elements([a, b])
        meet = ps.meet(a, b)
        assert diamond(n - sb, 2, 1, t) == \
            TensorPowerElement.from_elements([meet, e]).scale(
                (-1) ** ((sa + sb - n) * (n - sb)))
        assert diamond(n - sa, 1, 2, t) == \
            TensorPowerElement.from_elements([e, meet]).scale(
                (-1) ** ((sa + sb - n) * (n - sa)))
        assert diamond(sa, 2, 1, t) == TensorPowerElement.from_elements(
            [ExteriorElement.unit(n), a.wedge(b)])
        while True:
            vecs = [rand_vector(rng, n) for _ in range(n)]
            if make_extensor(vecs, n):
                break
        ob = OrderedBasis(vecs)
        fb = ps.bracket_element(ob.F)
        assert fb * ob.star(a.wedge(b)) == ps.meet(ob.star(a), ob.star(b))
        assert (1 / fb) * ob.star(ps.meet(a, b)) == ob.star(a).wedge(ob.star(b))
        ups = ob.peano()   # unimodular: the integral is F itself
        assert ob.star(a.wedge(b)) == ups.meet(ob.star(a), ob.star(b))
        assert ob.star(ups.meet(a, b)) == ob.star(a).wedge(ob.star(b))
    _ok(5, "join/meet recovery and star duality (weighted and unimodular) "
           "on 200 random instances")


def _rand_lp(rng, m, nterms=3):
    out = LetterplaceElement.zero(m)
    for _ in range(nterms):
        k = rng.randint(0, 3)
        seq = [(rng.choice(LETTERS), rng.randint(1, m)) for _ in range(k)]
        out = out + LetterplaceElement.from_vars(m, seq, rng.randint(-3, 3))
    return out


def test_criterion_06_letterplace_laws():
    rng = random.Random(106)
    for _ in range(500):
        m = rng.randint(2, 4)
        e = _rand_lp(rng, m)
        k, h, j, i = (rng.randint(1, m) for _ in range(4))
        lhs = polarize(k, h, polarize(j, i, e)) - polarize(j, i, polarize(k, h, e))
        rhs = LetterplaceElement.zero(m)
        if h == j:
            rhs = rhs + polarize(k, i, e)
        if k == i:
            rhs = rhs - polarize(j, h, e)
        assert lhs == rhs

        word = tuple(sorted(rng.sample(LETTERS, rng.randint(1, 4))))
        qi = rng.randint(0, len(word))
        qj = rng.randint(0, len(word) - qi)
        q1 = len(word) - qi - qj
        src, dst = 2, 3
        degs = {1: q1, src: qi, dst: qj}
        hh = rng.randint(0, 4)
        el = expand_raw(word, degs, 4)
        iterated = el
        for _ in range(hh):
            iterated = polarize(dst, src, iterated)
        moved = {1: q1, src: qi - hh, dst: qj + hh}
        if hh <= qi:
            assert iterated == expand_raw(word, moved, 4).scale(
                factorial(qj + hh) // factorial(qj))
            assert polarize_divided(hh, dst, src, el) == \
                expand_raw(word, moved, 4).scale(comb(qj + hh, qj))
        else:
            assert not iterated
            assert not polarize_divided(hh, dst, src, el)

        w1 = tuple(sorted(rng.sample(LETTERS, rng.randint(1, 3))))
        w2 = tuple(sorted(rng.sample(LETTERS, rng.randint(1, 3))))
        d1 = {1: len(w1)} if rng.random() < 0.5 else \
            {1: len(w1) - len(w1) // 2, 2: len(w1) // 2}
        d2 = {2: len(w2)} if rng.random() < 0.5 else \
            {1: len(w2) // 2, 2: len(w2) - len(w2) // 2}
        x = expand_raw(w1, d1, m if m >= 2 else 2)
        y = expand_raw(w2, d2, m if m >= 2 else 2)
        assert x * y == (y * x).scale((-1) ** (len(w1) * len(w2)))

        i2, j2 = rng.sample(range(1, m + 1), 2)
        h2 = rng.randint(0, 3)
        assert phi(polarize_divided(h2, j2, i2, e)) == \
            diamond(h2, j2, i2, phi(e))
        assert phi_inv(phi(e)) == e
    _ok(6, "polarization commutation, factorial and binomial divided-power "
           "laws, biproduct anticommutation, and the regrouping "
           "intertwiner on 500 random instances")


def test_criterion_07_straightening():
    rng = random.Random(107)

    def rand_deg(rng, total, m):
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

    for _ in range(100):
        m = rng.randint(2, 3)
        w1 = tuple(sorted(rng.sample(LETTERS, rng.randint(1, 4))))
        w2 = tuple(sorted(rng.sample(LETTERS, rng.randint(1, 4))))
        b = BitableauElement.single(
            m, [(w1, rand_deg(rng, len(w1), m)), (w2, rand_deg(rng, len(w2), m))])
        s = straighten(b, budget=10 ** 6)
        assert all(is_standard(rows) for rows in s.terms)
        assert s.to_letterplace() == b.to_letterplace()

    for _ in range(50):
        m = rng.randint(2, 3)
        u = tuple(rng.choice(LETTERS) for _ in range(rng.randint(0, 3)))
        v = tuple(rng.choice(LETTERS) for _ in range(rng.randint(0, 3)))
        w = tuple(rng.choice(LETTERS) for _ in range(rng.randint(0, 2)))
        pdeg = rand_deg(rng, rng.randint(0, 4), m)
        qdeg = rand_deg(rng, rng.randint(0, 4), m) or {1: 0}
        lhs, rhs = shuffle_identity_sides(u, v, w, pdeg, qdeg, m)
        assert lhs == rhs
        i2, j2 = rng.sample(range(1, m + 1), 2)
        p2 = rng.randint(0, 4)
        q2 = rng.randint(0, 4)
        lhs2, rhs2 = shuffle_identity_sides(u, v, w, {i2: p2}, {j2: q2}, m)
        assert lhs2 == rhs2
    _ok(7, "straightening terminates standard and value-preserving on 100 "
           "two-row products; the two-row identity and its single-place "
           "form hold verbatim on 50 instances")


def test_criterion_08_whitney():
    t0 = time.time()
    matroids = [Matroid.uniform(3, 2), Matroid.uniform(4, 2),
                Matroid.uniform(4, 3), Matroid.linear(SIX_POINT_COLUMNS)]
    for matroid in matroids:
        words = list(matroid.independent_sorted_words(3))
        for u in words:
            for v in words:
                lhs, rhs = exchange_sides(u, v, matroid)
                diff = lhs - rhs
                nf_zero = not wh_normal_form(WhitneyElement(matroid, diff))
                member = ideal_membership_bruteforce(diff, matroid)
                assert nf_zero == member     # the two routes agree
                assert nf_zero               # and the relation holds
        for word in matroid.dependent_sorted_words(4):
            for first in range(len(word) + 1):
                gen = expand_raw(word, {1: first, 2: len(word) - first}, 2)
                if not gen:
                    continue
                for h in range(5):
                    for (j, i) in ((1, 2), (2, 1)):
                        img = polarize_divided(h, j, i, gen)
                        assert not wh_normal_form(WhitneyElement(matroid, img))
    elapsed = time.time() - t0
    assert elapsed < 60
    _ok(8, f"exchange relations, oracle agreement, and ideal invariance over "
           f"four matroids in {elapsed:.1f}s")


def test_criterion_09_identity_suite():
    reports = []
    reports += desargues_suite(109, trials=100)
    assert len(reports) == 105
    reports += alternative_suite(109)
    reports += distributive_suite(109)
    reports += modular_suite(109, trials=50)
    reports += capelli_suite(109)
    bad = [r for r in reports if not r.equal]
    assert not bad, bad[:3]
    _ok(9, f"identity suite: {len(reports)} verifier instances, zero failures")


def test_criterion_10_representation_morphism():
    rng = random.Random(110)
    matroid = Matroid.linear(SIX_POINT_COLUMNS)
    for _ in range(100):
        m = rng.randint(2, 3)
        e = LetterplaceElement.zero(m)
        for _ in range(3):
            k = rng.randint(0, 3)
            seq = [(rng.choice(matroid.ground), rng.randint(1, m))
                   for _ in range(k)]
            e = e + LetterplaceElement.from_vars(m, seq, rng.randint(-3, 3))
        we = WhitneyElement(matroid, e)
        image = represent(SIX_POINT_COLUMNS, we)
        for i in range(1, m + 1):
            for j in range(1, m + 1):
                if i == j:
                    continue
                for h in range(3):
                    lhs = represent(SIX_POINT_COLUMNS, WhitneyElement(
                        matroid, polarize_divided(h, j, i, e)))
                    assert lhs == diamond(h, j, i, image)
    for word in matroid.dependent_sorted_words(4):
        gen = expand_raw(word, {1: len(word) - 1, 2: 1}, 2)
        assert not represent(SIX_POINT_COLUMNS, WhitneyElement(matroid, gen))
    _ok(10, "the induced morphism commutes with every geometric product on "
            "100 random elements and kills the defining ideal")


def test_criterion_11_cli(tmp_path, capsys):
    from test_cli import TestRoundTrip
    env = Environment(dim=3)
    assert len(TestRoundTrip.CORPUS) == 30
    for text in TestRoundTrip.CORPUS:
        node = parse(text)
        value = Evaluator(env, m=_max_place(node)).eval(node)
        printed = str(value)
        node2 = parse(printed)
        again = Evaluator(env, m=_max_place(node2)).eval(node2)
        assert str(again) == printed

    assert main(["verify", "meet", "--seed", "9", "--json"]) == 0
    first = capsys.readouterr().out.encode()
    assert main(["verify", "meet", "--seed", "9", "--json"]) == 0
    second = capsys.readouterr().out.encode()
    assert first == second

    assert main(["eval", "-e", "e1 ^"]) == 2
    capsys.readouterr()
    doc = {"kind": "uniform", "n": 3, "k": 2}
    path = tmp_path / "u32.json"
    path.write_text(json.dumps(doc))
    assert main(["matroid", str(path), "exchange", "--max-word", "2"]) == 0
    capsys.readouterr()
    _ok(11, "30-expression round trip, byte-identical seeded reports, and "
            "documented exit codes")
