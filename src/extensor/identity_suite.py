"""Executable verifiers for the classical identities.

Each verifier evaluates both sides of one identity exactly on a given
instance and returns a structured report; the suite runners draw their
instances from a seeded generator, so a fixed seed reproduces the exact
list.  Generic-point identities are checked at random rational points,
the formal ones live in the letterplace layer.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from functools import reduce
from itertools import combinations, permutations

from .cg_algebra import OrderedBasis, PeanoSpace, standard_basis
from .exterior import ExteriorElement, extensor_span, make_extensor
from .tensor_power import TensorPowerElement, contains, diamond
from .tensorops import _sum_terms
from .words import _compositions, inversions
from . import linalg


@dataclass
class Report:
    identity: str
    instance: str
    lhs: str
    rhs: str
    equal: bool

    def line(self) -> str:
        status = "PASS" if self.equal else "FAIL"
        return f"{status} {self.identity} [{self.instance}]"

    def to_dict(self) -> dict:
        return {"identity": self.identity, "instance": self.instance,
                "lhs": self.lhs, "rhs": self.rhs, "equal": self.equal}


def _report(identity, instance, lhs, rhs) -> Report:
    return Report(identity, instance, str(lhs), str(rhs), lhs == rhs)


# -- seeded instance generators ---------------------------------------

def rand_fraction(rng) -> Fraction:
    return Fraction(rng.randint(-4, 4), rng.choice((1, 1, 2, 3)))


def rand_vector(rng, n):
    return tuple(rand_fraction(rng) for _ in range(n))


def rand_extensor(rng, n, step) -> ExteriorElement:
    while True:
        e = make_extensor([rand_vector(rng, n) for _ in range(step)], n)
        if e:
            return e


def rand_tensor(rng, n, m, nterms=2) -> TensorPowerElement:
    keys = (tuple(tuple(sorted(rng.sample(range(1, n + 1), rng.randint(0, n))))
                  for _ in range(m)) for _ in range(nterms))
    # each key is drawn just before its coefficient
    return TensorPowerElement(n, m, _sum_terms((key, rand_fraction(rng)) for key in keys))


def rand_basis(rng, n) -> OrderedBasis:
    while True:
        vecs = [rand_vector(rng, n) for _ in range(n)]
        if make_extensor(vecs, n):
            return OrderedBasis(vecs)


def scalar_of(x: ExteriorElement) -> Fraction:
    if any(w for w in x.num):
        raise ValueError("element has positive-step terms")
    return x.scalar_part()


# -- verifiers ---------------------------------------------------------

def verify_desargues(p1, p2, p3, q1, q2, q3) -> Report:
    """Bracket of the three pairwise meets against the concurrence form.

    Exact identity in dimension 3: the three points cut out by the
    corresponding sides are collinear iff the three connecting lines
    are concurrent, with the product of the two triangle brackets as
    the factor.
    """
    ps = PeanoSpace.standard(3)
    pts = [tuple(map(Fraction, v)) for v in (p1, p2, p3, q1, q2, q3)]
    p1, p2, p3, q1, q2, q3 = pts
    line = lambda a, b: make_extensor([a, b], 3)
    x12 = ps.meet(line(p1, p2), line(q1, q2))
    x13 = ps.meet(line(p1, p3), line(q1, q3))
    x23 = ps.meet(line(p2, p3), line(q2, q3))
    lhs = ps.bracket_element(x12.wedge(x13).wedge(x23))
    conc = ps.meet(ps.meet(line(p1, q1), line(p2, q2)), line(p3, q3))
    rhs = -ps.bracket(pts[:3]) * ps.bracket(pts[3:]) * scalar_of(conc)
    inst = "pts=" + ";".join(",".join(str(c) for c in v) for v in pts)
    return _report("desargues", inst, lhs, rhs)


def verify_alternative_r(avecs, bexts, ps: PeanoSpace) -> Report:
    """Meet of a joined point row against covectors versus the permanent
    expansion into scalar meets."""
    n = ps.dim
    r = len(avecs)
    if len(bexts) != r:
        raise ValueError("need as many covectors as vectors")
    aexts = [make_extensor([v], n) for v in avecs]
    for b in bexts:
        if b.step() != n - 1:
            raise ValueError("covectors must have step n-1")
    lhs = ps.meet_chain(make_extensor(avecs, n), *bexts)
    rhs = Fraction(0)
    for sigma in permutations(range(r)):
        term = Fraction(1)
        for i in range(r):
            term *= scalar_of(ps.meet(aexts[sigma[i]], bexts[i]))
        rhs += (-1) ** inversions(sigma) * term
    return _report("alternative-laws-row", f"r={r} n={n}",
                   scalar_of(lhs), rhs)


def verify_distributive(a, b, cexts, ps: PeanoSpace) -> Report:
    """The join-against-meet-chain distributive identity.

    The cosizes q_j = n - step(c_j) must be positive and sum to
    step(a) + step(b).  Both sides are scalars.
    """
    n = ps.dim
    r = len(cexts)
    s, kk = a.step(), b.step()
    qs = [n - c.step() for c in cexts]
    if any(q <= 0 for q in qs) or s + kk != sum(qs):
        raise ValueError("step constraints violated")
    lhs = scalar_of(ps.meet(a.wedge(b), ps.meet_chain(*cexts)))

    def parts():
        for ivec in _compositions(s, qs):
            eps = (-1) ** sum(ivec[h] * (qs[k] - ivec[k])
                              for h in range(r) for k in range(h))
            sl = b.slice(tuple(q - i for q, i in zip(qs, ivec)))
            for key, c in sl.terms.items():
                pieces = (ExteriorElement.monomial(n, w).wedge(cext)
                          for w, cext in zip(key, cexts))
                yield reduce(ps.meet, pieces), eps * c

    rhs = scalar_of(ps.meet(a, ExteriorElement._sum(parts(), n)))
    return _report("alternative-laws-distributive",
                   f"n={n} r={r} steps=({s},{kk}) q={tuple(qs)}", lhs, rhs)


def verify_modular(a, b, c) -> Report:
    """Order of the two geometric products on a divisible triple.

    Requires the first extensor to divide the third; also checks the
    supporting vanishing of the skew product from fold 1 to fold 3.
    """
    if not contains(a, c):
        raise ValueError("first extensor must divide the third")
    # each span is a basis, so only the sums need eliminating
    sa, sb, sc = extensor_span(a), extensor_span(b), extensor_span(c)
    p = linalg.rank(sa + sb) - len(sb)
    q = linalg.rank(sb + sc) - len(sc)
    t = TensorPowerElement.from_elements([a, b, c])
    lhs = diamond(q, 3, 2, diamond(p, 2, 1, t))
    rhs = diamond(p, 2, 1, diamond(q, 3, 2, t))
    vanish = diamond(1, 3, 1, t)
    rep = _report("modular-law", f"steps=({a.step()},{b.step()},{c.step()}) p={p} q={q}",
                  lhs, rhs)
    if vanish:
        rep.equal = False
        rep.instance += " skew-vanishing-failed"
    return rep


def verify_capelli(r: int, t: TensorPowerElement) -> Report:
    """Permanental expansion of the composite polarization operator.

    Folds are laid out 0, 1..r, 1'..r'.  For r = 1 this is the single
    commutation relation; for r = 2 the permanent plus the three queue
    terms, each ending in a product into fold 0.  On tensors with unit
    fold 0 the queues annihilate and the composite equals the permanent.
    """
    if t.m != 2 * r + 1:
        raise ValueError("tensor has the wrong fold layout")
    d = lambda j, i, x: diamond(1, j, i, x)
    if r == 1:
        lhs = d(3, 1, d(1, 2, t))
        rhs = d(3, 2, t) + d(1, 2, d(3, 1, t))
    elif r == 2:
        lhs = d(5, 1, d(4, 1, d(1, 3, d(1, 2, t))))
        per = d(4, 2, d(5, 3, t)) + d(4, 3, d(5, 2, t))
        q1 = d(5, 1, d(1, 3, d(1, 2, d(4, 1, t))))
        q2 = d(4, 2, d(1, 3, d(5, 1, t)))
        q3 = d(1, 2, d(4, 3, d(5, 1, t)))
        rhs = per + q1 + q2 + q3
    else:
        raise ValueError("expansion is tabulated for r = 1 and r = 2 only")
    unit_fold0 = all(not key[0] for key in t.num)
    inst = f"r={r} n={t.dim}" + (" unit-fold0" if unit_fold0 else "")
    rep = _report("capelli-permanental", inst, lhs, rhs)
    if unit_fold0 and r == 2:
        if lhs != per:
            rep.equal = False
            rep.instance += " queues-did-not-vanish"
    return rep


def verify_hodge_diamond(a, b, h: int, basis: OrderedBasis) -> Report:
    """Star of a raising product against the lowering product of stars."""
    n = basis.dim
    sa, sb = a.step(), b.step()
    t = TensorPowerElement.from_elements([a, b])
    lhs = basis.star_tensor(diamond(h, 2, 1, t))
    rhs = diamond(h, 1, 2, basis.star_tensor(t)).scale((-1) ** (h * (sa + sb - n)))
    return _report("star-diamond-commutation", f"n={n} steps=({sa},{sb}) h={h}",
                   lhs, rhs)


# -- suites ------------------------------------------------------------

def desargues_suite(seed: int, trials: int = 100) -> list[Report]:
    rng = random.Random(seed)
    reports = []
    for _ in range(trials):
        reports.append(verify_desargues(*(rand_vector(rng, 3) for _ in range(6))))
    # concurrent configurations: primed points on lines through a center
    for _ in range(2):
        o = rand_vector(rng, 3)
        base = [rand_vector(rng, 3) for _ in range(3)]
        primed = [tuple(x + rng.randint(1, 3) * y for x, y in zip(p, o))
                  for p in base]
        rep = verify_desargues(*base, *primed)
        rep.instance = "concurrent " + rep.instance
        reports.append(rep)
    # degenerate first triangle: third point on the line of the first two
    for _ in range(2):
        p1, p2 = rand_vector(rng, 3), rand_vector(rng, 3)
        p3 = tuple(x + 2 * y for x, y in zip(p1, p2))
        rep = verify_desargues(p1, p2, p3, *(rand_vector(rng, 3) for _ in range(3)))
        rep.instance = "degenerate " + rep.instance
        reports.append(rep)
    # a fixed generic configuration
    reports.append(verify_desargues((1, 0, 0), (0, 1, 0), (0, 0, 1),
                                    (1, 1, 1), (1, 2, 3), (2, 1, 5)))
    return reports


def alternative_suite(seed: int, trials_per: int = 5) -> list[Report]:
    rng = random.Random(seed)
    reports = []
    for n in (2, 3, 4):
        ps = PeanoSpace.standard(n)
        for r in range(1, min(3, n) + 1):
            for _ in range(trials_per):
                avecs = [rand_vector(rng, n) for _ in range(r)]
                bexts = [rand_extensor(rng, n, n - 1) for _ in range(r)]
                reports.append(verify_alternative_r(avecs, bexts, ps))
    # the full-rank case against the bare determinant bracket
    for n in (2, 3):
        ps = PeanoSpace.standard(n)
        for _ in range(trials_per):
            avecs = [rand_vector(rng, n) for _ in range(n)]
            bexts = [rand_extensor(rng, n, n - 1) for _ in range(n)]
            reports.append(verify_alternative_r(avecs, bexts, ps))
    return reports


def distributive_suite(seed: int, trials_per: int = 8) -> list[Report]:
    rng = random.Random(seed)
    reports = []
    families = [
        (3, (2,), 1, 1),       # r = 1 collapse
        (3, (1, 1), 1, 1),     # planar point pair
        (4, (2, 1), 2, 1),     # mixed steps in dimension 4
    ]
    for n, qs, sa, sb in families:
        ps = PeanoSpace.standard(n)
        for _ in range(trials_per):
            a = rand_extensor(rng, n, sa)
            b = rand_extensor(rng, n, sb)
            cs = [rand_extensor(rng, n, n - q) for q in qs]
            reports.append(verify_distributive(a, b, cs, ps))
    return reports


def modular_suite(seed: int, trials: int = 50) -> list[Report]:
    rng = random.Random(seed)
    reports = []
    n = 4
    for _ in range(trials):
        cstep = rng.randint(1, 3)
        astep = rng.randint(1, cstep)
        c = rand_extensor(rng, n, cstep)
        basis = extensor_span(c)
        while True:
            coeffs = [[rand_fraction(rng) for _ in basis] for _ in range(astep)]
            avecs = [tuple(sum(row[i] * basis[i][j] for i in range(len(basis)))
                           for j in range(n)) for row in coeffs]
            a = make_extensor(avecs, n)
            if a:
                break
        b = rand_extensor(rng, n, rng.randint(1, 3))
        reports.append(verify_modular(a, b, c))
    return reports


def capelli_suite(seed: int, trials: int = 12) -> list[Report]:
    rng = random.Random(seed)
    reports = []
    for _ in range(trials):
        reports.append(verify_capelli(1, rand_tensor(rng, 3, 3)))
    for _ in range(trials // 2):
        reports.append(verify_capelli(2, rand_tensor(rng, 3, 5)))
    # structured permanent instances with unit fold 0
    n = 3
    for _ in range(trials // 2):
        folds = [ExteriorElement.unit(n),
                 make_extensor([rand_vector(rng, n)], n),
                 make_extensor([rand_vector(rng, n)], n),
                 rand_extensor(rng, n, n - 1),
                 rand_extensor(rng, n, n - 1)]
        reports.append(verify_capelli(2, TensorPowerElement.from_elements(folds)))
    return reports


def hodge_suite(seed: int, trials: int = 100) -> list[Report]:
    rng = random.Random(seed)
    reports = []
    n = 3
    basis = standard_basis(n)
    words = [tuple(sorted(s)) for size in range(n + 1)
             for s in combinations(range(1, n + 1), size)]
    for wa in words:
        for wb in words:
            for h in range(n + 1):
                reports.append(verify_hodge_diamond(
                    ExteriorElement.monomial(n, wa),
                    ExteriorElement.monomial(n, wb), h, basis))
    n = 4
    basis4 = rand_basis(rng, 4)
    for _ in range(trials):
        a = rand_extensor(rng, n, rng.randint(0, n))
        b = rand_extensor(rng, n, rng.randint(0, n))
        reports.append(verify_hodge_diamond(a, b, rng.randint(0, n), basis4))
    return reports


def meet_suite(seed: int, trials: int = 200) -> list[Report]:
    rng = random.Random(seed)
    reports = []
    for _ in range(trials):
        n = rng.choice((3, 4))
        ps = PeanoSpace.standard(n, rng.choice((1, 1, 2)))
        a = rand_extensor(rng, n, rng.randint(0, n))
        b = rand_extensor(rng, n, rng.randint(0, n))
        reports.append(_report(
            "meet-two-expansions",
            f"n={n} steps=({a.step()},{b.step()})",
            ps.meet(a, b, "left"), ps.meet(a, b, "right")))
    return reports


def recovery_suite(seed: int, trials: int = 200) -> list[Report]:
    """Meet and join recovery from geometric products, and star duality."""
    rng = random.Random(seed)
    reports = []
    for _ in range(trials // 2):
        n = rng.choice((3, 4))
        ps = PeanoSpace.standard(n, rng.choice((1, 2, 3)))
        e = ps.integral
        a = rand_extensor(rng, n, rng.randint(0, n))
        b = rand_extensor(rng, n, rng.randint(0, n))
        sa, sb = a.step(), b.step()
        t = TensorPowerElement.from_elements([a, b])
        meet = ps.meet(a, b)
        lhs = diamond(n - sb, 2, 1, t)
        rhs = TensorPowerElement.from_elements([meet, e]).scale(
            (-1) ** ((sa + sb - n) * (n - sb)))
        reports.append(_report("meet-recovery-raising",
                               f"n={n} steps=({sa},{sb})", lhs, rhs))
        lhs2 = diamond(n - sa, 1, 2, t)
        rhs2 = TensorPowerElement.from_elements([e, meet]).scale(
            (-1) ** ((sa + sb - n) * (n - sa)))
        reports.append(_report("meet-recovery-lowering",
                               f"n={n} steps=({sa},{sb})", lhs2, rhs2))
        joined = diamond(sa, 2, 1, t)
        reports.append(_report("join-recovery",
                               f"n={n} steps=({sa},{sb})",
                               joined,
                               TensorPowerElement.from_elements(
                                   [ExteriorElement.unit(n), a.wedge(b)])))
    for _ in range(trials // 2):
        n = rng.choice((3, 4))
        basis = rand_basis(rng, n)
        unimodular = rng.random() < 0.5
        if unimodular:
            ps = basis.peano()
        else:
            ps = PeanoSpace.standard(n, rng.choice((1, 2, 3)))
        f_bracket = ps.bracket_element(basis.F)
        a = rand_extensor(rng, n, rng.randint(0, n))
        b = rand_extensor(rng, n, rng.randint(0, n))
        star = basis.star
        reports.append(_report(
            "star-join-duality", f"n={n} unimodular={unimodular}",
            f_bracket * star(a.wedge(b)),
            ps.meet(star(a), star(b))))
        reports.append(_report(
            "star-meet-duality", f"n={n} unimodular={unimodular}",
            (1 / f_bracket) * star(ps.meet(a, b)),
            star(a).wedge(star(b))))
    return reports


SUITES = {
    "desargues": desargues_suite,
    "alternative": alternative_suite,
    "distributive": distributive_suite,
    "modular": modular_suite,
    "capelli": capelli_suite,
    "hodge": hodge_suite,
    "meet": meet_suite,
    "recovery": recovery_suite,
}


def run_suite(name: str, seed: int) -> list[Report]:
    if name == "all":
        out = []
        for key in sorted(SUITES):
            out.extend(SUITES[key](seed))
        return out
    if name not in SUITES:
        raise ValueError(f"unknown suite {name!r}")
    return SUITES[name](seed)
