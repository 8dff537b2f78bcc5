"""Seeded inputs for the benchmark workloads.

Each workload function takes the seed and returns a list of items.  An item
is a zero-argument callable that runs one unit of work through the
public API of ``extensor`` and returns ``(ok, text)``: whether every
check held, and the canonical printed result that goes into the output
digest.  Everything random (instances, matroids, bases, expression
strings) is drawn inside that function, so it is set-up, not item time.

Library calls go through module attributes (``ids.verify_desargues``)
and bound methods taken after the tracer is installed, so the traced
run sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import string
from fractions import Fraction
from itertools import combinations
from math import comb

from extensor import (cli, identity_suite as ids, letterplace,
                      span_invariants, tensor_power, whitney)
from extensor.cg_algebra import OrderedBasis, PeanoSpace, standard_basis
from extensor.exterior import ExteriorElement, extensor_span, make_extensor
from extensor.tensor_power import TensorPowerElement
from extensor.whitney import Matroid, WhitneyElement


def _report_text(rep) -> tuple[bool, str]:
    return rep.equal, json.dumps(rep.to_dict(), sort_keys=True)


def _checked(identity: str, instance: str, lhs, rhs) -> tuple[bool, str]:
    """A check built here, printed the way the identity suite prints."""
    return _report_text(ids.Report(identity, instance, str(lhs), str(rhs), lhs == rhs))


def _verifier(fn, *args, prefix: str = ""):
    def item():
        rep = getattr(ids, fn)(*args)
        rep.instance = prefix + rep.instance
        return _report_text(rep)
    return item


# -- gc_identities ------------------------------------------------------
#
# The suites below draw their instances with exactly the random calls of
# ``identity_suite.<name>_suite(seed)``, so with ``signs=None`` the
# reports equal those of ``extensor verify all --seed <seed>`` one for
# one, except in the n = 4 block of the hodge suite.  gc_identities draws
# them from the fixed POOL_SEED and lets the workload seed flip the signs
# of the coordinates, per instance (see _flipper).


class _Signs:
    """The change of coordinates x_i -> s_i x_i, s_i = +-1, applied to
    vectors, extensors, tensors and bases.  Every identity holds for the
    new inputs as for the old, and since each coefficient the library
    computes only changes sign, the work is the same, item by item."""

    def __init__(self, signs):
        self.signs = signs

    def _word(self, word) -> int:
        out = 1
        for i in word:
            out *= self.signs[i - 1]
        return out

    def __call__(self, x):
        if isinstance(x, ExteriorElement):
            return ExteriorElement(x.dim, {w: self._word(w) * c
                                           for w, c in x.terms.items()})
        if isinstance(x, TensorPowerElement):
            return TensorPowerElement(x.dim, x.m, {
                key: math.prod(self._word(w) for w in key) * c
                for key, c in x.terms.items()})
        if isinstance(x, OrderedBasis):
            return OrderedBasis([self(v) for v in x.vectors])
        if isinstance(x, list):
            return [self(y) for y in x]
        return tuple(s * c for s, c in zip(self.signs, x))


def _flipper(signs, n):
    """A fresh sign change for one instance, drawn from ``signs``; the
    identity when ``signs`` is None."""
    if signs is None:
        return lambda x: x
    return _Signs([signs.choice((1, -1)) for _ in range(n)])


def _alternative(seed, trials_per=5, signs=None):
    rng = random.Random(seed)
    items = []
    for n in (2, 3, 4):
        ps = PeanoSpace.standard(n)
        for r in range(1, min(3, n) + 1):
            for _ in range(trials_per):
                f = _flipper(signs, n)
                avecs = f([ids.rand_vector(rng, n) for _ in range(r)])
                bexts = f([ids.rand_extensor(rng, n, n - 1) for _ in range(r)])
                items.append(_verifier("verify_alternative_r", avecs, bexts, ps))
    for n in (2, 3):
        ps = PeanoSpace.standard(n)
        for _ in range(trials_per):
            f = _flipper(signs, n)
            avecs = f([ids.rand_vector(rng, n) for _ in range(n)])
            bexts = f([ids.rand_extensor(rng, n, n - 1) for _ in range(n)])
            items.append(_verifier("verify_alternative_r", avecs, bexts, ps))
    return items


def _capelli(seed, trials=12, signs=None):
    rng = random.Random(seed)
    items = [_verifier("verify_capelli", 1,
                       _flipper(signs, 3)(ids.rand_tensor(rng, 3, 3)))
             for _ in range(trials)]
    items += [_verifier("verify_capelli", 2,
                        _flipper(signs, 3)(ids.rand_tensor(rng, 3, 5)))
              for _ in range(trials // 2)]
    n = 3
    for _ in range(trials // 2):
        f = _flipper(signs, n)
        folds = [ExteriorElement.unit(n),
                 make_extensor([ids.rand_vector(rng, n)], n),
                 make_extensor([ids.rand_vector(rng, n)], n),
                 ids.rand_extensor(rng, n, n - 1),
                 ids.rand_extensor(rng, n, n - 1)]
        items.append(_verifier("verify_capelli", 2,
                               TensorPowerElement.from_elements(f(folds))))
    return items


def _desargues(seed, trials=100, signs=None):
    rng = random.Random(seed)
    items = [_verifier("verify_desargues", *_flipper(signs, 3)(
                 [ids.rand_vector(rng, 3) for _ in range(6)]))
             for _ in range(trials)]
    for _ in range(2):
        o = ids.rand_vector(rng, 3)
        base = [ids.rand_vector(rng, 3) for _ in range(3)]
        primed = [tuple(x + rng.randint(1, 3) * y for x, y in zip(p, o))
                  for p in base]
        items.append(_verifier("verify_desargues",
                               *_flipper(signs, 3)(base + primed),
                               prefix="concurrent "))
    for _ in range(2):
        p1, p2 = ids.rand_vector(rng, 3), ids.rand_vector(rng, 3)
        p3 = tuple(x + 2 * y for x, y in zip(p1, p2))
        rest = [ids.rand_vector(rng, 3) for _ in range(3)]
        items.append(_verifier("verify_desargues",
                               *_flipper(signs, 3)([p1, p2, p3, *rest]),
                               prefix="degenerate "))
    items.append(_verifier("verify_desargues", *_flipper(signs, 3)(
        [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1), (1, 2, 3), (2, 1, 5)])))
    return items


def _distributive(seed, trials_per=8, signs=None):
    rng = random.Random(seed)
    items = []
    for n, qs, sa, sb in ((3, (2,), 1, 1), (3, (1, 1), 1, 1), (4, (2, 1), 2, 1)):
        ps = PeanoSpace.standard(n)
        for _ in range(trials_per):
            f = _flipper(signs, n)
            a = f(ids.rand_extensor(rng, n, sa))
            b = f(ids.rand_extensor(rng, n, sb))
            cs = f([ids.rand_extensor(rng, n, n - q) for q in qs])
            items.append(_verifier("verify_distributive", a, b, cs, ps))
    return items


def _hodge(seed, trials=100, signs=None):
    """The hodge suite, except in how the n = 4 block draws its
    instances: the steps and power cycle through all (step a, step b)
    pairs with h spread over 0..4, in a seeded order, and each instance
    gets a fresh random basis, where the suite draws them independently
    and uses one basis for the block (see gc_identities)."""
    rng = random.Random(seed)
    items = []
    n = 3
    basis = standard_basis(n)
    words = [tuple(sorted(s)) for size in range(n + 1)
             for s in combinations(range(1, n + 1), size)]
    for wa in words:
        for wb in words:
            for h in range(n + 1):
                items.append(_verifier("verify_hodge_diamond",
                                       ExteriorElement.monomial(n, wa),
                                       ExteriorElement.monomial(n, wb), h, basis))
    n = 4
    pairs = [(sa, sb) for sa in range(n + 1) for sb in range(n + 1)]
    shapes = []
    for k in range(trials):
        sa, sb = pairs[k % len(pairs)]
        shapes.append((sa, sb, (k // len(pairs) + sa + sb) % (n + 1)))
    rng.shuffle(shapes)
    for sa, sb, h in shapes:
        f = _flipper(signs, n)
        basis4 = f(ids.rand_basis(rng, n))
        a = f(ids.rand_extensor(rng, n, sa))
        b = f(ids.rand_extensor(rng, n, sb))
        items.append(_verifier("verify_hodge_diamond", a, b, h, basis4))
    return items


def _meet_item(ps, a, b):
    def item():
        return _checked("meet-two-expansions",
                        f"n={ps.dim} steps=({a.step()},{b.step()})",
                        ps.meet(a, b, "left"), ps.meet(a, b, "right"))
    return item


def _meet(seed, trials=200, signs=None):
    rng = random.Random(seed)
    items = []
    for _ in range(trials):
        n = rng.choice((3, 4))
        ps = PeanoSpace.standard(n, rng.choice((1, 1, 2)))
        f = _flipper(signs, n)
        a = f(ids.rand_extensor(rng, n, rng.randint(0, n)))
        b = f(ids.rand_extensor(rng, n, rng.randint(0, n)))
        items.append(_meet_item(ps, a, b))
    return items


def _modular(seed, trials=50, signs=None):
    rng = random.Random(seed)
    items = []
    n = 4
    for _ in range(trials):
        cstep = rng.randint(1, 3)
        astep = rng.randint(1, cstep)
        c = ids.rand_extensor(rng, n, cstep)
        basis = extensor_span(c)
        while True:
            coeffs = [[ids.rand_fraction(rng) for _ in basis] for _ in range(astep)]
            avecs = [tuple(sum(row[i] * basis[i][j] for i in range(len(basis)))
                           for j in range(n)) for row in coeffs]
            a = make_extensor(avecs, n)
            if a:
                break
        b = ids.rand_extensor(rng, n, rng.randint(1, 3))
        f = _flipper(signs, n)
        items.append(_verifier("verify_modular", f(a), f(b), f(c)))
    return items


def _recovery_items(ps, a, b):
    n = ps.dim
    sa, sb = a.step(), b.step()
    inst = f"n={n} steps=({sa},{sb})"

    def pair():
        return (TensorPowerElement.from_elements([a, b]), ps.meet(a, b))

    def raising():
        t, meet = pair()
        return _checked("meet-recovery-raising", inst,
                        tensor_power.diamond(n - sb, 2, 1, t),
                        TensorPowerElement.from_elements([meet, ps.integral]).scale(
                            (-1) ** ((sa + sb - n) * (n - sb))))

    def lowering():
        t, meet = pair()
        return _checked("meet-recovery-lowering", inst,
                        tensor_power.diamond(n - sa, 1, 2, t),
                        TensorPowerElement.from_elements([ps.integral, meet]).scale(
                            (-1) ** ((sa + sb - n) * (n - sa))))

    def join():
        t = TensorPowerElement.from_elements([a, b])
        return _checked("join-recovery", inst, tensor_power.diamond(sa, 2, 1, t),
                        TensorPowerElement.from_elements(
                            [ExteriorElement.unit(n), a.wedge(b)]))

    return [raising, lowering, join]


def _duality_items(basis, ps, unimodular, a, b):
    inst = f"n={basis.dim} unimodular={unimodular}"

    def join_duality():
        f = ps.bracket_element(basis.F)
        star = basis.star
        return _checked("star-join-duality", inst, f * star(a.wedge(b)),
                        ps.meet(star(a), star(b)))

    def meet_duality():
        f = ps.bracket_element(basis.F)
        star = basis.star
        return _checked("star-meet-duality", inst, (1 / f) * star(ps.meet(a, b)),
                        star(a).wedge(star(b)))

    return [join_duality, meet_duality]


def _recovery(seed, trials=200, signs=None):
    rng = random.Random(seed)
    items = []
    for _ in range(trials // 2):
        n = rng.choice((3, 4))
        ps = PeanoSpace.standard(n, rng.choice((1, 2, 3)))
        f = _flipper(signs, n)
        a = f(ids.rand_extensor(rng, n, rng.randint(0, n)))
        b = f(ids.rand_extensor(rng, n, rng.randint(0, n)))
        items += _recovery_items(ps, a, b)
    for _ in range(trials // 2):
        n = rng.choice((3, 4))
        f = _flipper(signs, n)
        basis = f(ids.rand_basis(rng, n))
        unimodular = rng.random() < 0.5
        if unimodular:
            ps = basis.peano()
        else:
            ps = PeanoSpace.standard(n, rng.choice((1, 2, 3)))
        a = f(ids.rand_extensor(rng, n, rng.randint(0, n)))
        b = f(ids.rand_extensor(rng, n, rng.randint(0, n)))
        items += _duality_items(basis, ps, unimodular, a, b)
    return items


# in the order ``run_suite("all", seed)`` runs them; each function takes
# the trial counts of the suite it mirrors, with the same defaults
GC_SUITES = {
    "alternative": _alternative,
    "capelli": _capelli,
    "desargues": _desargues,
    "distributive": _distributive,
    "hodge": _hodge,
    "meet": _meet,
    "modular": _modular,
    "recovery": _recovery,
}


def _span_item(a, b, p):
    """Criterion 03 on one pair: top factorization, vanishing above p,
    and C(p, h)-dimensional spans of every geometric product below."""
    def item():
        c, d, got_p = tensor_power.meet_join_factor(a, b)
        ok = got_p == p
        t = TensorPowerElement.from_elements([a, b])
        ok = ok and not tensor_power.diamond(p + 1, 2, 1, t)
        ranks = []
        for h in range(p + 1):
            g = tensor_power.diamond(h, 2, 1, t)
            rep = span_invariants.minimal_representation(g)
            lefts = span_invariants.left_span(g)
            rights = span_invariants.right_span(g)
            ok = ok and rep.rank == len(lefts) == len(rights) == comb(p, h)
            ranks.append(rep.rank)
        return ok, f"span-invariants p={p} c={c} d={d} ranks={ranks}"
    return item


SPAN_PAIRS = 128    # half as many as criterion 03 has canonical pairs


def _span_pairs(seed, signs=None):
    """Extensor pairs in dimension 4 with a known relative dimension p:
    the two spans share k random vectors and are otherwise independent."""
    rng = random.Random(f"span-{seed}")
    n = 4
    items = []
    while len(items) < SPAN_PAIRS:
        sa, sb = rng.randint(0, n), rng.randint(0, n)
        k = rng.randint(max(0, sa + sb - n), min(sa, sb))
        vecs = [ids.rand_vector(rng, n) for _ in range(sa + sb - k)]
        if not make_extensor(vecs, n):
            continue
        vecs = _flipper(signs, n)(vecs)
        shared, rest = vecs[:k], vecs[k:]
        a = make_extensor(shared + rest[:sa - k], n)
        b = make_extensor(shared + rest[sa - k:], n)
        items.append(_span_item(a, b, sa - k))
    return items


# The n = 4 hodge block is the costliest part of a pass and all of its
# p99 tail.  Its cost is set by the steps drawn for its instances and by
# the random basis: drawn as the suite draws them (independent steps, one
# basis) it ran 1.75-2.85 s over six seeds (2-vCPU x86_64 VM), and with
# ten bases its p99 still spread by 21% between seeds.  _hodge stratifies
# the steps and draws one basis per instance; a star still meets the same
# basis many times within one instance, so per-basis caching keeps
# showing.  With the suites' full trial counts a pass took 6-8 s and a
# 40 s run fitted only three to five passes, too few for the per-item
# minimum (see run.end_to_end) to catch a quiet moment of a shared host
# for every item; GC_TRIALS and SPAN_PAIRS cut a pass to about 3 s.


# trial counts where gc_identities runs fewer than ``verify all``: one
# n = 4 hodge instance per pair of steps (the suite draws 100) and half
# of the modular suite's 50
GC_TRIALS = {"hodge": 25, "modular": 25}


# The instances are drawn once, from POOL_SEED, as ``verify all`` draws
# them; the workload seed flips coordinate signs.  Drawn afresh per seed,
# their cost moved with the seed: in six alternating 40 s runs (2-vCPU
# x86_64 VM) seed 10 read 390-463 items/s and seed 14 read 469-485.
POOL_SEED = 0


def gc_identities(seed: int) -> list:
    signs = random.Random(f"gc-{seed}")
    items = []
    for name, build in GC_SUITES.items():
        trials = (GC_TRIALS[name],) if name in GC_TRIALS else ()
        items += build(POOL_SEED, *trials, signs=signs)
    return items + _span_pairs(POOL_SEED, signs)


# -- whitney_relations --------------------------------------------------

SIX_POINT_COLUMNS = {
    "a": (1, 0, 0), "b": (0, 1, 0), "c": (0, 0, 1),
    "d": (1, 1, 0), "e": (1, 0, 1), "f": (0, 1, 1),
}


MAP_SEED = 0    # the invertible map below is drawn once, not per seed


def six_point_matroid(rng) -> Matroid:
    """The six-point linear matroid of the acceptance tests (three
    three-point lines), its columns moved by a fixed invertible map with
    Fraction entries, fixed column scales and seeded column signs.  The
    labelled matroid, and so the letterplace work, stays the same, and so
    do the sizes of the numbers its rank oracle eliminates.  Relabelling the
    points instead moved items per second by up to 12% between seeds,
    through the straightening work alone; a fresh random map per seed
    changes the sizes of the fractions eliminated, and so the cost of
    the items near p99, from seed to seed."""
    fixed = random.Random(MAP_SEED)
    while True:
        mat = [[ids.rand_fraction(fixed) for _ in range(3)] for _ in range(3)]
        if make_extensor(mat, 3):
            break
    scales = [Fraction(fixed.randint(1, 4), fixed.randint(1, 3)) for _ in range(6)]
    columns = {}
    for (letter, point), scale in zip(SIX_POINT_COLUMNS.items(), scales):
        sign = rng.choice((1, -1))
        columns[letter] = [sign * scale * sum(row[i] * point[i] for i in range(3))
                           for row in mat]
    return Matroid.linear(columns)


def _exchange_item(u, v, matroid):
    def item():
        ok = whitney.exchange_check(u, v, matroid)
        return ok, f"exchange {matroid.name} u={''.join(u)} v={''.join(v)} {ok}"
    return item


def _polarization_item(word, first, h, j, i, matroid):
    def item():
        gen = letterplace.expand_raw(word, {1: first, 2: len(word) - first}, 2)
        image = letterplace.polarize_divided(h, j, i, gen)
        nf = whitney.wh_normal_form(WhitneyElement(matroid, image))
        return (bool(gen) and not nf,
                f"polarization {matroid.name} w={''.join(word)} deg={first} "
                f"h={h} D({j},{i}) gen={len(gen.terms)} nf={nf}")
    return item


def whitney_relations(seed: int) -> list:
    """``matroid exchange --max-word 3`` and ``matroid polarization
    --max-degree 4`` item by item, on the six-point matroid and U(5,3)."""
    rng = random.Random(f"whitney-{seed}")
    six = six_point_matroid(rng)
    u53 = Matroid.uniform(5, 3, sorted(rng.sample("abcdefgh", 5)))
    items = []
    for matroid in (six, u53):
        words = list(matroid.independent_sorted_words(3))
        items += [_exchange_item(u, v, matroid) for u in words for v in words]
        for word in matroid.dependent_sorted_words(4):
            for first in range(len(word) + 1):
                for h in range(5):
                    for j, i in ((1, 2), (2, 1)):
                        items.append(_polarization_item(word, first, h, j, i, matroid))
    return items


# -- straighten_cli -----------------------------------------------------
#
# Straightening cost is heavy-tailed and fixed by the relative order of
# the letters, the row lengths and the place degrees.  Drawing those
# afresh per seed made a 200-item pass take 2.6 s on one seed and 9 s on
# another (2-vCPU x86_64 VM, Python 3.11.7): the figures would measure
# the seed, not the code.  The patterns are therefore drawn once, from
# PATTERN_SEED, and the workload seed picks an order-preserving renaming
# of the letters a..f into the alphabet and the item order: every seed
# gives different expressions of the same difficulty.

PATTERN_SEED = 0
PATTERN_COUNT = 200
PATTERN_LETTERS = "abcdef"


def _multidegree(rng, total, m):
    degs = {}
    rem = total
    for place in range(1, m):
        take = rng.randint(0, rem)
        if take:
            degs[place] = take
        rem -= take
    if rem:
        degs[m] = degs.get(m, 0) + rem
    degs.setdefault(m, 0)     # the CLI takes m from the largest place named
    return degs


def straighten_patterns():
    """Three-row products of biproducts, m in {2, 3}, words of 1-3
    letters from a..f, as (word, degrees) rows."""
    rng = random.Random(PATTERN_SEED)
    out = []
    for _ in range(PATTERN_COUNT):
        m = rng.choice((2, 3))
        rows = []
        for _ in range(3):
            word = "".join(sorted(rng.sample(PATTERN_LETTERS, rng.randint(1, 3))))
            rows.append((word, _multidegree(rng, len(word), m)))
        out.append(rows)
    return out


def _straighten_item(expr):
    def item():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(["straighten", "-e", expr])
        text = buf.getvalue().strip()
        return code == 0 and bool(text), f"{expr} -> [{code}] {text}"
    return item


def straighten_cli(seed: int) -> list:
    rng = random.Random(f"straighten-{seed}")
    letters = sorted(rng.sample(string.ascii_lowercase, len(PATTERN_LETTERS)))
    rename = dict(zip(PATTERN_LETTERS, letters))
    exprs = []
    for rows in straighten_patterns():
        exprs.append(" ^ ".join(
            "bp({}; {})".format("".join(rename[x] for x in word),
                                ", ".join(f"{p}:{q}" for p, q in sorted(degs.items())))
            for word, degs in rows))
    rng.shuffle(exprs)
    return [_straighten_item(e) for e in exprs]


WORKLOADS = {
    "gc_identities": gc_identities,
    "whitney_relations": whitney_relations,
    "straighten_cli": straighten_cli,
}
