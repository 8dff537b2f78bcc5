"""Products of biproducts and the straightening rewrite.

A bitableau element is an integer combination of row lists, each row a
normalized biproduct.  A two-row product is standard when the upper
word is at least as long as the lower one and dominates it entrywise;
the rewrite replaces the first violating pair using the two-row shuffle
identity, which expresses the product as a signed sum of pairs that are
either strictly longer on top or lexicographically smaller there.  The
rewrite preserves the value in the letterplace algebra exactly, which
tests check through the place-regrouping map.
"""

from __future__ import annotations

from itertools import combinations, product as iproduct
from math import comb

from . import linalg
from .letterplace import (Biproduct, LetterplaceElement, biproduct_expand,
                          _graded_components, make_biproduct, phi)
from .tensorops import IntegerTerms
from .words import position_slices, word_slices


class StraighteningBudgetExceeded(RuntimeError):
    """The rewrite loop ran past its step budget."""


Rows = tuple[Biproduct, ...]


class BitableauElement(IntegerTerms):
    """Integer combination of products of biproducts."""

    __slots__ = ()

    def _valid_key(self, rows) -> Rows:
        key = tuple(rows)
        for row in key:
            if not isinstance(row, Biproduct) or row.is_unit:
                raise ValueError("rows must be nonunit biproducts")
            if any(p > self.m for p, _ in row.degrees):
                raise ValueError("row uses a place outside 1..m")
        return key

    @staticmethod
    def _sort_key(rows):
        return (len(rows), tuple(r.sort_key() for r in rows))

    @staticmethod
    def _key_str(rows) -> str:
        return "^".join(str(r) for r in rows) if rows else "1"

    @classmethod
    def single(cls, m, rows, coeff=1):
        """One term from possibly raw (word, degrees) rows."""
        out_rows = []
        sign = 1
        for word, degrees in rows:
            s, bp = make_biproduct(word, degrees)
            if bp is None:
                return cls.zero(m)
            sign *= s
            if not bp.is_unit:
                out_rows.append(bp)
        return cls(m, {tuple(out_rows): sign * coeff})

    @classmethod
    def from_letterplace(cls, e: LetterplaceElement) -> "BitableauElement":
        """Rewrite each monomial as its product of single-place rows."""
        out = {tuple(Biproduct(word, ((place, len(word)),))
                     for place, word in enumerate(folds, start=1) if word): c
               for folds, c in phi(e).terms.items()}
        return cls._trusted(out, e.m)

    def __mul__(self, other):
        if not isinstance(other, BitableauElement):
            return self.scale(other)
        self._check(other)
        out: dict[Rows, int] = {}
        for r1, c1 in self.terms.items():
            for r2, c2 in other.terms.items():
                key = r1 + r2
                out[key] = out.get(key, 0) + c1 * c2
        return self._like(out)

    def to_letterplace(self) -> LetterplaceElement:
        """Expand every row product; the value in the letterplace algebra."""
        out = LetterplaceElement.zero(self.m)
        for rows, c in self.terms.items():
            acc = LetterplaceElement.unit(self.m)
            for row in rows:
                acc = acc * biproduct_expand(row, self.m)
                if not acc:
                    break
            out = out + acc.scale(c)
        return out


def is_standard(rows) -> bool:
    """Dominance test on consecutive row words.

    Rows must carry strictly increasing words; a pair passes when the
    upper word is at least as long and entrywise at most the lower word
    on the overlap.
    """
    rows = tuple(rows)
    for row in rows:
        if any(a >= b for a, b in zip(row.word, row.word[1:])):
            raise ValueError("rows must be word-sorted first")
    return _first_violation(rows) is None


def _first_violation(rows: Rows):
    for idx in range(len(rows) - 1):
        w1, w2 = rows[idx].word, rows[idx + 1].word
        if len(w1) < len(w2) or any(a > b for a, b in zip(w1, w2)):
            return idx
    return None


def _deg_add(degrees, extra: dict[int, int]):
    d = dict(degrees)
    for p, q in extra.items():
        d[p] = d.get(p, 0) + q
    return tuple(sorted((p, q) for p, q in d.items() if q))


def _deg_sub(degrees, taken: dict[int, int]):
    d = dict(degrees)
    for p, q in taken.items():
        d[p] = d.get(p, 0) - q
    if any(q < 0 for q in d.values()):
        return None
    return tuple(sorted((p, q) for p, q in d.items() if q))


def _pair_terms(sign: int, row_a, row_b) -> list[tuple[int, Rows]]:
    sa, ba = row_a
    sb, bb = row_b
    if ba is None or bb is None:
        return []
    rows = tuple(r for r in (ba, bb) if not r.is_unit)
    return [(sign * sa * sb, rows)]


def _rewrite_pair(r1: Biproduct, r2: Biproduct) -> list[tuple[int, Rows]]:
    """Replacement for a violating pair, by the two-row shuffle identity.

    With the violation at position t, take u the upper prefix before t,
    v the first t lower letters followed by the upper tail, w the rest
    of the lower word.  The identity equates the signed sum over the
    slices of v with a binomial-weighted sum over slices of u; solving
    it for the distinguished slice (the one reproducing the original
    pair) gives the replacement.
    """
    x, y = r1.word, r2.word
    p, q = len(x), len(y)
    if p < q:
        t = p + 1
    else:
        t = next(s + 1 for s in range(q) if x[s] > y[s])
    u = x[:t - 1]
    v = y[:t] + x[t - 1:]
    w = y[t:]
    sigma = (-1) ** (t * (p - t + 1))
    mu1, mu2 = r1.degrees, r2.degrees
    out: list[tuple[int, Rows]] = []

    # the other slices of v, negated and moved across
    k1 = p - t + 1
    distinguished = tuple(range(t, t + k1))
    for sl_sign, blocks in position_slices(len(v), (k1, t)):
        if blocks[0] == distinguished:
            continue
        v1 = tuple(v[i] for i in blocks[0])
        v2 = tuple(v[i] for i in blocks[1])
        out.extend(_pair_terms(-sigma * sl_sign,
                               make_biproduct(u + v1, mu1),
                               make_biproduct(v2 + w, mu2)))

    # the shuffle identity right side
    qcaps = dict(mu2)
    places = sorted(qcaps)
    for usize in range(len(u) + 1):
        need = usize + 1   # the r-vector total forced by the degrees
        for su, (u1, u2) in word_slices(u, (usize, len(u) - usize)):
            for rvec in iproduct(*(range(qcaps[pl] + 1) for pl in places)):
                if sum(rvec) != need:
                    continue
                extra = dict(zip(places, rvec))
                cr = 1
                mu1d = dict(mu1)
                for pl, r in extra.items():
                    cr *= comb(mu1d.get(pl, 0) + r, r)
                sub = _deg_sub(mu2, extra)
                if sub is None:
                    continue
                coeff = (sigma * su * cr
                         * (-1) ** (len(u) * len(v))
                         * (-1) ** len(u2))
                out.extend(_pair_terms(coeff,
                                       make_biproduct(v + u1, _deg_add(mu1, extra)),
                                       make_biproduct(u2 + w, sub)))
    return out


def _order_key(order):
    if callable(order):
        return order
    if order == "deglex":
        def key(rows: Rows):
            return (sum(len(r.word) for r in rows),
                    tuple(r.sort_key() for r in rows))
        return key
    if order == "revlex":
        def key(rows: Rows):
            return (-sum(len(r.word) for r in rows),
                    tuple(r.sort_key() for r in rows))
        return key
    raise ValueError(f"unknown term order {order!r}")


def straighten(e: BitableauElement, order="deglex",
               budget: int = 10 ** 6) -> BitableauElement:
    """Rewrite until every surviving row product is standard.

    The term order decides which term is processed next; the final
    value in the letterplace algebra does not depend on it.  Exceeding
    the step budget raises, which signals a defective order choice
    rather than a data error.
    """
    key = _order_key(order)
    work: dict[Rows, int] = dict(e.terms)
    done: dict[Rows, int] = {}
    steps = 0
    while work:
        rows = min(work, key=key)
        coeff = work.pop(rows)
        idx = _first_violation(rows)
        if idx is None:
            done[rows] = done.get(rows, 0) + coeff
            continue
        steps += 1
        if steps > budget:
            raise StraighteningBudgetExceeded(f"no fixed point within {budget} steps")
        for c2, newrows in _rewrite_pair(rows[idx], rows[idx + 1]):
            nk = rows[:idx] + newrows + rows[idx + 2:]
            v = work.get(nk, 0) + coeff * c2
            if v:
                work[nk] = v
            elif nk in work:
                del work[nk]
    return e._like(done)


# -- the doubly standard basis ----------------------------------------

def _place_row(bp: Biproduct) -> tuple[int, ...]:
    return tuple(p for p, q in bp.degrees for _ in range(q))


def is_doubly_standard(rows) -> bool:
    """Dominance on the words together with strict place columns.

    Besides the word test, consecutive rows must have strictly
    increasing place columns: the t-th place of a row exceeds the t-th
    place of the row above.  These products form a basis of the
    letterplace algebra.
    """
    rows = tuple(rows)
    if not is_standard(rows):
        return False
    for idx in range(len(rows) - 1):
        p1 = _place_row(rows[idx])
        p2 = _place_row(rows[idx + 1])
        if any(a >= b for a, b in zip(p1, p2)):
            return False
    return True


def _row_options(length, letters, places, prev):
    """Rows of the given length from the available letters and place
    capacities, compatible with the previous row."""
    prev_word = prev.word if prev else None
    prev_places = _place_row(prev) if prev else None
    for word in combinations(sorted(letters), length):
        if prev_word and any(a > b for a, b in zip(prev_word, word)):
            continue
        avail = sorted(p for p, c in places.items() for _ in range(c))
        for pick in sorted(set(combinations(avail, length))):
            if prev_places and any(a >= b for a, b in zip(prev_places, pick)):
                continue
            degs: dict[int, int] = {}
            for p in pick:
                degs[p] = degs.get(p, 0) + 1
            yield Biproduct(word, tuple(sorted(degs.items())))


def _standard_candidates(content: dict[str, int], pdeg: dict[int, int]):
    """Doubly standard products with the exact content and place degrees."""
    total = sum(pdeg.values())

    def rec(rows, letters, places, remaining, max_len):
        if remaining == 0:
            yield tuple(rows)
            return
        prev = rows[-1] if rows else None
        for length in range(min(max_len, remaining), 0, -1):
            for row in _row_options(length, letters, places, prev):
                nl = dict(letters)
                ok = True
                for x in row.word:
                    nl[x] = nl.get(x, 0) - 1
                    if nl[x] < 0:
                        ok = False
                        break
                if not ok:
                    continue
                np = dict(places)
                for p, q in row.degrees:
                    np[p] = np.get(p, 0) - q
                    if np[p] < 0:
                        ok = False
                        break
                if not ok:
                    continue
                yield from rec(rows + [row],
                               {x: c for x, c in nl.items() if c},
                               {p: c for p, c in np.items() if c},
                               remaining - length, length)

    if total == 0:
        yield ()
        return
    yield from rec([], dict(content), dict(pdeg), total, total)


def standard_expansion(e: LetterplaceElement) -> BitableauElement:
    """Exact coordinates of an element in the doubly standard basis.

    Works one (place degree, letter content) component at a time;
    every candidate must add a pivot and every component must reduce to
    zero, so a failure of either spanning or independence raises
    instead of returning a wrong answer.
    """
    m = e.m
    out: dict[Rows, int] = {}
    for (pdeg_t, content_t), vec in _graded_components(e).items():
        candidates = sorted(
            _standard_candidates(dict(content_t), dict(pdeg_t)),
            key=lambda rows: tuple(r.sort_key() for r in rows))
        echelon = linalg.SparseEchelon()
        for rows in candidates:
            acc = LetterplaceElement.unit(m)
            for row in rows:
                acc = acc * biproduct_expand(row, m)
            if not echelon.insert(acc.terms, label=rows):
                raise AssertionError("standard products are dependent")
        coords: dict = {}
        if echelon.reduce(vec, coords):
            raise AssertionError("standard products failed to span")
        for rows, c in coords.items():
            if not c:
                continue
            if c.denominator != 1:
                raise AssertionError("non-integral standard coordinates")
            out[rows] = out.get(rows, 0) + c.numerator
    return BitableauElement._trusted(out, m)


# -- the two-row identity, both sides in expanded form ----------------

def shuffle_identity_sides(u, v, w, pdeg: dict[int, int], qdeg: dict[int, int],
                           m: int) -> tuple[LetterplaceElement, LetterplaceElement]:
    """Both sides of the two-row shuffle identity, fully expanded.

    The left side sums (u v1 | p)(v2 w | q) over all slices of v; the
    right side sums the binomially weighted (v u1 | p + r)(u2 w | q - r)
    over the slices of u and all place vectors r below q.
    """
    u, v, w = tuple(u), tuple(v), tuple(w)
    from .letterplace import expand_raw

    lhs = LetterplaceElement.zero(m)
    for size in range(len(v) + 1):
        for sign, (v1, v2) in word_slices(v, (size, len(v) - size)):
            term = expand_raw(u + v1, pdeg, m) * expand_raw(v2 + w, qdeg, m)
            lhs = lhs + term.scale(sign)

    rhs = LetterplaceElement.zero(m)
    places = sorted(qdeg)
    sign_uv = (-1) ** (len(u) * len(v))
    for size in range(len(u) + 1):
        for su, (u1, u2) in word_slices(u, (size, len(u) - size)):
            for rvec in iproduct(*(range(qdeg[pl] + 1) for pl in places)):
                extra = dict(zip(places, rvec))
                cr = 1
                for pl, r in extra.items():
                    cr *= comb(pdeg.get(pl, 0) + r, r)
                newp = {pl: pdeg.get(pl, 0) + extra.get(pl, 0)
                        for pl in set(pdeg) | set(extra)}
                newq = {pl: qdeg[pl] - extra.get(pl, 0) for pl in qdeg}
                term = expand_raw(v + u1, newp, m) * expand_raw(u2 + w, newq, m)
                rhs = rhs + term.scale(sign_uv * su * cr * (-1) ** len(u2))
    return lhs, rhs
