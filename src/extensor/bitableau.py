"""Products of biproducts and the straightening rewrite.

A bitableau element is an integer combination of row lists, each row a
normalized biproduct.  A two-row product is standard when the upper
word is at least as long as the lower one and dominates it entrywise;
the rewrite replaces the first violating pair using the two-row shuffle
identity, which expresses the product as a signed sum of pairs that are
either strictly longer on top or lexicographically smaller there.
Terms are rewritten in one fixed order: least total word length first,
then by the rows' words and degrees.  Inside the loop each row is an
int code that orders as the row does, sized from the input, so a term
is a flat tuple of ints.  Each call keeps one table from the coded row
pairs it meets to their replacements, or to a mark for a standard pair,
so finding a violation is a few lookups and each pair is rewritten
once; the degree moves of a pair rewrite come from one table shared by
the whole process.  The rewrite preserves the value in the letterplace
algebra exactly, which tests check through the place-regrouping map.
Its output is word-standard only; :func:`standard_expansion` gives the
coordinates in the doubly standard basis, whose place columns also
increase strictly.  Both the value of a product of rows and the basis
come from one flat kernel, :func:`_row_product_terms`.
"""

from __future__ import annotations

from heapq import heappop, heappush
from itertools import combinations, groupby, product as iproduct
from math import comb

from . import linalg
from .letterplace import (Biproduct, LetterplaceElement, biproduct_expand,
                          _graded_components, _letter_pattern, _merge_monomials,
                          _renamed, _shared_echelon, make_biproduct)
from .tensorops import IntegerTerms, _sum_terms
from .words import sort_word, word_slices


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
            if any(not 1 <= p <= self.m for p, _ in row.degrees):
                raise ValueError("row uses a place outside 1..m")
        return key

    @staticmethod
    def _sort_key(rows):
        return (len(rows), rows)

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
        """Rewrite each monomial as its product of single-place rows.

        A canonical monomial is place-major, so each place it uses is
        one run of it; places it does not use cost nothing.
        """
        def rows(mono):
            for place, run in groupby(mono, key=lambda v: v[1]):
                word = tuple(x for x, _ in run)
                yield Biproduct(word, ((place, len(word)),))

        return cls._trusted({tuple(rows(mono)): c for mono, c in e.num.items()}, 1, e.m)

    def __mul__(self, other):
        if not isinstance(other, BitableauElement):
            return self.scale(other)
        self._check(other)
        return self._like(_sum_terms((r1 + r2, c1 * c2)
                                     for r1, c1 in self.num.items()
                                     for r2, c2 in other.num.items()))

    def to_letterplace(self) -> LetterplaceElement:
        """Expand every row product; the value in the letterplace algebra."""
        m = self.m
        return LetterplaceElement._trusted(_sum_terms(
            (mono, c * v) for rows, c in self.num.items()
            for mono, v in _row_product_terms(rows, m).items()), 1, m)


def _row_product_terms(rows: Rows, m: int) -> dict:
    """The product of the expanded rows in the letterplace algebra, as
    summed terms (a cancelled key stays at zero).  Every choice of one
    monomial per row expansion is merged into one signed monomial, left
    to right, and all of them go into one sum."""
    partial = [((), 1)]
    for row in rows:
        factor = biproduct_expand(row, m).num.items()
        partial = [(mono, s * c * cv) for u, c in partial for v, cv in factor
                   for s, mono in [_merge_monomials(u, v)] if s]
    return _sum_terms(partial)


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
        d[p] -= q
    return tuple(sorted((p, q) for p, q in d.items() if q))


def _pair_terms(sign: int, upper, up, lower, down) -> list[tuple[int, Rows]]:
    """The row pair (upper|up)(lower|down) with its words sorted, or
    nothing when a word repeats a letter.  The rewrite passes normalized
    degrees that match the word lengths, so the rows are built directly.
    The upper word is never empty; an empty lower word is the unit and
    drops out."""
    sa, wa = sort_word(upper)
    sb, wb = sort_word(lower)
    if not (sa and sb):
        return []
    rows = (Biproduct(wa, up), Biproduct(wb, down)) if wb else (Biproduct(wa, up),)
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

    # the other slices of v, negated and moved across; the distinguished
    # one takes the last p - t + 1 positions, the last slice in order
    for sl_sign, (v1, v2) in word_slices(v, (p - t + 1, t))[:-1]:
        out.extend(_pair_terms(-sigma * sl_sign, u + v1, mu1, v2 + w, mu2))

    # the shuffle identity right side: a binomial-weighted sum over the
    # slices of u and the degree moves below the lower degrees
    sign_uv = sigma * (-1) ** (len(u) * len(v))
    for usize in range(len(u) + 1):
        moves = _degree_moves(mu1, mu2, usize)
        for su, (u1, u2) in word_slices(u, (usize, len(u) - usize)):
            for cr, up, down in moves:
                out.extend(_pair_terms(sign_uv * su * cr * (-1) ** len(u2),
                                       v + u1, up, u2 + w, down))
    return out


# The degree moves of the shuffle identity per (upper degrees, lower
# degrees, prefix size), shared by every call like the word tables.
# They depend on nothing else, and a seed-5 pass of the straighten_cli
# benchmark meets 929 keys in 4,705 lookups.
_move_tables: dict[tuple, tuple] = {}


def _degree_moves(mu1, mu2, usize: int) -> tuple:
    """``(weight, upper + r, lower - r)`` for every place vector r below
    the lower degrees ``mu2`` whose total, ``usize + 1``, the degrees
    force; the weight is the product over the places of
    ``comb(mu1[pl] + r[pl], r[pl])``."""
    key = (mu1, mu2, usize)
    moves = _move_tables.get(key)
    if moves is None:
        qcaps = dict(mu2)
        places = sorted(qcaps)
        mu1d = dict(mu1)
        built = []
        for rvec in _compositions(usize + 1, [qcaps[pl] for pl in places]):
            extra = dict(zip(places, rvec))
            cr = 1
            for pl, r in extra.items():
                cr *= comb(mu1d.get(pl, 0) + r, r)
            built.append((cr, _deg_add(mu1, extra), _deg_sub(mu2, extra)))
        moves = _move_tables[key] = tuple(built)
    return moves


def _compositions(total: int, caps):
    """Vectors below ``caps`` entrywise that sum to ``total``, in
    lexicographic order."""
    if not caps:
        if total == 0:
            yield ()
        return
    room = sum(caps[1:])
    for r in range(max(0, total - room), min(caps[0], total) + 1):
        for rest in _compositions(total - r, caps[1:]):
            yield (r,) + rest


def _straighten_key(rows: Rows):
    """The term order of the rewrite: total word length, then the rows'
    words and degrees.  Equal keys mean equal row tuples."""
    return (sum(len(r.word) for r in rows), rows)


def _row_coder(terms):
    """An int code for every row that the rewrite of ``terms`` can make,
    ordered as the rows' ``(word, degrees)`` tuples are.

    A code is a fixed number of digits: the word's letters, ranked among
    the letters of ``terms`` from 1 and padded with zeros, then its
    (place, exponent) pairs, the place ranked among the places of
    ``terms``, padded with zero pairs.  A rewrite keeps the letters of a
    term and moves degrees between the places of its two rows, so no
    word, exponent or pair count passes the longest total word length of
    ``terms``, and every digit stays below the base.  The sizes come
    from ``terms`` only, never from the number of places.
    """
    letters = sorted({x for rows in terms for r in rows for x in r.word})
    places = sorted({p for rows in terms for r in rows for p, _ in r.degrees})
    width = max((sum(len(r.word) for r in rows) for rows in terms), default=0)
    base = max(len(letters), len(places), width) + 1
    letter_rank = {x: i for i, x in enumerate(letters, 1)}
    place_rank = {p: i for i, p in enumerate(places, 1)}

    word_codes: dict = {}
    degree_codes: dict = {}
    shift = base ** (2 * width)

    def code(row: Biproduct) -> int:
        word, degrees = row
        w = word_codes.get(word)
        if w is None:
            w = 0
            for x in word:
                w = w * base + letter_rank[x]
            w = word_codes[word] = w * base ** (width - len(word)) * shift
        d = degree_codes.get(degrees)
        if d is None:
            d = 0
            for p, q in degrees:
                d = (d * base + place_rank[p]) * base + q
            d = degree_codes[degrees] = d * base ** (2 * (width - len(degrees)))
        return w + d

    return code


# the pair table's mark for a standard pair: a replacement may be empty
_STANDARD = object()


def straighten(e: BitableauElement, budget: int = 10 ** 6) -> BitableauElement:
    """Rewrite until every surviving row product is standard.

    Each step takes the live term of least :func:`_straighten_key`.  The
    loop works on rows coded as ints by :func:`_row_coder`, which order
    as the rows do, so a term is a flat tuple of ints and comparing or
    hashing it makes no Python-level call; the rows are decoded once, at
    the end.  A heap beside the worklist holds ``(total, codes)``,
    pushed when a term enters the worklist; an entry whose term has
    since left the worklist is skipped when popped.  The total word
    length is carried from the parent term, because a rewrite keeps the
    content.  A table kept for the call maps each consecutive coded row
    pair met to its coded replacement, or to a mark when the pair is
    standard, so the first violation is found by lookups and each pair
    rewrite is built once.  The budget counts rewrite steps, reused
    rewrites included; exceeding it raises, and a negative budget is
    refused.
    """
    if budget < 0:
        raise ValueError(f"negative rewrite budget {budget}")
    row_code = _row_coder(e.num)
    decoded: dict[int, Biproduct] = {}

    def coded(rows: Rows) -> tuple[int, ...]:
        codes = tuple(map(row_code, rows))
        decoded.update(zip(codes, rows))
        return codes

    def pair_rewrite(pair):
        rows = (decoded[pair[0]], decoded[pair[1]])
        if _first_violation(rows) is None:
            return _STANDARD
        return tuple((c, coded(new)) for c, new in _rewrite_pair(*rows))

    work: dict[tuple, int] = {}
    heap: list = []

    def add(codes: tuple, c: int, total: int):
        # c is never 0: input terms are nonzero, and so is every
        # rewrite coefficient
        v = work.get(codes)
        if v is None:
            heappush(heap, (total, codes))
            work[codes] = c
        elif v + c:
            work[codes] = v + c
        else:
            del work[codes]

    for rows, c in e.num.items():
        add(coded(rows), c, sum(len(r.word) for r in rows))
    done: dict[tuple, int] = {}
    pairs: dict[tuple, object] = {}
    steps = 0
    while work:
        total, codes = heappop(heap)
        coeff = work.pop(codes, None)
        if coeff is None:
            continue
        for idx in range(len(codes) - 1):
            pair = codes[idx:idx + 2]
            rewrite = pairs.get(pair)
            if rewrite is None:
                rewrite = pairs[pair] = pair_rewrite(pair)
            if rewrite is not _STANDARD:
                break
        else:
            done[codes] = done.get(codes, 0) + coeff
            continue
        steps += 1
        if steps > budget:
            raise StraighteningBudgetExceeded(f"no fixed point within {budget} steps")
        head, tail = codes[:idx], codes[idx + 2:]
        for c2, new in rewrite:
            add(head + new + tail, coeff * c2, total)
    return e._like({tuple(map(decoded.__getitem__, codes)): c
                    for codes, c in done.items()})


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
    places = [_place_row(r) for r in rows]
    return is_standard(rows) and all(
        a < b for upper, lower in zip(places, places[1:])
        for a, b in zip(upper, lower))


def _partitions(total: int, widest: int, rows: int):
    """Partitions of ``total`` into at most ``rows`` parts of at most
    ``widest``, largest part first."""
    if total == 0:
        yield ()
    elif rows:
        for first in range(min(total, widest), 0, -1):
            for rest in _partitions(total - first, first, rows - 1):
                yield (first,) + rest


def _fillings(shape, content: dict, strict_rows: bool, above=()):
    """Fillings of the rows of ``shape`` that use up ``content`` exactly,
    below the row ``above``.

    Rows and columns are sorted: with ``strict_rows`` rows increase
    strictly and columns weakly (the letters of a doubly standard
    product), otherwise rows weakly and columns strictly (its places).
    """
    if not shape:
        yield ()
        return
    pool = sorted(x for x, c in content.items() if c
                  for _ in range(1 if strict_rows else c))
    for row in dict.fromkeys(combinations(pool, shape[0])):
        if all(a <= b if strict_rows else a < b for a, b in zip(above, row)):
            rest = dict(content)
            for x in row:
                rest[x] -= 1
            for below in _fillings(shape[1:], rest, strict_rows, row):
                yield (row,) + below


def _degrees(places) -> tuple[tuple[int, int], ...]:
    return tuple((p, places.count(p)) for p in sorted(set(places)))


def _standard_candidates(content: dict[str, int], pdeg: dict[int, int]):
    """Doubly standard products with the exact content and place degrees:
    for each shape, every letter filling against every place filling.
    Rows hold distinct letters and columns distinct places."""
    for shape in _partitions(sum(pdeg.values()), len(content), len(pdeg)):
        places = [tuple(map(_degrees, f)) for f in _fillings(shape, pdeg, False)]
        for words in _fillings(shape, content, True):
            for degrees in places:
                yield tuple(map(Biproduct, words, degrees))


# The echelon of each letter pattern, built once on the letters of the
# first component met with it; every other component of the pattern
# reaches it through the order-preserving renaming of its letters (see
# letterplace._shared_echelon).  Its memory grows with the number of
# patterns met, not of components: a seed-0 pass of the exchange and
# polarization sweeps meets 337 components of 29 patterns.
_component_echelons: dict[tuple, tuple] = {}


def _build_component_echelon(pdeg_t, content_t, m: int) -> linalg.SparseEchelon:
    """The echelon of the doubly standard products of one (place
    degrees, letter content) component, each labelled by its rows.
    It is the same for every m that holds the places."""
    echelon = linalg.SparseEchelon()
    for rows in _standard_candidates(dict(content_t), dict(pdeg_t)):
        if not echelon.insert(_row_product_terms(rows, m), label=rows):
            raise AssertionError("standard products are dependent")
    return echelon


def standard_expansion(e: LetterplaceElement,
                       components: dict | None = None) -> BitableauElement:
    """Exact coordinates of an element in the doubly standard basis.

    Works one (place degree, letter content) component at a time,
    against the echelon of the component's letter pattern; every
    candidate must add a pivot and every component must reduce to
    zero, so a failure of either spanning or independence raises
    instead of returning a wrong answer.  ``components``, when given,
    is ``_graded_components(e)``, split once by a caller that also
    hands it to the membership oracle.
    """
    m = e.m
    out: dict[Rows, int] = {}
    if components is None:
        components = _graded_components(e)
    for (pdeg_t, content_t), vec in components.items():
        pattern, letters = _letter_pattern(pdeg_t, content_t)
        renaming, echelon = _shared_echelon(
            _component_echelons, pattern, letters,
            lambda: _build_component_echelon(pdeg_t, content_t, m))
        if renaming:
            back = dict(zip(renaming.values(), renaming))
        coords: dict = {}
        if echelon.reduce(_renamed(vec, renaming), coords):
            raise AssertionError("standard products failed to span")
        for rows, c in coords.items():
            if c.denominator != 1:
                raise AssertionError("non-integral standard coordinates")
            if renaming:
                rows = tuple(Biproduct(tuple(back[x] for x in r.word), r.degrees)
                             for r in rows)
            out[rows] = c.numerator
    return BitableauElement._trusted(out, 1, m)


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

    lhs = LetterplaceElement._sum(
        ((expand_raw(u + v1, pdeg, m) * expand_raw(v2 + w, qdeg, m), sign)
         for size in range(len(v) + 1)
         for sign, (v1, v2) in word_slices(v, (size, len(v) - size))), m)

    places = sorted(qdeg)
    sign_uv = (-1) ** (len(u) * len(v))

    def rhs_parts():
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
                    yield (expand_raw(v + u1, newp, m) * expand_raw(u2 + w, newq, m),
                           sign_uv * su * cr * (-1) ** len(u2))

    return lhs, LetterplaceElement._sum(rhs_parts(), m)
