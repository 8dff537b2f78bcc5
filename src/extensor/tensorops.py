"""The sparse term kernel shared by every element type.

:class:`SparseTerms` is the one arithmetic class: the exterior, tensor
power, letterplace and bitableau elements all store their terms in it
and share its module operations.  An element keeps integer numerators
``num`` over one positive denominator ``den``, reduced so that the pair
is unique, and every sum, product, slice and geometric product runs on
ints.  The coefficients lie in the class's ``ring``.  Over ``Fraction``
(exterior and tensor power elements) ``terms`` is a ``{key: Fraction}``
view made on each read, and a ``Fraction`` is made only for that view
and for the scalars the API returns.  Over ``int`` (:class:`IntegerTerms`,
the letterplace side) ``den`` is always 1 and ``terms`` is ``num``.

There is one product.  :meth:`SparseTerms.__mul__` multiplies two
elements of one class with :func:`_product_terms`, the bilinear
extension of the product of two basis keys that the class names as
``_merge``: the word merge for exterior elements (so ``*`` on them is
the wedge), :func:`_fold_merge` for tensor powers (the Z2-graded
product: fold-wise merges with the Koszul sign of the folds crossed),
the place-major monomial merge for letterplace elements, and
:func:`_concat` for bitableaux.  A key product and the geometric
product kernel :func:`diamond_terms` fold every +-1 factor of a term
(Koszul, slice and merge signs) into one int sign, so a term costs at
most one coefficient product.  :func:`diamond_terms` is also the
letterplace polarizations, run on numerators regrouped by place into
letter folds.  The kernels never divide: their terms are integers or
numerators.  The outer-product kernel sums pure
tensors for its one caller, ``TensorPowerElement._pure_sum``.

Summation lives here too.  Every linear and bilinear map in the package
is defined on basis keys and extended linearly; it hands its
(key, numerator) images to :func:`_sum_terms` or :func:`_product_terms`,
or its (element, coefficient) parts to :meth:`SparseTerms._sum`, and
the trusted constructor :meth:`SparseTerms._trusted`, which takes
ownership of the dict it gets, drops the keys that cancelled.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm

from .words import merge_words, word_slices


class SparseTerms:
    """A finite combination of basis keys with exact coefficients.

    ``num`` maps keys to nonzero int numerators and ``den`` is a
    positive int, the coefficient of a key being ``num[key] / den`` in
    the class's ``ring``.  The pair is reduced, ``gcd(den,
    *num.values()) == 1``, which makes ``den`` the least common
    denominator of the coefficients and the pair unique, so ``==``
    compares it directly.  Over the default ring ``Fraction``, ``terms``
    is a ``{key: Fraction}`` view for outside readers, made afresh on
    each read; :class:`IntegerTerms` keeps ``den == 1`` and reads
    ``terms`` as ``num`` itself.

    The module operations are defined here once.  A subclass maps its
    shape slots (``dim`` and/or ``m``) in ``_shape`` to the error raised
    when operands differ there, validates keys in ``_valid_key``, prints
    them with ``_key_str`` (ordered by ``_sort_key``), and names the
    product of two keys in ``_merge`` for :meth:`__mul__`.  The public
    constructor of each subclass validates every key and coerces every
    coefficient (``_store``); kernel output goes through :meth:`_trusted`
    instead, which is never re-validated and takes ownership of the
    dict it gets.
    """

    __slots__ = ("num", "den")
    _shape: dict[str, type[Exception]] = {}
    ring: type = Fraction

    @classmethod
    def _trusted(cls, num: dict, den: int, *shape):
        """Trusted element ``num / den`` for int numerators and a positive
        ``den``, zeros dropped and reduced by the gcd of the pair.

        It takes ownership of ``num``: when ``num`` holds no zero (one
        ``0 in num.values()`` scan) and the pair has no common factor,
        the element keeps ``num`` as it stands, so a caller must not
        change a dict after handing it over.
        """
        out = object.__new__(cls)
        for name, value in zip(cls._shape, shape):
            setattr(out, name, value)
        if 0 in num.values():
            num = {k: n for k, n in num.items() if n}
        if den != 1:
            g = gcd(den, *num.values())
            if g != 1:
                num = {k: n // g for k, n in num.items()}
                den //= g
        out.num, out.den = num, den
        return out

    def _like(self, num: dict, den: int = 1):
        """Trusted element of the same class and shape as ``self``."""
        return self._trusted(num, den, *self._shape_values())

    def _shape_values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._shape)

    def _store(self, terms):
        """Store public-constructor terms (see ``_clean``)."""
        self.num, self.den = _over_common_denominator(self._clean(terms))

    def _coerce(self, value):
        """``value`` in the ring; the integers refuse a non-integral value."""
        c = self.ring(value)
        if self.ring is int and c != value:
            raise TypeError(f"{value!r} is not an integer")
        return c

    def _clean(self, terms) -> dict:
        """Public-constructor terms: coefficients coerced into the ring,
        zeros dropped, the remaining keys validated."""
        clean = {}
        for key, coeff in (terms or {}).items():
            c = self._coerce(coeff)
            if c:
                clean[self._valid_key(key)] = c
        return clean

    @property
    def terms(self) -> dict:
        den = self.den
        return {k: Fraction(n, den) for k, n in self.num.items()}

    @staticmethod
    def _sort_key(key):
        return (len(key), key)

    @classmethod
    def zero(cls, *shape):
        return cls(*shape)

    @classmethod
    def unit(cls, *shape):
        return cls(*shape, {(): 1})

    def _check(self, other):
        for name, error in self._shape.items():
            mine, theirs = getattr(self, name), getattr(other, name)
            if mine != theirs:
                raise error(f"{name} {mine} and {theirs} differ")

    @classmethod
    def _sum(cls, parts, *shape, den: int = 1):
        """Trusted ``sum(c * x) / den`` over the ``(x, c)`` parts, each of
        this class with a ``c`` in its ring; a part of another shape
        raises as ``+`` does.  The parts are written over the least
        common multiple of their denominators and summed on ints."""
        out = cls._trusted({}, 1, *shape)
        parts = list(parts)
        for x, _ in parts:
            out._check(x)
        common = lcm(*(x.den * c.denominator for x, c in parts))
        return out._like(_sum_terms(
            (k, f * n) for x, c in parts
            for f in [c.numerator * (common // (x.den * c.denominator))]
            for k, n in x.num.items()), common * den)

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        den = lcm(self.den, other.den)
        fa, fb = den // self.den, den // other.den
        out = dict(self.num) if fa == 1 else {k: n * fa for k, n in self.num.items()}
        for k, n in other.num.items():
            out[k] = out.get(k, 0) + n * fb
        return self._like(out, den)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({k: -n for k, n in self.num.items()}, self.den)

    def scale(self, scalar):
        """Every coefficient times ``scalar``, which must lie in the ring."""
        s = self._coerce(scalar)
        p = s.numerator
        return self._like({k: p * n for k, n in self.num.items()},
                          s.denominator * self.den)

    __rmul__ = scale

    def __mul__(self, other):
        """The product with an element of this class; any other operand
        is a scalar."""
        if type(other) is not type(self):
            return self.scale(other)
        self._check(other)
        return self._like(_product_terms(self.num, other.num, self._merge),
                          self.den * other.den)

    def __eq__(self, other) -> bool:
        return (type(other) is type(self)
                and self._shape_values() == other._shape_values()
                and self.den == other.den and self.num == other.num)

    def __bool__(self) -> bool:
        return bool(self.num)

    def __str__(self) -> str:
        items = sorted(self.terms.items(), key=lambda kv: self._sort_key(kv[0]))
        return format_terms(items, self._key_str)

    def __repr__(self) -> str:
        shape = "".join(f"{v!r}, " for v in self._shape_values())
        return f"{type(self).__name__}({shape}{self.terms!r})"


class IntegerTerms(SparseTerms):
    """Integer combination over ``m`` places: the letterplace side.

    Every element has ``den == 1``, and ``terms`` is ``num`` itself.
    """

    __slots__ = ("m",)
    _shape = {"m": ValueError}
    ring = int

    def __init__(self, m: int, terms=None):
        if m < 1:
            raise ValueError("need at least one place")
        self.m = m
        self._store(terms)

    @property
    def terms(self) -> dict:
        return self.num


def _over_common_denominator(terms: dict):
    """``(num, den)`` for rational ``terms``: ``den`` the least common
    denominator, ``num[k] == terms[k] * den``."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {k: c.numerator * (den // c.denominator) for k, c in terms.items()}, den


def _sum_terms(pairs) -> dict:
    """Sum (key, coefficient) pairs into one dict; keys that cancel stay
    at zero for the trusted constructor to drop."""
    out: dict = {}
    for key, c in pairs:
        if key in out:
            out[key] += c
        else:
            out[key] = c
    return out


def _product_terms(a: dict, b: dict, merge) -> dict:
    """The product of two maps from keys to numerators, with
    ``merge(u, v)`` the ``(sign, key)`` product of two keys, sign 0 when
    it vanishes; keys that cancel stay at zero."""
    out: dict = {}
    for u, x in a.items():
        for v, y in b.items():
            sign, w = merge(u, v)
            if sign:
                p = x * y if sign > 0 else -x * y
                if w in out:
                    out[w] += p
                else:
                    out[w] = p
    return out


def _concat(u: tuple, v: tuple):
    """The free product of two keys: their concatenation."""
    return 1, u + v


def _fold_merge(u: tuple, v: tuple):
    """The Z2-graded product of two m-fold keys: fold-wise merges, each
    fold of ``v`` crossing the later folds of ``u``."""
    sign, crossed, folds = 1, 0, []
    for x, y in zip(u, v):
        s, w = merge_words(x, y)
        if s == 0:
            return 0, None
        sign *= -s if len(x) * crossed & 1 else s
        crossed += len(y)
        folds.append(w)
    return sign, tuple(folds)


def outer_sum_terms(parts) -> dict:
    """Sum of ``c * (f_1 (x) ... (x) f_m)`` over the ``(c, factors)``
    parts, each factor a map from words to numerators, into one map from
    m-tuples of words; keys that cancel stay at zero."""
    out: dict = {}
    for c, factors in parts:
        terms = {(): c}
        for f in factors:
            terms = {key + (w,): x * n for key, x in terms.items() for w, n in f.items()}
        if not out:
            out = terms
            continue
        for key, x in terms.items():
            if key in out:
                out[key] += x
            else:
                out[key] = x
    return out


def fold_sort_key(key):
    """Print order of m-fold keys: fold by fold, shorter words first."""
    return tuple((len(w), w) for w in key)


def format_terms(items, key_str) -> str:
    """Render sorted (key, coeff) pairs in the canonical sum syntax."""
    if not items:
        return "0"
    parts = []
    for key, coeff in items:
        mono = key_str(key)
        mag = abs(coeff)
        if mono == "1":
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag} {mono}"
        parts.append(("-" if coeff < 0 else "+", body))
    first_sign, first_body = parts[0]
    text = ("-" if first_sign == "-" else "") + first_body
    for sign, body in parts[1:]:
        text += f" {sign} {body}"
    return text


def diamond_terms(terms: dict, h: int, dest: int, src: int, m: int) -> dict:
    """Geometric product kernel: slice fold ``src``, graft onto ``dest``.

    ``src < dest`` raises: the top part of the (a-h, h) slice of the
    source is wedged onto the left of the destination.  ``src > dest``
    lowers: the bottom part of the (h, a-h) slice is wedged onto the
    right.  ``src == dest`` is the diagonal operator, defined for h = 1
    only, scaling each term by the step of the fold.
    """
    if h < 0:
        raise ValueError("negative power")
    if not (1 <= dest <= m and 1 <= src <= m):
        raise ValueError(f"fold out of range for m={m}")
    if dest == src:
        if h != 1:
            raise ValueError("diagonal geometric product is defined for h = 1 only")
        return {key: c * len(key[src - 1]) for key, c in terms.items()}
    if h == 0:
        return dict(terms)

    lo, hi = min(dest, src), max(dest, src)
    raising = src < dest

    def pairs():
        for key, c in terms.items():
            w = key[src - 1]
            if h > len(w):
                continue
            between = sum(len(key[k]) for k in range(lo, hi - 1))
            pref = -1 if (h * between) & 1 else 1
            parts = (len(w) - h, h) if raising else (h, len(w) - h)
            target = key[dest - 1]
            for sl_sign, blocks in word_slices(w, parts):
                kept, moved = blocks if raising else blocks[::-1]
                msign, merged = (merge_words(moved, target) if raising
                                 else merge_words(target, moved))
                if msign:
                    folds = list(key)
                    folds[src - 1], folds[dest - 1] = kept, merged
                    sign = pref * sl_sign * msign
                    yield tuple(folds), c if sign > 0 else -c

    return _sum_terms(pairs())
