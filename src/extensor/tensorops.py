"""The sparse term kernel shared by every element type.

:class:`SparseTerms` is the common base of the exterior, tensor power,
letterplace, free tensor and bitableau elements: a map from basis keys
to exact coefficients with the module operations on it.  The fold-wise
kernels below serve both tensor powers.  Their terms are maps from
m-tuples of words to coefficients.  The product is the Z2-graded one;
the raising and lowering geometric products move a degree-h slice of
the source fold into the destination fold with the Koszul sign of the
folds crossed on the way.
"""

from __future__ import annotations

from .words import merge_words, word_slices


class SparseTerms:
    """A finite combination of basis keys with exact coefficients.

    ``terms`` maps keys to nonzero coefficients of the class's ``ring``
    (``Fraction`` or ``int``).  A subclass maps its shape slots (``dim``
    and/or ``m``) in ``_shape`` to the error raised when operands differ
    there, validates keys in ``_valid_key``, prints them with
    ``_key_str`` (ordered by ``_sort_key``), and defines its own product.

    The public constructor of each subclass validates every key and
    coerces every coefficient.  Kernel output goes through
    :meth:`_trusted` instead, which is never re-validated: it only drops
    zero coefficients, so no element ever stores one.
    """

    __slots__ = ("terms",)
    _shape: dict[str, type[Exception]] = {}
    ring: type = int

    @classmethod
    def _trusted(cls, terms: dict, *shape):
        out = object.__new__(cls)
        for name, value in zip(cls._shape, shape):
            setattr(out, name, value)
        out.terms = {k: c for k, c in terms.items() if c}
        return out

    def _like(self, terms: dict):
        """Trusted element of the same class and shape as ``self``."""
        return self._trusted(terms, *self._shape_values())

    def _shape_values(self) -> tuple:
        return tuple(getattr(self, name) for name in self._shape)

    def _clean(self, terms) -> dict:
        """Public-constructor terms: coefficients coerced into the ring,
        zeros dropped, the remaining keys validated."""
        clean = {}
        for key, coeff in (terms or {}).items():
            c = self.ring(coeff)
            if c:
                clean[self._valid_key(key)] = c
        return clean

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

    def __add__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        self._check(other)
        out = dict(self.terms)
        for k, c in other.terms.items():
            out[k] = out.get(k, 0) + c
        return self._like(out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return self._like({k: -c for k, c in self.terms.items()})

    def scale(self, scalar):
        """Every coefficient times ``scalar``, coerced into the ring."""
        s = self.ring(scalar)
        if self.ring is int and s != scalar:
            raise TypeError(f"scalar {scalar!r} is not an integer")
        return self._like({k: s * c for k, c in self.terms.items()})

    __mul__ = __rmul__ = scale

    def __eq__(self, other) -> bool:
        return (type(other) is type(self)
                and self._shape_values() == other._shape_values()
                and self.terms == other.terms)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __str__(self) -> str:
        items = sorted(self.terms.items(), key=lambda kv: self._sort_key(kv[0]))
        return format_terms(items, self._key_str)

    def __repr__(self) -> str:
        shape = "".join(f"{v!r}, " for v in self._shape_values())
        return f"{type(self).__name__}({shape}{self.terms!r})"


class IntegerTerms(SparseTerms):
    """Integer combination over ``m`` places: the letterplace side."""

    __slots__ = ("m",)
    _shape = {"m": ValueError}
    ring = int

    def __init__(self, m: int, terms=None):
        if m < 1:
            raise ValueError("need at least one place")
        self.m = m
        self.terms = self._clean(terms)


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


def graded_product_terms(a_terms: dict, b_terms: dict) -> dict:
    out: dict = {}
    for ka, ca in a_terms.items():
        for kb, cb in b_terms.items():
            koszul = sum(len(ka[i]) * len(kb[j])
                         for i in range(len(ka)) for j in range(i))
            sign = -1 if koszul % 2 else 1
            folds = []
            for u, v in zip(ka, kb):
                s, w = merge_words(u, v)
                if s == 0:
                    folds = None
                    break
                sign *= s
                folds.append(w)
            if folds is None:
                continue
            key = tuple(folds)
            c = out.get(key, 0) + sign * ca * cb
            if c:
                out[key] = c
            elif key in out:
                del out[key]
    return out


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
        out = {}
        for key, c in terms.items():
            v = c * len(key[src - 1])
            if v:
                out[key] = v
        return out
    if h == 0:
        return dict(terms)

    lo, hi = min(dest, src), max(dest, src)
    out: dict = {}
    for key, c in terms.items():
        w = key[src - 1]
        a = len(w)
        if h > a:
            continue
        between = sum(len(key[k]) for k in range(lo, hi - 1))
        pref = -1 if (h * between) % 2 else 1
        parts = (a - h, h) if src < dest else (h, a - h)
        moved_at = 1 if src < dest else 0
        for sl_sign, blocks in word_slices(w, parts):
            moved = blocks[moved_at]
            kept = blocks[1 - moved_at]
            if src < dest:
                msign, merged = merge_words(moved, key[dest - 1])
            else:
                msign, merged = merge_words(key[dest - 1], moved)
            if msign == 0:
                continue
            folds = list(key)
            folds[src - 1] = kept
            folds[dest - 1] = merged
            nk = tuple(folds)
            v = out.get(nk, 0) + c * pref * sl_sign * msign
            if v:
                out[nk] = v
            elif nk in out:
                del out[nk]
    return out
