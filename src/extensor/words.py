"""Word combinatorics shared by the exterior and letterplace layers.

A word is a tuple of pairwise distinct, totally ordered atoms: basis
indices on the coordinate side, letters on the letterplace side.  All
signs are permutation parities relative to the written order of the
word, so the same helpers serve both sides.

:func:`sort_word`, :func:`merge_words` and :func:`word_slices` are
pure functions of their (tuple) arguments, and a computation meets only
a few hundred distinct ones, so each looks its answer up in a private
unbounded table (``_sort``, ``_merge`` and ``_slices``, see their
``cache_info()``) that lives as long as the process.  The answers are
immutable tuples.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import combinations


def inversions(seq) -> int:
    count = 0
    for i in range(len(seq)):
        for j in range(i + 1, len(seq)):
            if seq[i] > seq[j]:
                count += 1
    return count


def sort_with_sign(seq):
    """Sort ``seq`` into a word, returning ``(sign, word)``.

    The sign is the parity of the sorting permutation, or 0 when an
    atom repeats (in which case the word is empty).
    """
    items = tuple(seq)
    if len(set(items)) != len(items):
        return 0, ()
    return (-1) ** inversions(items), tuple(sorted(items))


def sort_word(word):
    """:func:`sort_with_sign` of a word of letters, looked up in a table:
    the straightening rewrite sorts the same few words over and over."""
    return _sort(tuple(word))


_sort = lru_cache(maxsize=None)(sort_with_sign)


def merge_words(u, v):
    """Merge two sorted words, returning ``(sign, merged)``.

    Returns ``(0, None)`` when the words share an atom.  The sign is
    the parity of the shuffle taking the concatenation uv to sorted
    order.
    """
    return _merge(tuple(u), tuple(v))


@lru_cache(maxsize=None)
def _merge(u: tuple, v: tuple):
    if set(u) & set(v):
        return 0, None
    cross = sum(1 for x in u for y in v if x > y)
    return (-1) ** cross, tuple(sorted(u + v))


def position_slices(n, parts):
    """Ordered partitions of ``range(n)`` into blocks of the given sizes.

    Yields ``(sign, blocks)`` where each block keeps its positions in
    increasing order and the sign is the parity of the concatenation of
    the blocks as a permutation of ``range(n)``.  Yields nothing when a
    part is negative or the sizes do not sum to ``n``.
    """
    parts = tuple(parts)
    if any(p < 0 for p in parts) or sum(parts) != n:
        return
    if len(parts) < 2:
        yield 1, ((tuple(range(n)),) if parts else ())
        return
    # the first block makes sum(block) - k(k-1)/2 inversions with the
    # positions left after it, which the other blocks slice in their own
    # order; the last block is what is left
    k = parts[0]
    base = k * (k - 1) // 2
    tails = None if len(parts) == 2 else tuple(position_slices(n - k, parts[1:]))
    for block in combinations(range(n), k):
        sign = -1 if (sum(block) - base) & 1 else 1
        taken = set(block)
        rest = tuple(i for i in range(n) if i not in taken)
        if tails is None:
            yield sign, (block, rest)
            continue
        for tail_sign, tail in tails:
            yield sign * tail_sign, (block,) + tuple(
                tuple(rest[i] for i in b) for b in tail)


def word_slices(word, parts):
    """Signed slices of ``word`` into subwords of the given sizes: a
    tuple of ``(sign, blocks)`` in :func:`position_slices` order."""
    return _slices(tuple(word), tuple(parts))


@lru_cache(maxsize=None)
def _slices(word: tuple, parts: tuple):
    return tuple((sign, tuple(tuple(word[i] for i in b) for b in blocks))
                 for sign, blocks in position_slices(len(word), parts))
