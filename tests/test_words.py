from itertools import combinations, product

from hypothesis import given, settings, strategies as st

from extensor.words import inversions, merge_words, position_slices, word_slices


def recursive_position_slices(n, parts):
    """The reference definition: choose each block in turn from the
    positions left, and sign the concatenation by counting inversions."""
    parts = tuple(parts)
    if any(p < 0 for p in parts) or sum(parts) != n:
        return

    def rec(remaining, sizes):
        if not sizes:
            yield ()
            return
        for block in combinations(remaining, sizes[0]):
            taken = set(block)
            rest = tuple(x for x in remaining if x not in taken)
            for tail in rec(rest, sizes[1:]):
                yield (block,) + tail

    for blocks in rec(tuple(range(n)), parts):
        flat = [i for b in blocks for i in b]
        yield (-1) ** inversions(flat), blocks


def test_position_slices_match_the_recursive_definition():
    # every n <= 7 and 0-4 parts, with negative parts and sizes that do
    # not sum to n; order and signs must agree
    for n in range(8):
        for count in range(5):
            for parts in product(range(-1, n + 2), repeat=count):
                assert list(position_slices(n, parts)) == \
                    list(recursive_position_slices(n, parts)), (n, parts)


def reference_merge_words(u, v):
    """The definition without a table: sign of the shuffle of uv."""
    u, v = tuple(u), tuple(v)
    if set(u) & set(v):
        return 0, None
    cross = sum(1 for x in u for y in v if x > y)
    return (-1) ** cross, tuple(sorted(u + v))


def reference_word_slices(word, parts):
    """The definition without a table, as a generator."""
    word = tuple(word)
    for sign, blocks in position_slices(len(word), parts):
        yield sign, tuple(tuple(word[i] for i in b) for b in blocks)


# int atoms (the exterior side) and letter atoms (the letterplace side)
atom_pools = st.sampled_from([tuple(range(1, 7)), tuple("abcdef")])


@st.composite
def word_pair(draw):
    pool = draw(atom_pools)
    u = sorted(draw(st.sets(st.sampled_from(pool), max_size=4)))
    # v draws from the same pool, so shared atoms come up often
    v = sorted(draw(st.sets(st.sampled_from(pool), max_size=4)))
    as_list = draw(st.booleans())
    return (u, v) if as_list else (tuple(u), tuple(v))


@st.composite
def word_and_parts(draw):
    pool = draw(atom_pools)
    word = draw(st.lists(st.sampled_from(pool), unique=True, max_size=5))
    n = len(word)
    if draw(st.booleans()):
        # sizes that sum to n
        cuts = sorted(draw(st.lists(st.integers(0, n), max_size=3)))
        parts = [b - a for a, b in zip([0] + cuts, cuts + [n])]
    else:
        # negative parts and sums other than n, which slice nothing
        parts = draw(st.lists(st.integers(-1, n + 1), max_size=4))
    as_list = draw(st.booleans())
    return (word, parts) if as_list else (tuple(word), tuple(parts))


@settings(max_examples=150, deadline=None)
@given(word_pair())
def test_merge_words_matches_the_definition(pair):
    u, v = pair
    expected = reference_merge_words(u, v)
    first = merge_words(u, v)
    assert first == expected
    assert merge_words(u, v) == first        # a repeat reads the table
    if set(u) & set(v):
        assert first == (0, None)
    else:
        assert type(first[1]) is tuple


@settings(max_examples=150, deadline=None)
@given(word_and_parts())
def test_word_slices_match_the_definition(case):
    word, parts = case
    expected = tuple(reference_word_slices(word, parts))
    first = word_slices(word, parts)
    assert type(first) is tuple
    assert first == expected
    assert word_slices(list(word), list(parts)) == first
    assert all(type(blocks) is tuple and all(type(b) is tuple for b in blocks)
               for _, blocks in first)


def test_tables_tell_calls_apart():
    # the same atoms under other part sizes, or in the other order,
    # must not read each other's entries
    assert merge_words((1,), (2,)) == (1, (1, 2))
    assert merge_words((2,), (1,)) == (-1, (1, 2))
    assert merge_words(("a",), ("b",)) == (1, ("a", "b"))
    assert merge_words((), ()) == (1, ())
    assert word_slices((1, 2, 3), (2, 1)) == tuple(reference_word_slices((1, 2, 3), (2, 1)))
    assert word_slices((1, 2, 3), (1, 2)) == tuple(reference_word_slices((1, 2, 3), (1, 2)))
    assert word_slices((1, 2, 3), (1, 2)) != word_slices((1, 2, 3), (2, 1))
    assert word_slices((), ()) == ((1, ()),)
    assert word_slices((), (0,)) == ((1, ((),)),)
    assert word_slices((1, 2), (3, -1)) == ()
