from itertools import combinations, product

from extensor.words import inversions, position_slices


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
