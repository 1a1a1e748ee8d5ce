"""The census block walk with every block's rows built, for the tests
that read them."""

from pautkit.census import _invariant_blocks


def block_tuples(*args):
    """``census._invariant_blocks(*args)`` as one (block ordinal, U rows,
    F_C rows, lifts, twist basis, twist values) tuple per block."""
    for ordinal, lvals, rows in _invariant_blocks(*args):
        yield (ordinal, *rows(), lvals)
