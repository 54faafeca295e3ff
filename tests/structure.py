"""A word's FS-double squares and adjacent pairs, read off its one census,
and records built from a given split."""

from fsdsq.census import s_sequence
from fsdsq.double_squares import FsDoubleSquare, find_fs_double_squares
from fsdsq.pairs import find_double_square_pairs
from fsdsq.words import Word


def squares_of(w):
    return find_fs_double_squares(w, s_sequence(w).roots)


def pairs_of(w):
    return find_double_square_pairs(squares_of(w))


def double_square(position, x1, x2, p1, p2):
    """The record at ``position`` of the split (x1, x2, p1, p2), given as
    texts and exponents: the constructor reads it off the bytes of the long
    root (x1 x2)^p1 x1 (x1 x2)^p2 and must give the parts back unchanged."""
    sq = (x1 + x2) * p1 + x1
    SQ = sq + (x1 + x2) * p2
    fs = FsDoubleSquare(Word.from_text(SQ).codes, 0, position, len(sq), len(SQ))
    assert (fs.x1.text, fs.x2.text, fs.p1, fs.p2) == (x1, x2, p1, p2)
    return fs
