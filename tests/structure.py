"""A word's FS-double squares and adjacent pairs, read off its one census."""

from fsdsq.census import s_sequence
from fsdsq.double_squares import find_fs_double_squares
from fsdsq.pairs import find_double_square_pairs


def squares_of(w):
    return find_fs_double_squares(w, s_sequence(w).roots)


def pairs_of(w):
    return find_double_square_pairs(squares_of(w))
