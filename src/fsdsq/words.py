"""Alphabet-generic word primitives.

A word is an immutable sequence of small integer symbol codes.  Textual I/O
maps lowercase letters to codes by alphabet index (a -> 0, b -> 1, ...).
Positions in everything this package *reports* are 1-based, matching the
usual tabular presentation of words; Python-level indexing on ``Word``
itself stays 0-based.
"""

from __future__ import annotations

from math import isqrt
from typing import Iterable, Iterator

_LETTERS = b"abcdefghijklmnopqrstuvwxyz"
_DECODE = bytes.maketrans(_LETTERS, bytes(range(26)))
# Codes past the 26 letters map to 0xff, which the ASCII decode rejects.
_ENCODE = _LETTERS + b"\xff" * 230


class Word:
    """Immutable word over an indexed alphabet, backed by ``bytes``."""

    __slots__ = ("codes",)

    def __init__(self, codes: bytes | bytearray | Iterable[int] = b"") -> None:
        self.codes = bytes(codes)

    @classmethod
    def from_text(cls, text: str) -> "Word":
        """Decode a lowercase-letter string (a=0, b=1, ...)."""
        raw = text.encode("ascii", "replace")  # a non-ASCII character becomes "?"
        if raw.translate(None, _LETTERS):
            ch = next(ch for ch in text if not "a" <= ch <= "z")
            raise ValueError(f"invalid word character {ch!r}: lowercase letters only")
        return cls(raw.translate(_DECODE))

    @property
    def text(self) -> str:
        try:
            return self.codes.translate(_ENCODE).decode("ascii")
        except UnicodeDecodeError:
            raise ValueError("word uses codes beyond the 26-letter textual alphabet") from None

    def __len__(self) -> int:
        return len(self.codes)

    def __iter__(self) -> Iterator[int]:
        return iter(self.codes)

    def __getitem__(self, item: int | slice) -> "int | Word":
        if isinstance(item, slice):
            return Word(self.codes[item])
        return self.codes[item]

    def __add__(self, other: "Word") -> "Word":
        return Word(self.codes + other.codes)

    def __mul__(self, times: int) -> "Word":
        return Word(self.codes * times)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Word) and self.codes == other.codes

    def __hash__(self) -> int:
        return hash(self.codes)

    def __repr__(self) -> str:
        try:
            return f"Word({self.text!r})"
        except ValueError:
            return f"Word({list(self.codes)!r})"


def lcp(u: Word | bytes, v: Word | bytes) -> int:
    """Length of the longest common prefix of two words or their bytes."""
    a = u.codes if isinstance(u, Word) else u
    b = v.codes if isinstance(v, Word) else v
    m = min(len(a), len(b))
    if a[:m] == b[:m]:
        return m
    return next(i for i in range(m) if a[i] != b[i])  # some i differs: the slices did


def root_length(codes: bytes) -> int:
    """Length of the primitive root of the nonempty word with these bytes.

    It is d, the least divisor of n = |w| that is a period of w (w[d:] ==
    w[:n-d]); d = n always is.  A period d dividing n gives w = (w[:d])^(n/d).
    If w[:d] = v^j with j >= 2, then |v| is a period of w that divides n and
    is smaller than d, so w[:d] is primitive.  If w = v^j, |v| is a period
    dividing n, so d <= |v|: w[:d] is shortest.  The divisors are tried in
    ascending order: those up to isqrt(n), then their cofactors, with one
    slice compare each.
    """
    n = len(codes)
    if n == 0:
        raise ValueError("empty word has no primitive root")
    root = isqrt(n)
    for d in range(1, root + 1):
        if n % d == 0 and codes[d:] == codes[:n - d]:
            return d
    for k in range(root, 1, -1):
        d = n // k
        if n % k == 0 and codes[d:] == codes[:n - d]:
            return d
    return n


def are_conjugate(u: Word | bytes, v: Word | bytes) -> bool:
    """True iff v is a cyclic rotation of u; u and v are words or their
    bytes.  The rotation by one letter is tried first: by the slide fact of
    ``pairs``, it is the rotation of every equal pair."""
    a = u.codes if isinstance(u, Word) else u
    b = v.codes if isinstance(v, Word) else v
    return len(a) == len(b) and (b == a[1:] + a[:1] or b in a + a)
