"""Naive reference implementations used as test oracles.

Everything here is deliberately brute force (triple loops, string slicing,
rotation enumeration) and stays independent of the code paths it checks.
"""

from __future__ import annotations

from itertools import product

ALPHABET = "abcdefghijklmnopqrstuvwxyz"


def oracle_squares(text: str) -> list[tuple[int, int]]:
    """All square occurrences as 1-based (start, root_len), triple loop."""
    n = len(text)
    out = []
    for i in range(n):
        for p in range(1, (n - i) // 2 + 1):
            if text[i:i + p] == text[i + p:i + 2 * p]:
                out.append((i + 1, p))
    return out


def oracle_rightmost(text: str) -> dict[str, int]:
    """Last start of every distinct square value, via string dedup."""
    out: dict[str, int] = {}
    for start, p in oracle_squares(text):
        out[text[start - 1:start - 1 + 2 * p]] = start
    return out


def oracle_s(text: str, rightmost: dict[str, int] | None = None) -> list[int]:
    """s_i of every position, counted off ``rightmost``, the
    ``oracle_rightmost(text)`` map a caller already has, or a new one."""
    if rightmost is None:
        rightmost = oracle_rightmost(text)
    s = [0] * len(text)
    for start in rightmost.values():
        s[start - 1] += 1
    return s


def oracle_runs_of_two(s: list[int]) -> list[tuple[int, int]]:
    """1-based (start, length) of every maximal run of 2's, by a scan of s."""
    runs = []
    i = 0
    while i < len(s):
        if s[i] == 2:
            j = i
            while j < len(s) and s[j] == 2:
                j += 1
            runs.append((i + 1, j - i))
            i = j
        else:
            i += 1
    return runs


def oracle_longest_run(text: str) -> tuple[int, int]:
    """The first of the longest runs of 2's; (0, 0) if there is none."""
    best = (0, 0)
    for run in oracle_runs_of_two(oracle_s(text)):
        if run[1] > best[1]:
            best = run
    return best


def oracle_later_match(text: str) -> list[int]:
    """m[i] = longest common extension of the suffix at i with any later
    suffix (0 if none), by the quadratic suffix-pair recurrence
    lce(i, j) = lce(i+1, j+1) + 1 when text[i] == text[j]; m[n] = 0."""
    n = len(text)
    m = [0] * (n + 1)
    below = [0] * (n + 1)  # lce(i + 1, j) for every j
    for i in range(n - 1, -1, -1):
        row = [0] * (n + 1)
        for j in range(i + 1, n):
            if text[i] == text[j]:
                row[j] = below[j + 1] + 1
        m[i] = max(row)
        below = row
    return m


def oracle_lce(text: str, i: int, j: int) -> int:
    """1-based naive character scan."""
    a, b = text[i - 1:], text[j - 1:]
    k = 0
    while k < len(a) and k < len(b) and a[k] == b[k]:
        k += 1
    return k


def oracle_primitive_root(text: str) -> tuple[str, int]:
    """The shortest u with text == u * k, and k."""
    n = len(text)
    d = next(d for d in range(1, n + 1) if n % d == 0 and text == text[:d] * (n // d))
    return text[:d], n // d


def oracle_is_primitive(text: str) -> bool:
    n = len(text)
    for d in range(1, n):
        if n % d == 0 and text == text[:d] * (n // d):
            return False
    return True


def oracle_factorization(sq: str, SQ: str) -> list[tuple[str, str, int, int]]:
    """Every split (x1, x2, p1, p2) with sq = (x1 x2)^p1 x1, SQ = sq (x1 x2)^p2,
    x1 and x2 nonempty, x1 x2 primitive and p1 >= p2 >= 1, by brute force
    over every |x1|, |x2|, p1 and p2 that the lengths allow."""
    out = []
    for a in range(1, len(sq)):
        for b in range(1, len(sq) - a + 1):
            for p1 in range(1, len(sq) // (a + b) + 1):
                if (a + b) * p1 + a != len(sq):
                    continue
                for p2 in range(1, p1 + 1):
                    if len(sq) + (a + b) * p2 != len(SQ):
                        continue
                    x1, x2 = sq[:a], sq[a:a + b]
                    u = x1 + x2
                    if u * p1 + x1 == sq and sq + u * p2 == SQ and oracle_is_primitive(u):
                        out.append((x1, x2, p1, p2))
    return out


def oracle_rotations(text: str) -> set[str]:
    return {text[k:] + text[:k] for k in range(max(len(text), 1))}


def all_words(alphabet_size: int, length: int):
    """Every word of exactly ``length`` over the first letters, as text."""
    letters = ALPHABET[:alphabet_size]
    for combo in product(letters, repeat=length):
        yield "".join(combo)


def canonical_words(alphabet_size: int, length: int):
    """Words in first-occurrence canonical form (restricted growth)."""
    for text in all_words(alphabet_size, length):
        seen: dict[str, str] = {}
        ok = True
        for ch in text:
            if ch not in seen:
                if ch != ALPHABET[len(seen)]:
                    ok = False
                    break
                seen[ch] = ch
        if ok:
            yield text
