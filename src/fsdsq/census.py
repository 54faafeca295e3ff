"""The rightmost distinct-square census.

The census assigns every position i of a word the number s_i of distinct
square factors whose *last* occurrence starts at i.  A square occurrence
(i, p) is the last occurrence of its value exactly when no prefix of the
suffix at i of length 2p reappears later, i.e. when 2p exceeds the longest
later match length m_i (the mirror image of the Longest Previous Factor
array of Crochemore & Ilie, IPL 2008).  Eight exact facts about m_i keep
the scan cheap:

* Roots lie in (m_i/2, m_i].  A square of root p at i puts codes[i:i+p]
  again at i+p > i, so p <= m_i; the rightmost test gives 2p > m_i.  With
  q = m_i//2 + 1, every candidate root p puts u = codes[i:i+q] at i+p, so a
  C-level substring search for u in the window i+q .. i+pmax+q lists the
  candidates in ascending order, and one slice compare of the remaining
  p-q letters confirms each.
* Witness step.  m_i <= m_{i+1} + 1, since a later match of the suffix at
  i, minus its first letter, is a later match of the suffix at i+1.  If the
  match of the suffix at i+1 starts again at some j > i+1 and
  codes[j-1] == codes[i], the letter before it extends that occurrence to
  one of length m_{i+1} + 1 at j-1 > i, so the bound is met and no search
  is needed.  If j is the nearest witness of i+1, j-1 is the nearest of i:
  a match at some k in (i, j-1) would put one of the suffix at i+1 at k+1
  < j.
* Witness-period rule.  Let m = m_i, j its witness and d = j - i <= m.
  Then codes[i:i+d+m] has period d, and the period breaks at e = i+d+m
  (codes[e] != codes[e-d], or e is the end of the word), since otherwise
  the match at j would be longer than m.  A root p >= d has 2p <= d+m:
  else e < i+2p, and with p <= m < 2p both e-p and e-d-p lie in
  [i, i+d+m) and [i, i+p), so codes[e] = codes[e-p] = codes[e-p-d] =
  codes[e-d].  Then codes[i:i+2p] has periods p and d, and Fine-Wilf gives
  it period g = gcd(p, d).  As g divides d, all of codes[i:i+d+m] has
  period g, so if g < d the suffix at i+g matches d+m-g > m letters, which
  m = m_i forbids; so d divides p.  Conversely every multiple p of d with
  2p <= d+m is a square of period d.  With m = 2da + r, 0 <= r < 2d,
  p = da has 2p <= m, and p = d(a+1) has 2p > m and 2p <= d+m exactly when
  r >= d: the one root p >= d is (m//2d + 1)d if m mod 2d >= d, and the
  window shrinks to the p < d.  This needs only that j is a witness; the
  nearest one gives the smallest d, which applies the rule most often.
* Window ends.  Let d be the distance of the nearest witness.  If d <= m,
  no root p < d has d-p dividing d: else gcd(p, d) = d-p, so codes[i:i+2p]
  has length p+d-gcd(p, d) and, by Fine-Wilf, period d-p; as 2p > m >= d,
  codes[i:i+d+m] then has period d-p < d, which m = m_i forbids as above.
  So the window ends at d-c, c the least non-divisor of d.  If d > m, m is
  no root, as its square would put a witness at distance m: the window
  ends at m-1.  That end needs no test against the word's end: for m >= 1
  the nearest later match starts more than m letters right of i and fits
  in the word, so n-i >= 2m+1.  A window of one candidate is one slice
  compare.
* m_i from a suffix automaton.  Let R be codes[i+1:] reversed and c =
  codes[i].  A prefix of length L of the suffix at i occurs at a start > i
  exactly when its reverse, the suffix of length L of Rc, is a factor of R.
  So m_i - 1 is the length of the longest suffix v of R with vc a factor of
  R, and m_i = 0 if c does not occur in R.  In the suffix automaton of R
  (Blumer et al., TCS 1985) the suffixes of R are the words of the states on
  the suffix-link path of the last state, longest first; a state holds
  words with one set of end positions in R, so either each of its words is
  followed by c somewhere in R, and the state has a c transition, or none
  is.  Hence m_i = len(p) + 1 for the first state p on that path with a c
  transition, or 0 if there is none.  That p is where the on-line extension
  of the automaton by c stops its walk, so building the automaton of the
  reversed word right to left gives every m_i in amortized O(1) per letter.
* Bounded witness search.  With m = m_i known and the witness test failed,
  one search for codes[i:i+m] in codes[i+1:i+2m] lists the starts k with
  i < k <= i+m; its leftmost hit is the nearest witness, with d <= m.  A
  miss means the nearest witness has d > m, where the witness-period rule
  does not apply, so no longer search is needed.  Each position then
  searches at most 2m letters, never the rest of the word.
* Witness miss.  Let the bounded search of position i+1 miss, so no copy
  of x = codes[i+1:i+1+m_{i+1}] starts at distance 1..m_{i+1} from i+1,
  and let m_i = m_{i+1} + 1.  A copy of codes[i:i+m_i] at distance d <=
  m_i from i, less its first letter, is a copy of x at distance d from
  i+1, so d > m_{i+1}, that is d = m_i.  One slice compare of
  codes[i:i+m_i] with codes[i+m_i:i+2m_i] then finds the nearest witness
  within m_i or a miss, and no search is needed.  On periodic words such
  as the Fibonacci words most bounded searches miss, and most misses are
  followed by this case.
* Periodic chain.  Let the step at i return m = m_i and its nearest witness
  j = i + d > i, with m >= 2d - 3, and let K <= i be the length of the
  longest common suffix of codes[:i] and codes[:j].  For t = 1..K, position
  i - t takes the witness step, since codes[j-t] == codes[i-t]: by induction
  on t, m_{i-t} = M = m + t and its nearest witness is j - t (witness step),
  at the same distance d.  Its root window is empty: M >= m + 1 >= 2d - 2
  gives q = M//2 + 1 >= d, and d <= M (M >= 1, and 2d - 2 >= d for d >= 2)
  leaves only the roots p < d to the window.  So by the witness-period rule
  s_{i-t} = 1, with root (M//2d + 1)d, when M mod 2d >= d, and s_{i-t} = 0
  otherwise.  That square fits in the word: the witness match does, so 2p <=
  d + M <= n - (i-t).  After the chain the state (m + K, j - K) is what the
  step returns at i - K, so the scan resumes with the step at i - K - 1, if
  K < i, whose witness test fails as codes[j-K-1] != codes[i-K-1].  The
  witness step never reads m_{i-t} from the automaton, so nothing inside the
  chain needs it.  The chain's writes split by the residue r of M mod 2d:
  the M of one residue are 2d apart, so their positions i - t = i + m - M
  are 2d apart too, and their roots (M//2d + 1)d are d apart.  So each r in
  [d, 2d) is one extended slice of positions with stride 2d, s = 1 and the
  roots a descending ``range`` with step d; the r < d keep s = 0.

``_census_step`` is the one implementation of the witness step and the
root window.  ``_census_scan`` takes every m_i from ``_later_matches``, the
automaton, and passes it to the step, which then makes only the bounded
witness search or, after a witness miss, one compare.  After each step the
scan tests the premise of the periodic chain and crosses the chain with
one slice write per residue class, without the step: on a^n the step runs
twice.  The automaton is a generator that consumes one letter per m_i it
yields, right to left.  The scan draws m_i for each position it runs the
step at, and over a chain draws the K letters it crosses only when a step
follows, at i - K - 1 >= 0; a chain that reaches position 0 ends the scan.
So the automaton reads exactly the letters from the leftmost stepped
position on: 2 on a^n, |v| and a few periods of u on u^k v, and all of
v u^k.  The scan keeps s, the smallest root of each position (0 for none)
and the roots of the positions with s_i >= 2 alone, so it makes no Python
object per crossed position; ``CensusReport.roots`` rebuilds the map of
every position with s_i > 0 from them on first read.  The sweep shares no
code with the scan: its walk prepends one letter at a time and
backtracks, which an automaton built right to left cannot follow, so it
carries the Z-array of each word instead (``sweep.py``).
``runs_of_two`` reads the runs of 2's off the positions with s_i >= 2, for
the census and the sweep alike.

All equality decisions are exact byte comparisons, never hashes.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property
from itertools import islice

from .words import Word


@dataclass(frozen=True)
class CensusReport:
    """Full rightmost-square census of one word.

    ``doubles`` maps each 1-based position with s_i >= 2 to the ascending
    root lengths of the squares whose last occurrence starts there; it lets
    structure analysis reuse the census instead of rescanning the word.
    ``min_roots[i]`` is the smallest rightmost root length at position
    i + 1, 0 when s_{i+1} = 0.
    """

    word: Word
    s: tuple[int, ...]
    runs_of_two: tuple[tuple[int, int], ...]
    # Derived from ``word`` like ``s``; kept out of comparison so the report
    # stays hashable.
    doubles: dict[int, list[int]] = field(compare=False, repr=False)
    min_roots: list[int] = field(compare=False, repr=False)

    @cached_property
    def roots(self) -> dict[int, list[int]]:
        """Each 1-based position with s_i > 0 mapped to its ascending root
        lengths, built from ``min_roots`` and ``doubles`` on first read."""
        doubles = self.doubles
        return {pos: doubles[pos] if count > 1 else [p]
                for pos, (count, p) in enumerate(zip(self.s, self.min_roots), 1) if count}

    @property
    def distinct_square_count(self) -> int:
        return sum(self.s)

    @property
    def longest_run(self) -> tuple[int, int]:
        """The first longest run of 2's as (start, length); (0, 0) if none."""
        return max(self.runs_of_two, key=lambda run: run[1], default=(0, 0))

    @property
    def leading_run(self) -> int:
        """Length of the run of 2's that starts at position 1."""
        runs = self.runs_of_two
        return runs[0][1] if runs and runs[0][0] == 1 else 0

    def to_json_dict(self) -> dict:
        return {
            "word": self.word.text,
            "n": len(self.word),
            "s": list(self.s),
            "distinct_square_count": self.distinct_square_count,
            "runs_of_two": [{"start": a, "length": b} for a, b in self.runs_of_two],
            "longest_run": {"start": self.longest_run[0], "length": self.longest_run[1]},
        }


def _census_step(codes: bytes):
    """The census step over ``codes``, right to left, as ``step(i, m, j,
    later)``.

    From the state of position i + 1 (m = m_{i+1}, and j, the nearest start
    > i + 1 of a later match of that length, or -1 when there is none
    within distance m; m = -1 and j = len(codes) past the end) and
    ``later`` = m_i it returns m_i, the nearest start of a later match of
    that length for position i within distance m_i (-1 for none, so the
    next step skips the witness test and applies the witness miss), and the
    ascending rightmost root lengths at i (the empty tuple for none), by the
    facts of the module docstring.
    """
    n = len(codes)
    find = codes.find

    def step(i: int, m: int, j: int, later: int) -> tuple[int, int, list[int] | tuple[()]]:
        m += 1
        if j - 1 > i and codes[j - 1] == codes[i]:
            j -= 1
            d = j - i
        else:
            if j < 0 and later == m:  # i + 1 missed: only d = m is left
                j = i + m if codes[i:i + m] == codes[i + m:i + 2 * m] else -1
            else:
                m = later
                j = find(codes[i:i + m], i + 1, i + 2 * m)
            d = j - i if j >= 0 else n  # a miss means d > m
        ps = ()  # no list for a rootless position
        q = (m >> 1) + 1
        if d <= m:
            # Roots p >= d: the one multiple of d (the witness-period rule).
            extra = (m // (2 * d) + 1) * d if m % (2 * d) >= d else 0
            # Roots p < d end at d - c, c the least non-divisor of d (window
            # ends); d - c < (n - i) / 2, as the witness's m letters fit.
            c = 2
            while not d % c:
                c += 1
            pmax = d - c
        else:
            extra = 0
            pmax = m - 1  # no witness within m, so m is no root (window ends)
        if q < pmax:
            # A root p in [q, pmax] puts u at i + p; confirm the other p - q letters.
            u = codes[i:i + q]
            end = i + pmax + q
            k = find(u, i + q, end)
            while k != -1:
                if codes[i + q:k] == codes[k + q:2 * k - i]:
                    ps = [*ps, k - i]
                k = find(u, k + 1, end)
        elif q == pmax and codes[i:i + q] == codes[i + q:i + 2 * q]:
            ps = [q]
        if extra:
            ps = [*ps, extra]
        return m, j, ps

    return step


def _later_matches(codes: bytes) -> Iterator[int]:
    """m_{n-1}, m_{n-2}, ..., m_0 of ``codes``, one per letter consumed, by
    the suffix automaton of the reversed word, extended by codes[i] for
    i = n - 1 down to 0.  A generator: the automaton reads no letter left
    of the last position its reader asks for.

    State 0 is a bottom state of length -1 with a transition by every letter
    to the root, state 1, so every suffix-link path meets a transition.  The
    other states are numbered as they are made, at most two per letter.
    Each letter that arrives gets one transition list over the states, 0
    meaning none: no transition but the bottom's leads to the root, and no
    state made before a letter's first arrival has a transition by it.  The
    lists start at 1024 slots and double as they fill, up to the 2n + 2
    that the states of n letters need, so a reader that stops early, as the
    scan does on a periodic word, pays only for the states made.
    """
    most = 2 * len(codes) + 2
    size = min(1024, most)
    length = [0] * size
    length[0] = -1
    link = [0] * size
    tables: list[list[int] | None] = [None] * 256
    every = []
    last, made = 1, 2  # the state of the whole reversed word read, and the states made
    for c in reversed(codes):
        if made + 2 > size:  # no room for a state and its clone
            grow = [0] * min(size, most - size)
            for table in (length, link, *every):
                table += grow
            size = len(link)
        t = tables[c]
        if t is None:
            t = tables[c] = [0] * size
            t[0] = 1
            every.append(t)
        cur = made
        made += 1
        length[cur] = length[last] + 1
        p = last
        while not t[p]:
            t[p] = cur
            p = link[p]
        m = length[p] + 1
        q = t[p]
        if length[q] == m:
            link[cur] = q
        else:
            clone = made
            made += 1
            length[clone] = m
            link[clone] = link[q]
            for table in every:
                table[clone] = table[q]
            while t[p] == q:
                t[p] = clone
                p = link[p]
            link[q] = link[cur] = clone
        last = cur
        yield m


def _common_suffix(codes: bytes, i: int, j: int) -> int:
    """Length of the longest common suffix of codes[:i] and codes[:j], for
    i < j, by slice compares: gallop, then bisect."""
    lo, hi = 0, 1  # a suffix of length lo is common; one of length hi is not, or hi > i
    while hi <= i and codes[i - hi:i] == codes[j - hi:j]:
        lo, hi = hi, 2 * hi
    if hi > i:
        hi = i + 1
    while hi - lo > 1:
        mid = (lo + hi) >> 1
        if codes[i - mid:i] == codes[j - mid:j]:
            lo = mid
        else:
            hi = mid
    return lo


def _census_scan(codes: bytes) -> tuple[list[int], list[int], dict[int, list[int]]]:
    """Counts s_i, the smallest rightmost root length at each position (0
    for none) and, for the positions with s_i >= 2, the ascending rightmost
    root lengths (1-based keys in ascending order)."""
    n = len(codes)
    s = [0] * n
    min_roots = [0] * n
    doubles: list[tuple[int, list[int]]] = []
    later = _later_matches(codes)
    step = _census_step(codes)
    m, j = -1, n
    i = n
    for mi in later:
        i -= 1
        m, j, ps = step(i, m, j, mi)
        if ps:
            s[i] = len(ps)
            min_roots[i] = ps[0]
            if len(ps) > 1:
                doubles.append((i + 1, ps))
        if j > i and 2 * (j - i) <= m + 3 and i and codes[i - 1] == codes[j - 1]:
            # A periodic chain: positions i - 1 .. i - k take the witness
            # step, and each has at most one root (the module docstring).
            k = _common_suffix(codes, i, j)
            d = j - i
            dd = 2 * d
            top = i + m  # m_{i-t} = m + t, so position i - t is top - m_{i-t}
            for low in range(m + 1, m + 1 + min(k, dd)):
                if low % dd >= d:
                    # the class of low mod 2d: positions top - high .. top - low
                    high = low + (m + k - low) // dd * dd
                    s[top - high:top - low + 1:dd] = [1] * ((high - low) // dd + 1)
                    min_roots[top - high:top - low + 1:dd] = range(
                        (high // dd + 1) * d, low // dd * d, -d)
            if k == i:  # the chain reached position 0: no step follows
                break
            next(islice(later, k, k), None)  # m_{i-1} .. m_{i-k}, unread
            i -= k
            m += k
            j -= k
    return s, min_roots, dict(reversed(doubles))


def runs_of_two(roots: dict[int, list[int]]) -> tuple[tuple[int, int], ...]:
    """(start, length) of each maximal run of consecutive keys of ``roots``
    with exactly two roots, ascending.  ``roots`` needs every position with
    s_i >= 2, like the census's map or the sweep's ``doubles``."""
    runs: list[list[int]] = []
    for k in sorted(k for k, ps in roots.items() if len(ps) == 2):
        if runs and runs[-1][0] + runs[-1][1] == k:
            runs[-1][1] += 1
        else:
            runs.append([k, 1])
    return tuple((start, length) for start, length in runs)


def s_sequence(w: Word) -> CensusReport:
    """Census of ``w``: the s_i sequence, the runs of 2's and the rightmost
    roots at each position."""
    s, min_roots, doubles = _census_scan(w.codes)
    return CensusReport(w, tuple(s), runs_of_two(doubles), doubles, min_roots)


def render_census_tsv(report: CensusReport) -> str:
    """Tab-separated census: header ``index letter s_i`` then one row per
    position."""
    lines = ["index\tletter\ts_i"]
    text = report.word.text
    for i, value in enumerate(report.s):
        lines.append(f"{i + 1}\t{text[i]}\t{value}")
    return "\n".join(lines) + "\n"
