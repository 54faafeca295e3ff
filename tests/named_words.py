"""Named test words, defined once for every test module."""

from fsdsq.words import Word

W = Word.from_text

# two FS-double squares at positions 1 and 2: the closed form at T = 2
EQUAL_17 = "abaababaabaababaa"
EQUAL_17_S = [2, 2, 0, 0, 0, 0, 1, 1, 1, 0, 0, 1, 1, 0, 0, 1, 0]

# unequal pairs at positions 1 and 2, with the short and the long middle
V = "abaaabaabaaabb"
W1 = "a" + (V + "ab" + V) * 2
W2 = "a" + (V + V + "ab" + V) * 2

# published 61-entry table for w1
W1_S = ([2, 2, 1] + [0] * 13 + [1] * 5 + [0] * 10
        + [0] * 14 + [1, 1, 1] + [0, 0] + [1, 1, 1] + [0] * 4 + [1, 0, 1, 0])
# published 89-entry table for w2
W2_S = ([2, 2, 1] + [0] * 11 + [1, 1, 1] + [0] * 18 + [1] * 10
        + [1] * 4 + [0] * 24 + [1, 1, 1] + [0, 0] + [1, 1, 1] + [0] * 4 + [1, 0, 1, 0])

# an adjacent pair of ordering case 10, which the two-shape dichotomy rules out
CASE_10 = "aabaaaabaabaaaababaaaabaabaaaab"
# the shortest binary unequal pair found so far
UNEQUAL_39 = "babbababbaaabbababbaabbababbaaabbababba"
# ``generate --kind unequal --seed abaababaabaababa``
UNEQUAL_67 = "abaababaabaabababbbaababaabaabababbaababaabaabababbbaababaabaababab"

# all binary words w = SQ^2 of an FS-double square, up to length 18
SEEDS = [
    "abaababaab", "aabaaabaabaaab", "abaaabaabaaaba", "ababaabababaab",
    "abbaabbabbaabb", "aabaaaabaabaaaab", "abaababaabaababa",
    "abbababbabbababb", "aaabaaaabaaabaaaab", "aabaaaabaaabaaaaba",
    "aabbaaabbaabbaaabb", "abaaaabaaabaaaabaa", "ababaababababaabab",
    "abababaababababaab", "abbaaabbaabbaaabba", "abbbaabbbabbbaabbb",
]
