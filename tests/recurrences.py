"""Connected counts of block classes from labeled binomial recurrences.

An oracle that shares no code with ``powerseries.BlockTable``: it works on
labeled counts (n! times an EGF coefficient) in Python integers, with
binomial-weighted convolutions and no common denominator.  For
y = x C'(x) = x E, E = exp(A) and A = B'(y):

    Y_n = n E_{n-1},    E_n = sum_{j=1..n} C(n-1, j-1) A_j E_{n-j},    E_0 = 1,

so |C_n| = Y_n / n = E_{n-1}.  A per block kind:

  edge      A = y
  cactus    A = (y + S)/2 with S = y/(1-y): S_n = Y_n + sum_j C(n, j) Y_j S_{n-j}
  complete  A = e^y - 1: A_n = F_n with F_n = sum_j C(n-1, j-1) Y_j F_{n-j}, F_0 = 1
  poly      A = sum_d t_d y^d, the powers y^d by labeled products
"""

from fractions import Fraction
from math import comb


def connected_counts(kind, T, tail=()):
    """|C_1..T| of the block class of kind, with tail = (t_1, t_2, ...) the
    coefficients of B'(u) = sum_d t_d u^d for kind "poly"."""
    Y, A, E, S, F = [0], [0], [1], [0], [1]
    powers = [[1]] + [[0] for _ in tail]  # powers[d][n] = n! [x^n] y^d
    for n in range(1, T + 1):
        Y.append(n * E[n - 1])
        if kind == "edge":
            a = Y[n]
        elif kind == "cactus":
            S.append(Y[n] + sum(comb(n, j) * Y[j] * S[n - j] for j in range(1, n)))
            assert (Y[n] + S[n]) % 2 == 0
            a = (Y[n] + S[n]) // 2
        elif kind == "complete":
            F.append(sum(comb(n - 1, j - 1) * Y[j] * F[n - j] for j in range(1, n + 1)))
            a = F[n]
        else:
            powers[0].append(0)
            for d in range(1, len(powers)):
                prev = powers[d - 1]
                powers[d].append(sum(comb(n, j) * Y[j] * prev[n - j] for j in range(1, n + 1)))
            value = sum(Fraction(t) * p[n] for t, p in zip(tail, powers[1:]))
            assert value.denominator == 1, f"A_{n} = {value} is not an integer"
            a = int(value)
        A.append(a)
        E.append(sum(comb(n - 1, j - 1) * A[j] * E[n - j] for j in range(1, n + 1)))
    return E[:T]
