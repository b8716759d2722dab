"""Reference values computed apart from setcensus.

Nothing here imports the package under test.  Exact counts come from
labeled binomial recurrences over Python integers, tree counts from the
Cayley and Renyi closed forms, scalar values from direct summation, and
chi-square tails from scipy.
"""

import itertools
import math
from fractions import Fraction


# --- trees --------------------------------------------------------------------


def cayley(m):
    """Labeled trees on m vertices, m^(m-2)."""
    return 1 if m <= 2 else m ** (m - 2)


def forests(n, k):
    """Labeled forests of exactly k trees on n vertices (Renyi's formula).

    f(n, k) = C(n, k) sum_i (-1/2)^i (k+i) i! C(k, i) C(n-k, i) n^(n-k-i-1),
    evaluated over the integers after multiplying through by 2^k * n.
    """
    if n == 0 and k == 0:
        return 1
    if not 1 <= k <= n:
        return 0
    top = min(k, n - k)
    s = 0
    falling = 1  # i! C(k, i) C(n-k, i) = k!/(k-i)! * C(n-k, i)
    power = n ** (n - k - top) << (k - top)  # n^(n-k-i) 2^(k-i) at i = top
    powers = [power]
    for _ in range(top):
        power *= 2 * n
        powers.append(power)
    for i in range(top + 1):
        term = (k + i) * falling * powers[top - i]
        s += -term if i % 2 else term
        falling = falling * (k - i) * (n - k - i) // (i + 1)
    num = math.comb(n, k) * s
    q, r = divmod(num, n << k)
    if r:
        raise ArithmeticError(f"Renyi sum for ({n}, {k}) is not integral")
    return q


def tree_saddle(lam):
    """(x, y) with y = 2(1 - lam) and x = y e^{-y}: the trees saddle at density lam."""
    y = 2.0 * (1.0 - lam)
    return y * math.exp(-y), y


def tree_egf(x):
    """C(x) = y - y^2/2 for labeled trees, where y e^{-y} = x and 0 < y <= 1."""
    lo, hi = 0.0, 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * math.exp(-mid) < x:
            lo = mid
        else:
            hi = mid
    y = 0.5 * (lo + hi)
    return y - y * y / 2.0


# --- block classes --------------------------------------------------------------


def block_counts(kind, T):
    """|C_1..T| of the block class by labeled binomial recurrences.

    With Y = x C'(x) = x exp(A), A = B'(Y) and every series scaled to n!
    times its coefficient:
      Y_n = n E_{n-1},  E_n = sum_j C(n-1, j-1) A_j E_{n-j}   (E = exp A);
      edge:     A = Y;
      cactus:   A = (Y + S)/2 with S = Y/(1-Y), S_n = Y_n + sum_j C(n, j) Y_j S_{n-j};
      complete: A = e^Y - 1, F_n = sum_j C(n-1, j-1) Y_j F_{n-j}.
    """
    if kind not in ("edge", "cactus", "complete"):
        raise ValueError(f"unknown block kind {kind!r}")
    Y = [0] * (T + 1)
    A = [0] * (T + 1)
    E = [1] + [0] * T
    S = [0] * (T + 1)
    F = [1] + [0] * T
    for n in range(1, T + 1):
        Y[n] = n * E[n - 1]
        if kind == "edge":
            A[n] = Y[n]
        elif kind == "cactus":
            S[n] = Y[n] + sum(math.comb(n, j) * Y[j] * S[n - j] for j in range(1, n))
            two_a = Y[n] + S[n]
            if two_a % 2:
                raise ArithmeticError(f"cactus recurrence gives an odd 2A_{n}")
            A[n] = two_a // 2
        else:
            F[n] = sum(math.comb(n - 1, j - 1) * Y[j] * F[n - j] for j in range(1, n + 1))
            A[n] = F[n]
        E[n] = sum(math.comb(n - 1, j - 1) * A[j] * E[n - j] for j in range(1, n + 1))
    out = []
    for n in range(1, T + 1):
        q, r = divmod(Y[n], n)
        if r:
            raise ArithmeticError(f"Y_{n} is not divisible by {n}")
        out.append(q)
    return out


_BLOCK_SCALARS = {
    # kind: (B, B', B'') as functions of the block variable t
    "cactus": (
        lambda t: t * t / 4 - t / 2 - math.log1p(-t) / 2,
        lambda t: t / 2 + t / (2 * (1 - t)),
        lambda t: 0.5 + 1 / (2 * (1 - t) ** 2),
    ),
    "complete": (
        lambda t: math.exp(t) - t - 1,
        lambda t: math.expm1(t),
        math.exp,
    ),
}


def block_constants(kind):
    """(zeta, rho, C(rho)) of a block class: zeta B''(zeta) = 1, rho = zeta e^{-B'(zeta)}."""
    B, Bp, Bpp = _BLOCK_SCALARS[kind]
    lo, hi = 0.0, 0.999999
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid * Bpp(mid) < 1.0:
            lo = mid
        else:
            hi = mid
    zeta = 0.5 * (lo + hi)
    rho = zeta * math.exp(-Bp(zeta))
    C_rho = zeta - zeta * Bp(zeta) + B(zeta)
    return zeta, rho, C_rho


# --- synthetic classes ------------------------------------------------------------


def synthetic_counts(b, rho, alpha, T):
    """max(round(b n^{-(1+alpha)} rho^{-n} n!), [n=1]), rounding half away from zero.

    Exact for dyadic b and rho and integer or half-integer alpha: the
    half-integer case takes an integer square root of the squared value.
    """
    twice = 2 * alpha
    if twice != int(twice):
        raise ValueError("alpha must be an integer or a half-integer")
    a = int(math.floor(alpha))
    half = twice % 2 == 1
    bq, rq = Fraction(b), Fraction(rho)
    out = []
    for n in range(1, T + 1):
        X = bq * math.factorial(n) / (rq**n * n ** (1 + a))
        if half:
            r4 = 4 * X * X / n  # (2 sqrt(X^2/n))^2
            s = math.isqrt(r4.numerator // r4.denominator)
            val = (s + 1) // 2
        else:
            val = (2 * X.numerator + X.denominator) // (2 * X.denominator)
        out.append(max(val, 1) if n == 1 else val)
    return out


def egf_terms(counts, x):
    """[|C_n| x^n / n!] for the listed counts, n = 1, 2, ..."""
    lx = math.log(x)
    return [
        math.exp(math.log(c) + n * lx - math.lgamma(n + 1)) if c else 0.0
        for n, c in enumerate(counts, start=1)
    ]


def egf_direct(counts, x):
    """(C(x), x C'(x), share of x C'(x) in the last term) summed over the listed counts."""
    terms = egf_terms(counts, x)
    C = math.fsum(terms)
    A = math.fsum(n * t for n, t in enumerate(terms, start=1))
    return C, A, len(terms) * terms[-1] / A


def synthetic_egf(counts, b, rho, alpha, x, terms=100_000):
    """(C(x), x C'(x)) by direct summation for 0 < x < rho.

    Uses the exact counts while they last and the growth formula (which
    they round) beyond; past the head the rounding error is below
    0.5 x^n / n!, far under double precision.
    """
    if not 0 < x < rho:
        raise ValueError("direct summation needs 0 < x < rho")
    C, A, _ = egf_direct(counts, x)
    z = x / rho
    for n in range(len(counts) + 1, terms + 1):
        t = b * n ** (-(1 + alpha)) * z**n
        C += t
        A += n * t
        if n * t < 1e-18 * A:
            break
    return C, A


# --- counts of sets of components ----------------------------------------------------


def _binomial_rows(n):
    rows = [[1]]
    for m in range(1, n + 1):
        prev = rows[-1]
        rows.append([1] + [prev[j - 1] + prev[j] for j in range(1, m)] + [1])
    return rows


def set_count(counts, n, k):
    """g(n, k) = sum_m C(n-1, m-1) |C_m| g(n-m, k-1), with g(0, 0) = 1.

    counts[m-1] = |C_m| for m up to n - k + 1.  Only the band of g(n', j)
    with n' - j <= n - k that can reach (n, k) is filled.
    """
    if not 1 <= k <= n:
        raise ValueError(f"need 1 <= k <= n, got ({n}, {k})")
    D = n - k
    binom = _binomial_rows(n)
    prev = {0: 1}  # g(n', j-1) on its band
    for j in range(1, k + 1):
        cur = {}
        for m_tot in range(j, j + D + 1):
            row = binom[m_tot - 1]
            cur[m_tot] = sum(
                row[m - 1] * counts[m - 1] * prev.get(m_tot - m, 0)
                for m in range(1, m_tot - j + 2)
            )
        prev = cur
    return prev[n]


def set_count_row(counts, n):
    """[g(n, 1), ..., g(n, n)] from the full convolution table."""
    binom = _binomial_rows(n)
    prev = [1] + [0] * n
    row = []
    for j in range(1, n + 1):
        cur = [0] * (n + 1)
        for m_tot in range(j, n + 1):
            r = binom[m_tot - 1]
            cur[m_tot] = sum(
                r[m - 1] * counts[m - 1] * prev[m_tot - m] for m in range(1, m_tot - j + 2)
            )
        row.append(cur[n])
        prev = cur
    return row


def total_count(counts, n):
    """sum_k g(n, k) via T_n = sum_m C(n-1, m-1) |C_m| T_{n-m}, T_0 = 1."""
    T = [1] + [0] * n
    for m_tot in range(1, n + 1):
        T[m_tot] = sum(
            math.comb(m_tot - 1, m - 1) * counts[m - 1] * T[m_tot - m]
            for m in range(1, m_tot + 1)
        )
    return T[n]


# --- forests as sampled objects --------------------------------------------------------


def vertex_one_law(n, k, m_max):
    """P(the tree holding vertex 1 has m vertices), m = 1..m_max, in a uniform (n, k) forest.

    C(n-1, m-1) m^(m-2) f(n-m, k-1) / f(n, k).
    """
    total = forests(n, k)
    out = []
    for m in range(1, m_max + 1):
        ways = math.comb(n - 1, m - 1) * cayley(m) * forests(n - m, k - 1)
        out.append(ways / total if ways else 0.0)
    return out


def isolated_moments(n, k):
    """Mean and variance of the number of one-vertex trees in a uniform (n, k) forest.

    E N = n f(n-1, k-1) / f(n, k) and E N(N-1) = n (n-1) f(n-2, k-2) / f(n, k).
    """
    total = forests(n, k)
    mean = Fraction(n * forests(n - 1, k - 1), total)
    pairs = Fraction(n * (n - 1) * (forests(n - 2, k - 2) if k >= 2 else 0), total)
    return float(mean), float(pairs + mean - mean * mean)


def _closes_cycle(edges):
    """Index of the first edge that closes a cycle (union-find), or None."""
    parent = {}

    def find(v):
        while parent.setdefault(v, v) != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i, (u, v) in enumerate(edges):
        ru, rv = find(u), find(v)
        if ru == rv:
            return i
        parent[ru] = rv
    return None


def enumerate_forests(n, k):
    """Every labeled forest of k trees on 1..n, as a frozenset of (u, v) edges, u < v."""
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    return [frozenset(edges) for edges in itertools.combinations(pairs, n - k)
            if _closes_cycle(edges) is None]


def spanning_forest_problem(n, k, blocks, trees):
    """None when (blocks, trees) is a spanning forest of k trees on 1..n, else the reason."""
    if len(blocks) != k or len(trees) != k:
        return f"{len(blocks)} blocks and {len(trees)} trees, expected {k}"
    seen = sorted(v for b in blocks for v in b)
    if seen != list(range(1, n + 1)):
        return "blocks do not partition 1..n"
    for block, edges in zip(blocks, trees):
        vs = set(block)
        if len(edges) != len(block) - 1:
            return f"block of {len(block)} vertices carries {len(edges)} edges"
        for u, v in edges:
            if not (u < v and u in vs and v in vs):
                return f"edge {(u, v)} leaves its block or is not ordered"
        cycle = _closes_cycle(edges)
        if cycle is not None:
            return f"edge {edges[cycle]} closes a cycle"
    return None


# --- statistics ---------------------------------------------------------------------


def chi_square_p(observed, probs, total, min_expected=5.0):
    """p-value of a chi-square goodness-of-fit test over total draws.

    observed[i] counts category i, probs[i] is its probability; the mass
    left over by probs is one more category, holding the draws that
    observed does not count.  Categories are pooled, from the last one
    backwards, until each expects at least min_expected.
    """
    from scipy.stats import chi2

    obs = list(observed) + [total - sum(observed)]
    exp = [total * p for p in probs] + [total * max(0.0, 1.0 - sum(probs))]
    pooled_o, pooled_e = [], []
    acc_o = acc_e = 0.0
    for o, e in zip(reversed(obs), reversed(exp)):
        acc_o += o
        acc_e += e
        if acc_e >= min_expected:
            pooled_o.append(acc_o)
            pooled_e.append(acc_e)
            acc_o = acc_e = 0.0
    if acc_e or acc_o:
        if not pooled_e:
            return 1.0
        pooled_o[-1] += acc_o
        pooled_e[-1] += acc_e
    if len(pooled_e) < 2:
        return 1.0
    stat = sum((o - e) ** 2 / e for o, e in zip(pooled_o, pooled_e))
    return float(chi2.sf(stat, len(pooled_e) - 1))


def poisson_pmf(mean, kmax):
    """[P(K = 0), ..., P(K = kmax)] for K ~ Poisson(mean)."""
    return [math.exp(-mean + j * math.log(mean) - math.lgamma(j + 1)) for j in range(kmax + 1)]
