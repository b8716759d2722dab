"""Boltzmann sampling of labeled forests of connected structures.

The Boltzmann model at parameter x draws a number of components kappa from
Poisson(C(x)), then kappa independent component sizes with
P(size = j) proportional to |C_j| x^j / j!.  Conditioning the size vector on
total n and dressing the sizes with a uniform set partition and uniform
component structures yields an exactly uniform object among those with n
vertices and the drawn number of components.

Size tables are truncated at n_max and renormalized; the truncated model is
itself an exact Boltzmann model for the truncated class, which gives the
cross-check identity (valid whenever n_max >= n - k + 1):

    (k!/n!) * count(n, k) = C(x)^k * x^{-n} * P(size_1 + ... + size_k = n)

with C(x) the truncated normalizer.  sum_size_probability_exact evaluates the
right-hand P as an exact rational; mc_sum_probability estimates it by
simulation.

The weights come from the weights module, which exact.count_log shares:
block classes get theirs from powerseries.BlockTable, the same fixed-point
step as their exact counts, run on float64 numpy arrays and tilted by x^n.
Entry n depends only on the entries below it, so the search for n_max
(256, 512, ... entries) extends one table instead of solving it again at
every length, and a table of length M holds the same floats as the first M
entries of any longer one.

Each size table is solved once per class, x and n_max and kept in the
class's one bounded cache (species.cached); every size_distribution call
returns a new SizeDistribution over the cached read-only arrays, and
composition and cross-check draws read the same cache.  A cap of
species._table_cap lowered after a table was cached still applies to it.

All randomness flows through a caller-supplied numpy Generator; a fixed seed
fixes every sample exactly.  sample_set draws each size with one scalar
rng.random() and a guide-table lookup, which gives the same doubles and
sizes as rng.random(kappa) with a binary search of the CDF.  Its draws of
no component and of one component of size j return shared immutable
Compositions; the one-component ones are made on first use and kept by j
alone, so they are at most as many as the distinct sizes ever drawn.

sample_composition conditions k sizes of any class on total n, a block of
rejection attempts at a time: it saves the bit generator's state, draws
every uniform of the block in one call and maps them to sizes.  A block of
at most 512 uniforms is looked up with one cdf.searchsorted call; a longer
one goes through a 4096-bucket guide table (Chen and Asau, 1974), where a
bucket whose index is constant holds it and the others fall back to
searchsorted.  u * 4096 is exact, so both give the sizes of the inverse-CDF
search bit for bit.  On a hit before the block's last attempt the state is
restored and only the attempts up to the hit are drawn again, so sizes,
attempt counts and every later draw from the same Generator are what
testing one attempt at a time gives, whatever the block size.
mc_sum_probability tests its attempts with the same kernel (_attempts).
Every block holds the fewest attempts that hit with probability 0.9, from
the exact acceptance p, and at most about 8192 uniforms: one attempt when
p = 1 (n = k), the cap when p underflows to 0.  Each (x, n, k) keeps p and
the block size in a plan in the drawn class's own cache (_forest_plan).
This needs rng to be a numpy.random.Generator.  sample_forest is the trees
composition, dressed with one shuffle of the labels 1..n, which makes the
swaps and draws of rng.permutation(n), and one Pruefer draw per forest: the
sequences of all blocks of m >= 3 vertices come from one rng.integers call
with bound m repeated m - 2 times, in block order, which gives the integers
of one rng.integers(0, m, m - 2) call per block.  Sequences of at most
three integers in all are drawn one scalar call each, which is cheaper and
gives the same integers.  Blocks of one or two vertices take no sort, no
draw and no call.  When the budget runs out, RetryBudgetError carries the
exact per-attempt acceptance (a truncated convolution power of the size
law) and the max_rejects that succeeds with probability 0.95.  An
acceptance of exactly 0 where no k sizes of the class total n is a count of
0, and raises DomainError instead.
"""

import math
from collections import namedtuple

import numpy as np

from . import asymptotics, exact, species
from . import powerseries as ps
from .errors import DomainError, PrecisionError, RetryBudgetError, check_int, check_real
from .weights import _log_power_coefficient, _weight_table, _weights

_MASS_TOL = 1e-6  # a grown table leaves less than this share of C(x) beyond it
_GUIDE_BUCKETS = 4096  # a power of two, so u * _GUIDE_BUCKETS is exact
_BLOCK_MAX = 8192  # most uniforms in a block of forest rejection attempts (or one attempt)
# (Timings below: numpy 2.4 on a 2-vCPU x86-64 VM.)
# Up to this many uniforms one searchsorted call (about 1.5 us plus 6-18 ns a
# uniform, more for longer tables) beats the guide table's 4-7 calls (about
# 4 us plus 3 ns a uniform).  It did so at 512 uniforms on every table
# measured, of 3 to 8192 sizes; the crossover falls from about 2048 uniforms
# on tables of 16 sizes to about 768 on 801, so the block's length decides
# more than the table's.
_SEARCH_MAX = 512
# Rows of at most this many sizes are summed by a product with a vector of
# ones, which beats np.add.reduce along short rows (2.2 against 3.9 us for
# 128 rows of 2); the reduction wins from 64 on.
_MATMUL_MAX_K = 32
_ONES = np.ones(_MATMUL_MAX_K, dtype=np.intp)
_ONES.setflags(write=False)
# Pruefer sequences of at most this many integers in all take one scalar call
# per integer (about 1.5 us each); one call with a size costs about 4.6 us.
_SCALAR_DRAWS = 3


class SizeDistribution(
    namedtuple("SizeDistribution", "x n_max pmf truncated_mass normalizer cdf guide")
):
    """Truncated, renormalized component-size law at Boltzmann parameter x.

    pmf[j] is P(size = j + 1) for j = 0..n_max-1.  normalizer is the truncated
    EGF value sum_{j <= n_max} |C_j| x^j / j!; truncated_mass estimates the
    probability mass of sizes beyond n_max under the untruncated model (for a
    list without growth, the mass of the list beyond n_max, 0 at its full
    length; nan when C(x) is not finite).  guide is the bucket table of cdf
    (_guide_table).  Tables compare and hash by identity, since their array
    fields have no single truth value, and their repr leaves out cdf and guide.
    """

    __slots__ = ()

    def __eq__(self, other):  # False against any other object, a tuple of the same fields too
        return self is other

    __ne__ = object.__ne__
    __hash__ = object.__hash__

    def __repr__(self):
        return (
            f"SizeDistribution(x={self.x!r}, n_max={self.n_max!r}, pmf={self.pmf!r}, "
            f"truncated_mass={self.truncated_mass!r}, normalizer={self.normalizer!r})"
        )


class Composition(namedtuple("Composition", "kappa sizes")):
    """A Boltzmann draw of component sizes only: from the unconditioned model
    (sample_set), or conditioned on kappa = k and sizes that total n
    (sample_composition)."""

    __slots__ = ()

    def __new__(cls, kappa, sizes):
        if len(sizes) != kappa:
            raise DomainError("composition size list does not match kappa")
        return tuple.__new__(cls, (kappa, sizes))  # a Python call fewer than super().__new__

    @classmethod
    def _make(cls, iterable):  # _replace builds through _make: check its fields too
        return cls(*iterable)


class LabeledForest(namedtuple("LabeledForest", "n blocks trees")):
    """A labeled forest on vertices 1..n: vertex blocks and tree edges per block.

    blocks is a tuple of sorted vertex tuples; trees[i] is a tuple of (u, v)
    edges with u < v, on blocks[i].
    """

    __slots__ = ()


class MCEstimate(namedtuple("MCEstimate", "estimate stderr trials hits")):
    """A Monte Carlo probability with its standard error, trial and hit counts."""

    __slots__ = ()


# --- size tables ----------------------------------------------------------------


def _full_value(cls, x):
    """C(x) under the class model; a list without growth sums its whole list."""
    if cls.coeff_source is species.CoeffSource.EXPLICIT_LIST and cls.growth is None:
        w = _weights(cls, x, len(cls._memo))
        return float(np.sum(w))
    C, _A, _D = asymptotics._egf_at(cls, x)
    return C


def size_distribution(cls, x, n_max=None):
    """Component-size table of the Boltzmann model at parameter x.

    With n_max omitted, the table grows until the untruncated model keeps less
    than 1e-6 of its probability beyond the table (bare coefficient lists use
    their full length).  The table is solved once and cached on the class;
    each call returns a new SizeDistribution over the same read-only arrays.
    """
    return _size_table(cls, x, n_max)._replace()


def _size_table(cls, x, n_max=None):
    """The cached SizeDistribution behind size_distribution, shared by every caller."""
    x = check_real("boltzmann parameter x", x)
    if not x > 0:
        raise DomainError(f"boltzmann parameter x = {x} must be a positive real")
    if n_max is not None:
        n_max = check_int("n_max", n_max, 1)
    table = species.cached(cls, (x, n_max), _solve_size_table, cls, x, n_max)
    species._table_cap(cls, table.n_max)  # a cap lowered after the table was cached still applies
    return table


def _solve_size_table(cls, x, n_max):
    if cls.growth is not None:
        asymptotics._check_radius(x, cls.growth.rho)
    elif n_max is None:
        n_max = len(cls._memo)  # a list without growth: the whole list
    if n_max is not None:
        M = n_max
        w = _weights(cls, x, M)  # a table over the cap fails before C(x) is evaluated
        C_full = _full_value(cls, x)
    else:
        C_full = _full_value(cls, x)
        weights = _weight_table(cls, x)
        M = 256
        while True:
            w = weights(M)
            s = float(np.sum(w))
            if C_full - s <= _MASS_TOL * C_full:
                break
            cap = species._table_cap(cls)
            if M >= cap:
                raise PrecisionError(
                    f"size table reached {M} entries with truncated mass still above "
                    f"{_MASS_TOL}; pass n_max explicitly",
                    suggested=M,
                )
            M = min(2 * M, cap)
    s = float(np.sum(w))
    if not (s > 0 and math.isfinite(s)):
        raise DomainError(f"size weights sum to {s} at x = {x}")
    trunc = max((C_full - s) / C_full, 0.0) if math.isfinite(C_full) else math.nan
    pmf = w / s
    cdf = np.cumsum(pmf)
    cdf[-1] = 1.0
    guide = _guide_table(cdf)
    for a in (pmf, cdf, guide):
        a.setflags(write=False)
    return SizeDistribution(
        x=x, n_max=M, pmf=pmf, truncated_mass=trunc, normalizer=s, cdf=cdf, guide=guide
    )


# --- drawing ---------------------------------------------------------------------


def _guide_table(cdf):
    """Bucket table for cdf: entry i is cdf.searchsorted(u, side="right") for every
    u in [i/4096, (i+1)/4096), or -1 when that index is not constant on the bucket."""
    edges = np.arange(_GUIDE_BUCKETS + 1) / _GUIDE_BUCKETS
    lo = cdf.searchsorted(edges[:-1], side="right")
    hi = cdf.searchsorted(np.nextafter(edges[1:], 0.0), side="right")
    lo[lo != hi] = -1
    return lo


def _lookup(cdf, guide, u):
    """cdf.searchsorted(u, side="right") through the guide table; scales u in place.

    u * 4096 is exact, so the bucket of u is exact and so is u * 4096 / 4096,
    which the uniforms in ambiguous buckets are searched with.
    """
    u *= _GUIDE_BUCKETS
    idx = guide.take(u.astype(np.intp))
    # positions rather than a mask: the few ambiguous uniforms are gathered and
    # written back without two more passes over the whole block
    amb = (idx < 0).nonzero()[0]
    if len(amb):
        idx[amb] = cdf.searchsorted(u[amb] / _GUIDE_BUCKETS, "right")
    return idx


def _size_indices(cdf, guide, u):
    """cdf.searchsorted(u, side="right"), by the cheaper route for len(u); may scale u."""
    if len(u) <= _SEARCH_MAX:
        return cdf.searchsorted(u, "right")
    return _lookup(cdf, guide, u)


_NO_COMPONENTS = Composition(kappa=0, sizes=())
_ONE_COMPONENT = {}  # size j -> the shared Composition(kappa=1, sizes=(j,))


def sample_set(cls, x, rng, dist=None):
    """Unconditioned Boltzmann draw: kappa ~ Poisson(C(x)), then iid sizes."""
    if dist is None:
        dist = _size_table(cls, x)
    kappa = rng.poisson(dist.normalizer)
    if not kappa:
        return _NO_COMPONENTS
    cdf, guide = dist.cdf, dist.guide
    sizes = []
    for _ in range(kappa):
        # one scalar uniform at a time gives the doubles of rng.random(kappa)
        u = rng.random()
        i = guide.item(int(u * _GUIDE_BUCKETS))
        if i < 0:
            i = int(cdf.searchsorted(u, side="right"))
        sizes.append(i + 1)
    if kappa == 1:
        j = sizes[0]
        comp = _ONE_COMPONENT.get(j)
        return comp or _ONE_COMPONENT.setdefault(j, Composition(kappa=1, sizes=(j,)))
    return Composition(kappa=int(kappa), sizes=tuple(sizes))


def sample_partition(sizes, rng):
    """Uniform ordered set partition of 1..sum(sizes) with the given block sizes.

    Block i takes the next sizes[i] labels of one uniform permutation, in
    increasing order; blocks of one or two labels are ordered without a sort.
    Each size must be a positive integer: 2.5, nan and "3" raise DomainError.
    """
    return _partition([check_int(f"sizes[{i}]", s, 1) for i, s in enumerate(sizes)], rng)


def _partition(sizes, rng):
    """sample_partition for a list of positive Python ints, unchecked."""
    perm = list(range(1, sum(sizes) + 1))
    # shuffling a list makes the swaps and draws of rng.permutation on an array
    rng.shuffle(perm)
    blocks = []
    at = 0
    for s in sizes:
        if s == 1:
            blocks.append((perm[at],))
        elif s == 2:
            u, v = perm[at], perm[at + 1]
            blocks.append((u, v) if u < v else (v, u))
        else:
            blocks.append(tuple(sorted(perm[at : at + s])))
        at += s
    return tuple(blocks)


def _prufer_decode(m, seq):
    """Edges of the labeled tree on 0..m-1 with Pruefer sequence seq (len m-2)."""
    degree = [1] * m
    for v in seq:
        degree[v] += 1
    ptr = 0
    while degree[ptr] != 1:
        ptr += 1
    leaf = ptr
    edges = []
    for v in seq:
        edges.append((leaf, v))
        degree[v] -= 1
        if degree[v] == 1 and v < ptr:
            leaf = v
        else:
            ptr += 1
            while degree[ptr] != 1:
                ptr += 1
            leaf = ptr
    edges.append((leaf, m - 1))
    return edges


def _forest_trees(sizes, blocks, rng):
    """A uniform labeled tree on each block, as sorted edge tuples.

    The Pruefer sequences of all blocks of m >= 3 vertices come from one
    draw with bound m repeated m - 2 times, in block order.  numpy draws
    every element of a bounded integer array the same way, whatever the
    form of the call, so the integers are those of one rng.integers(0, m,
    m - 2) per block, and so is the generator's state after them.  A forest
    whose sequences hold at most _SCALAR_DRAWS integers draws them one
    scalar call each.  A block of 2 vertices (u, v) with u < v is its own
    single edge.
    """
    big = [m for m in sizes if m > 2]
    if sum(big) - 2 * len(big) <= _SCALAR_DRAWS:
        seq = [int(rng.integers(0, m)) for m in big for _ in range(m - 2)]
    else:
        big = np.array(big)
        seq = rng.integers(0, np.repeat(big, big - 2)).tolist()
    trees = []
    at = 0
    for m, labels in zip(sizes, blocks):
        if m == 1:
            trees.append(())
        elif m == 2:
            trees.append((labels,))
        else:
            edges = []
            for a, b in _prufer_decode(m, seq[at : at + m - 2]):
                u, v = labels[a], labels[b]
                edges.append((u, v) if u < v else (v, u))
            trees.append(tuple(edges))
            at += m - 2
    return tuple(trees)


def _forest_plan(cls, x, n, k):
    """(size table, exact per-attempt acceptance p, attempts per block) for k
    sizes that total n at x.  A block holds the fewest attempts that hit with
    probability 0.9, at most max(1, _BLOCK_MAX // k): one when p = 1, the cap
    when p underflows to 0.  DomainError when the count is 0 because no k
    sizes with objects total n."""
    table = _size_table(cls, x, n - k + 1)
    p = math.exp(_log_power_coefficient(table.pmf, k, n - k))
    block = max(1, _BLOCK_MAX // k)
    if p >= 1:  # n = k: every attempt hits
        block = 1
    elif p > 0:
        block = math.ceil(min(math.log(0.1) / math.log1p(-p), block))
    else:
        # read at the default tilt (mean size n/k): at a tiny x, weights of sizes that
        # have objects underflow to 0, as size 4 of a list of sizes 1, 3, 4 at x = 1e-100
        pmf = _size_table(cls, exact._tilt(cls, n, k), n - k + 1).pmf
        if not _in_sumset(pmf > 0, k, n - k):
            raise DomainError(f"no object of class {cls.name} has {n} vertices and {k} "
                              f"components: no {k} sizes of its components total {n}")
    return table, p, block


def _in_sumset(support, k, total):
    """Whether k indices where the boolean support holds sum to total: binary
    powering of a boolean convolution, truncated at total as _log_power_coefficient."""
    have, base = np.arange(total + 1) == 0, support
    while k:
        if k & 1:
            have = np.convolve(have, base)[: total + 1]
        base, k = np.convolve(base, base)[: total + 1], k >> 1
    return bool(have[total])


def _attempts(cdf, guide, k, total, u):
    """Size indices for the uniforms u, k to a row, and whether each row sums to total."""
    idx = _size_indices(cdf, guide, u).reshape(-1, k)
    sums = idx @ _ONES[:k] if k <= _MATMUL_MAX_K else np.add.reduce(idx, axis=1)
    return idx, sums == total


def _first_hit(cdf, guide, k, total, rng, max_rejects, block):
    """Rejection for k 0-based size indices that sum to total, block attempts at
    a time.

    Returns the indices as a list of ints, or None when all max_rejects + 1
    attempts miss.  A block draws its uniforms in one call, and on a hit
    before its last attempt the generator is rewound and moved past the hit
    only, so it stands where testing one attempt at a time would leave it.
    """
    bits = rng.bit_generator
    left = max_rejects + 1
    while left:
        b = min(block, left)
        state = bits.state
        idx, hit = _attempts(cdf, guide, k, total, rng.random(b * k))
        j = int(hit.argmax())
        if hit[j]:
            if j < b - 1:
                bits.state = state
                rng.random((j + 1) * k)
            return idx[j].tolist()
        left -= b
    return None


def _check_rng(rng):
    """rng itself, or a fresh Generator for None; DomainError for anything else."""
    if rng is None:
        return np.random.default_rng()
    if not isinstance(rng, np.random.Generator):
        raise DomainError(
            f"rng must be a numpy.random.Generator, not {type(rng).__name__}; "
            "pass numpy.random.default_rng(seed)"
        )
    return rng


def sample_composition(cls, n, k, x=None, rng=None, max_rejects=10_000):
    """Boltzmann composition of exactly k components with sizes that total n.

    The k sizes are iid from the class's size law at x, truncated at
    n - k + 1, and conditioned on total n by rejection, so a size vector
    comes with probability proportional to the number of objects that have
    those component sizes in that order.  The default x is the tilt of
    exact.count_log's float tier (exact._tilt).  rng must be a
    numpy.random.Generator (default: a fresh unseeded one).  RetryBudgetError
    when all max_rejects + 1 attempts miss; DomainError when count(n, k) = 0
    because no k sizes of the class's components total n.
    """
    n, k = exact._check_domain(n, k)
    max_rejects = check_int("max_rejects", max_rejects, 0)
    rng = _check_rng(rng)
    # a class with growth tilts its default x afresh on every draw; a plan's solve checks x > 0
    x = exact._tilt(cls, n, k) if x is None else check_real("boltzmann parameter x", x)
    table, p, block = species.cached(cls, ("forest", x, n, k), _forest_plan, cls, x, n, k)
    species._table_cap(cls, table.n_max)  # a cap lowered after the plan was cached
    # 0-based size indices: the sizes total n exactly when these total n - k
    idx = _first_hit(table.cdf, table.guide, k, n - k, rng, max_rejects, block)
    if idx is None:
        raise _budget_error(table.x, p, n, max_rejects + 1)
    return Composition(k, tuple([i + 1 for i in idx]))


def sample_forest(n, k, x=None, rng=None, max_rejects=10_000):
    """Uniform labeled forest of exactly k trees on vertices 1..n.

    The component sizes are sample_composition's draw for the trees class
    (at parameter x; the default is the tilt of exact.count_log's float
    tier: the saddle x_lambda for lambda = k/n above the threshold 1/2 and
    its critical window, the radius e^{-1} otherwise), the vertex partition
    is uniform given the sizes, and each component is a uniform labeled tree
    via a Pruefer draw.  rng must be a numpy.random.Generator (default: a
    fresh unseeded one).
    """
    rng = _check_rng(rng)  # the sizes and their dressing share one generator
    sizes = sample_composition(species.builtin("trees"), n, k, x, rng, max_rejects).sizes
    blocks = _partition(sizes, rng)
    # the sizes total n as sample_composition checked it: an int, also for n = 6.0
    return LabeledForest(n=sum(sizes), blocks=blocks, trees=_forest_trees(sizes, blocks, rng))


def _budget_error(x, p, n, attempts):
    """RetryBudgetError naming the exact per-attempt acceptance p and a budget
    that succeeds with probability 0.95."""
    message = f"no size vector with total {n} in {attempts} attempts at x = {x}"
    budget = None
    if p > 0.0:
        # (1 - p)^(budget + 1) <= 0.05 for the smallest such budget
        budget = max(0, math.ceil(math.log(0.05) / math.log1p(-p)) - 1)
        shown = budget if budget < 10**12 else f"{budget:.3g}"
        message += (
            f"; each attempt succeeds with probability {p:.3g} (about {1 / p:.3g} "
            f"attempts expected), so max_rejects = {shown} succeeds with probability 0.95"
        )
    else:
        message += "; the per-attempt acceptance underflows to 0 at this x"
    return RetryBudgetError(
        message,
        attempts=attempts,
        expected_acceptance=p,
        suggested=budget,
    )


# --- sum-probability cross-checks -------------------------------------------------


def sum_size_probability_exact(cls, x, k, n, n_max=None):
    """P(size_1 + ... + size_k = n) under the truncated table, as a Fraction.

    x must be a Fraction (or int); the table is truncated at n_max (default
    n - k + 1, the largest size that can appear in an accepted draw).
    """
    from fractions import Fraction

    if not isinstance(x, (Fraction, int)):
        raise DomainError("exact sum probabilities require a Fraction-valued x")
    x = Fraction(x)
    if x <= 0:
        raise DomainError(f"boltzmann parameter x = {x} must be positive")
    n, k = exact._check_domain(n, k)
    M = n - k + 1 if n_max is None else check_int("n_max", n_max, 1)
    counts = species.coefficients(cls, M)
    total = sum(Fraction(c, math.factorial(j)) * x**j for j, c in enumerate(counts, start=1))
    # x^n k! count_M(n, k) / (n! W^k), count_M on sizes up to min(M, n - k + 1)
    top = ps.pow_top(exact._labeled_counts(cls, n, min(M, n - k + 1)), k, n)
    return top * x**n / (math.factorial(n) * total**k)


def mc_sum_probability(cls, x, k, n, trials, rng):
    """Monte Carlo estimate of P(size_1 + ... + size_k = n) with its stderr.

    Sizes are drawn from the class's own table at x, truncated at n - k + 1,
    the table sum_size_probability_exact uses by default.
    """
    n, k = exact._check_domain(n, k)
    trials = check_int("trials", trials, 1)
    rng = _check_rng(rng)
    dist = _size_table(cls, x, n_max=n - k + 1)
    hits = 0
    chunk = max(1, min(trials, 10_000_000 // k))
    done = 0
    while done < trials:
        m = min(chunk, trials - done)
        _idx, hit = _attempts(dist.cdf, dist.guide, k, n - k, rng.random(m * k))
        hits += int(np.count_nonzero(hit))
        done += m
    p = hits / trials
    stderr = math.sqrt(p * (1.0 - p) / trials)
    return MCEstimate(estimate=p, stderr=stderr, trials=trials, hits=hits)
