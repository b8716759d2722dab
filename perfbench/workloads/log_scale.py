"""log-scale: the ``compare`` use, one (estimate, count_log) pair per query.

The mpmath series flavor and the Lerch/Hurwitz root solves in
``asymptotics`` do the work, with no big integers and no sampling.  The
synthetic classes are built afresh each round, as a ``compare`` process
would, so their scalar cache starts cold and the synthetic(1, .5, 2.5)
saddle is solved once per round.
"""

import math
import random

import reference as ref

from . import Query, first_and_repeats, rel_err

SYNTHETIC = {"syn2": (1.0, 0.5, 2.0), "syn2.5": (1.0, 0.5, 2.5)}
BLOCK_KINDS = {"cacti": "cactus", "husimi": "complete"}
# (small, large) n per class; lambda * n is an integer at both for every listed lambda
SIZES = {"trees": (40, 200), "cacti": (40, 120), "husimi": (40, 120), "syn2": (40, 120),
         "syn2.5": (40, 120)}
SETTLED = 0.01  # log error below which an estimate counts as converged


def setup(sc):
    ctx = {"sc": sc}
    for name in ("trees", "cacti", "husimi"):
        ctx[name] = sc.species.builtin(name)
    for name in ("cacti", "husimi"):
        sc.asymptotics.recipe_constants(ctx[name])
    for name, (b, rho, alpha) in SYNTHETIC.items():
        sc.species.synthetic(b, rho, alpha)
    return ctx


def _pair_query(name, n, lam):
    """compare at one n: estimate at lam (None: lambda*), then count_log at its N."""

    def call(ctx, state):
        sc = ctx["sc"]
        if name in SYNTHETIC:
            if name not in state:
                state[name] = sc.species.synthetic(*SYNTHETIC[name])
            cls = state[name]
        else:
            cls = ctx[name]
        at = sc.asymptotics.lambda_star(cls) if lam is None else lam
        est = sc.asymptotics.estimate(cls, n, at)
        return at, est, sc.exact.count_log(cls, n, est.N)

    def digest(out):
        at, est, lg = out
        f = est.factors
        return {
            "lam": at,
            "lambda_star": est.lambda_star,
            "regime": est.regime.value,
            "N": est.N,
            "log_count": lg,
            "log_estimate": est.log_count,
            "x": math.exp(-f.log_rho_inv_n / n),
            "log_h": f.N_log_h / est.N,
            "log_factorial_ratio": f.log_factorial_ratio,
        }

    label = f"compare {name} n={n} lambda={'lambda*' if lam is None else lam}"
    return Query(label, "pair", {"cls": name, "n": n, "lam": lam}, call, digest)


# (class, lambda, expected regime); lambda None means the class's lambda*
CASES = (
    ("trees", 0.25, "below"), ("trees", 0.5, "critical"), ("trees", 0.75, "above"),
    ("cacti", 0.3, "below"), ("cacti", None, "critical"), ("cacti", 0.85, "above"),
    ("husimi", 0.3, "below"), ("husimi", None, "critical"), ("husimi", 0.85, "above"),
    ("syn2", None, "critical"),
    ("syn2.5", 0.9, "above"),
)


def plan(seed):
    """Every case at its class's two sizes; the class groups run in a seeded order."""
    groups = {}
    for name, lam, _regime in CASES:
        groups.setdefault(name, []).extend(_pair_query(name, n, lam) for n in SIZES[name])
    order = sorted(groups)
    random.Random(seed).shuffle(order)
    return [q for name in order for q in groups[name]]


def _exact_counts(name, size):
    if name == "trees":
        return [ref.cayley(m) for m in range(1, size + 1)]
    if name in BLOCK_KINDS:
        return ref.block_counts(BLOCK_KINDS[name], size)
    return ref.synthetic_counts(*SYNTHETIC[name], size)


def _lambda_star(name):
    if name == "trees":
        return 0.5
    if name in BLOCK_KINDS:
        zeta, _rho, C_rho = ref.block_constants(BLOCK_KINDS[name])
        return C_rho / zeta
    return None  # synthetic: lambda* = C(rho)/(rho C'(rho)) needs the tail sum at rho


def check(queries, records):
    problems = []
    regimes = {(name, lam): regime for name, lam, regime in CASES}
    digests = {}
    for q in queries:
        got = first_and_repeats(q.label, records[q.label], problems)
        if got is not None:
            digests[q.label] = got
    counts = {}
    for q in queries:
        name = q.params["cls"]
        counts[name] = max(counts.get(name, 1), q.params["n"])
    counts = {name: _exact_counts(name, size) for name, size in counts.items()}
    errors = {}
    for q in queries:
        d = digests.get(q.label)
        if d is None:
            continue
        name, n, lam = q.params["cls"], q.params["n"], q.params["lam"]
        c = counts[name]
        want_ls = _lambda_star(name)
        if want_ls is not None and abs(d["lambda_star"] - want_ls) > 1e-9:
            problems.append(f"{q.label}: lambda* {d['lambda_star']} != reference {want_ls}")
        if lam is None and d["lam"] != d["lambda_star"]:
            problems.append(f"{q.label}: lambda_star() and the estimate disagree on lambda*")
        if d["regime"] != regimes[(name, lam)]:
            problems.append(f"{q.label}: regime {d['regime']}, expected {regimes[(name, lam)]}")
        N = math.floor(d["lam"] * n + 1e-9)
        if d["N"] != N:
            problems.append(f"{q.label}: N = {d['N']}, expected {N}")
            continue
        exact = ref.forests(n, N) if name == "trees" else ref.set_count(c, n, N)
        log_exact = math.log(exact)
        if abs(d["log_count"] - log_exact) > 1e-9 * max(1.0, log_exact):
            problems.append(f"{q.label}: count_log {d['log_count']} != log of exact {log_exact}")
        lfr = math.lgamma(n + 1) - math.lgamma(N + 1)
        if abs(d["log_factorial_ratio"] - lfr) > 1e-9 * lfr:
            problems.append(f"{q.label}: log n!/N! factor is {d['log_factorial_ratio']}")
        if d["regime"] == "above":
            problems.extend(_saddle_problems(q.label, name, d, c))
        errors[(name, lam, n)] = d["log_estimate"] - log_exact
    for name, lam, regime in CASES:
        (n_small, n_large) = SIZES[name]
        small, large = errors.get((name, lam, n_small)), errors.get((name, lam, n_large))
        if small is None or large is None:
            continue
        label = f"{name} at lambda={'lambda*' if lam is None else lam}"
        if regime != "critical" or name == "trees":
            # with lambda * n an integer the error falls with n; above lambda* it can
            # change sign on its way down, so an error under SETTLED also passes
            if abs(large) >= max(abs(small), SETTLED):
                problems.append(f"{label}: estimate error {large:.4g} at n={n_large} "
                                f"not below {small:.4g} at n={n_small}")
        elif abs(large) > 0.25:
            # N = floor(lambda* n) jitters with n; only the size of the error is checked
            problems.append(f"{label}: critical estimate off by {large:.4g} in log at n={n_large}")
    return problems


def _saddle_problems(label, name, d, counts):
    x, lam = d["x"], d["lam"]
    if name == "trees":
        want_x, y = ref.tree_saddle(lam)
        if rel_err(x, want_x) > 1e-9:
            return [f"{label}: saddle x = {x}, expected y e^-y = {want_x}"]
        if rel_err(math.exp(d["log_h"]), lam * y) > 1e-9:
            return [f"{label}: C(x_lambda) = {math.exp(d['log_h'])}, expected {lam * y}"]
        return []
    if name in SYNTHETIC:
        C, A = ref.synthetic_egf(counts, *SYNTHETIC[name], x)
    else:
        C, A, last = ref.egf_direct(counts, x)
        if last > 1e-14:
            return [f"{label}: saddle x = {x} too close to rho for a direct sum of "
                    f"{len(counts)} terms"]
    if rel_err(A / C, 1.0 / lam) > 1e-8:
        return [f"{label}: x C'(x)/C(x) = {A / C} at the saddle, expected {1 / lam}"]
    if rel_err(math.exp(d["log_h"]), C) > 1e-8:
        return [f"{label}: C(x_lambda) = {math.exp(d['log_h'])}, direct sum {C}"]
    return []
