"""exact-int: the big-integer route.

Fraction series multiplication in ``powerseries`` and the block fixed point
in ``species`` do nearly all of the work; ``asymptotics`` and ``sampler``
do none.  Each round reloads cacti and Husimi graphs from class files, so
their connected coefficients start from a cold memo every round.
"""

import math
import os
import random

import reference as ref

from . import Query, first_and_repeats

CLASS_DIR = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "classes")
KINDS = {"cacti": "cactus", "husimi": "complete"}


def setup(sc):
    cacti = sc.species.from_file(os.path.join(CLASS_DIR, "cacti.json"))
    husimi = sc.species.from_file(os.path.join(CLASS_DIR, "husimi.json"))
    for cls in (cacti, husimi):
        sc.asymptotics.recipe_constants(cls)
    return {"sc": sc, "trees": sc.species.builtin("trees")}


def _cls(ctx, state, name):
    return ctx["trees"] if name == "trees" else state[name]


def _coeffs_query(name, T):
    def call(ctx, state):
        species = ctx["sc"].species
        state[name] = species.from_file(os.path.join(CLASS_DIR, f"{name}.json"))
        return species.coefficients(state[name], T)

    return Query(f"coefficients {name} {T}", "coefficients", {"cls": name, "T": T},
                 call, tuple)


def _count_query(name, n, k):
    def call(ctx, state):
        return ctx["sc"].exact.count(_cls(ctx, state, name), n, k)

    return Query(f"count {name} {n} {k}", "count", {"cls": name, "n": n, "k": k},
                 call, int)


def _table_query(name, n):
    def call(ctx, state):
        return ctx["sc"].exact.count_table(_cls(ctx, state, name), n)

    return Query(f"count_table {name} {n}", "count_table", {"cls": name, "n": n},
                 call, lambda t: tuple(t.rows))


def _total_query(name, n):
    def call(ctx, state):
        return ctx["sc"].exact.total_count(_cls(ctx, state, name), n)

    return Query(f"total_count {name} {n}", "total_count", {"cls": name, "n": n},
                 call, int)


def plan(seed):
    """Three groups (cacti, Husimi, trees) in a seeded order.

    A block-class group starts with its cold coefficient query; counts then
    run from sparse (k = 6) to dense (n - k = 10).  The sizes are fixed, so
    every seed asks for the same work.
    """
    groups = [
        [_coeffs_query("cacti", 150), _count_query("cacti", 120, 6),
         _count_query("cacti", 120, 60), _count_query("cacti", 120, 110),
         _table_query("cacti", 40), _total_query("cacti", 150)],
        [_coeffs_query("husimi", 150), _count_query("husimi", 120, 40),
         _total_query("husimi", 120)],
        [_count_query("trees", 150, 30), _table_query("trees", 60)],
    ]
    random.Random(seed).shuffle(groups)
    return [q for g in groups for q in g]


def check(queries, records):
    problems = []
    top = {}
    for q in queries:
        p = q.params
        top[p["cls"]] = max(top.get(p["cls"], 1), p.get("T", 0), p.get("n", 0))
    counts = {
        name: [ref.cayley(m) for m in range(1, top[name] + 1)] if name == "trees"
        else ref.block_counts(KINDS[name], top[name])
        for name in top
    }
    for q in queries:
        got = first_and_repeats(q.label, records[q.label], problems)
        if got is None:
            continue
        p = q.params
        c = counts[p["cls"]]
        if q.kind == "coefficients":
            want = tuple(c[: p["T"]])
        elif q.kind == "count":
            if p["cls"] == "trees":
                want = ref.forests(p["n"], p["k"])
            else:
                want = ref.set_count(c, p["n"], p["k"])
        elif q.kind == "total_count":
            want = ref.total_count(c, p["n"])
        else:
            if p["cls"] == "trees":
                row = [ref.forests(p["n"], k) for k in range(1, p["n"] + 1)]
            else:
                row = ref.set_count_row(c, p["n"])
            want = tuple(
                (k, v, math.log(v) if v else -math.inf) for k, v in enumerate(row, start=1)
            )
            if [r[:2] for r in got] != [r[:2] for r in want]:
                problems.append(f"{q.label}: counts differ from the convolution")
            elif any(abs(g[2] - w[2]) > 1e-9 * max(1.0, abs(w[2])) for g, w in zip(got, want)):
                problems.append(f"{q.label}: log counts differ from the log of the counts")
            continue
        if got != want:
            problems.append(f"{q.label}: {str(got)[:60]} != reference {str(want)[:60]}")
    return problems
