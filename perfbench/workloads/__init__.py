"""The four benchmark workloads.

Each workload module provides

* ``setup(sc)``: resolve the workload's classes through the public API of
  the imported package namespace ``sc``; returns the context that queries
  read;
* ``plan(seed)``: the fixed query list of one round, made from the seed;
* ``check(queries, records)``: a list of problems (empty when correct),
  where ``records[label]`` holds one digest per round (None when the query
  raised).

A query's ``call(ctx, state)`` is the timed user-level request; ``state``
is a dict that lives for one round, which is how a round starts from cold
memos.  ``digest(output)`` runs outside the timer and keeps only what the
checks read.
"""

from collections import namedtuple

Query = namedtuple("Query", "label kind params call digest")


def first_and_repeats(label, digests, problems):
    """The first round's digest; a problem is recorded if later rounds differ."""
    done = [d for d in digests if d is not None]
    if not done:
        return None
    if any(d != done[0] for d in done[1:]):
        problems.append(f"{label}: output differs between rounds")
    return done[0]


def rel_err(got, want):
    return abs(got - want) / max(abs(want), 1e-300)


def registry():
    from . import exact_int, log_scale, readme_cli, sampling

    return {
        "exact-int": exact_int,
        "log-scale": log_scale,
        "sampling": sampling,
        "readme-cli": readme_cli,
    }
