"""Seeded generator for the benchmark workloads, with their pinned verdicts.

A workload is a list of cases.  Each case carries only program text, the
public entry point that checks it (``explore`` or ``count_classes``), and the
verdict it must produce.

The seed renames threads, variables and mutexes and reorders thread
declarations.  Class counts do not change under that, so every pin holds for
every seed.  Explore programs are reordered only onto programs with the same
thread-id structure (a rotation of the ring, identical threads in any order,
the long-trace writer first), so the explorer does the same work for every
seed and runs with different seeds time the same search.  Census programs are
shuffled freely, since the oracle enumerates every schedule in any order.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

# Where each pin comes from.
#
# sb-ring leaves: k <= 4 are checked against the census oracle by the
# benchmark's tests; k = 5, 6 were recorded at the seed commit and are
# cross-checked on every run by leaves == distinct RVF classes.
SB_RING_LEAVES = {3: 22, 4: 73, 5: 231, 6: 710}
# Census class counts recorded at the seed commit.  Schedule counts are
# multinomials (see ``schedules``).  For many_threads the recorded counts
# equal (n + 1)^(n - 1) reads-from and (n!)^2 Mazurkiewicz classes.
ONE_VAR_CLASSES = {3: {"rvf": 1, "rf": 147, "maz": 18480}}
MANY_VARS_CLASSES = {3: {"rvf": 1, "rf": 27, "maz": 1728}}
MANY_THREADS_CLASSES = {
    4: {"rvf": 1, "rf": 125, "maz": 576},
    5: {"rvf": 1, "rf": 1296, "maz": 14400},
}


@dataclass(frozen=True)
class Case:
    name: str
    check: str  # "explore" or "census"
    text: str
    pin: dict


def schedules(*thread_lengths: int) -> int:
    """Interleavings of threads with the given event counts (a multinomial)."""
    out = math.factorial(sum(thread_lengths))
    for n in thread_lengths:
        out //= math.factorial(n)
    return out


def _names(rng: random.Random, prefix: str, n: int) -> list[str]:
    return [f"{prefix}{i}" for i in rng.sample(range(100, 1000), n)]


def explore_pin(leaves: int) -> dict:
    # The explorer replays one trace per class, so leaves == classes.
    return {"leaves": leaves, "rvf_classes": leaves, "violations": [], "deadlocks": 0}


def census_pin(schedule_count: int, classes: dict) -> dict:
    return {"schedules": schedule_count, **classes, "violations": [], "deadlocks": 0}


# -- explore programs ---------------------------------------------------------


def sb_ring(k: int, rng: random.Random) -> str:
    """Store-buffer ring: thread i writes x_i, then reads x_{i-1} and x_{i+1}.

    Declarations start at a seeded rotation of the ring.  Reflections are
    excluded: they swap the order of the two reads, which changes the search.
    """
    threads, xs = _names(rng, "t", k), _names(rng, "v", k)
    rot = rng.randrange(k)
    lines = []
    for j in range(k):
        i = (rot + j) % k
        lines.append(
            f"thread {threads[i]} {{ write {xs[i]} 1; "
            f"a = read {xs[(i - 1) % k]}; b = read {xs[(i + 1) % k]}; }}"
        )
    return "\n".join(lines)


def lock_counter(k: int, rng: random.Random) -> str:
    """k identical threads incrementing one counter under one mutex."""
    (m,), (x,) = _names(rng, "m", 1), _names(rng, "v", 1)
    return "\n".join(
        f"thread {t} {{ lock {m}; a = read {x}; write {x} a + 1; unlock {m}; }}"
        for t in _names(rng, "t", k)
    )


def long_n(n: int, rng: random.Random) -> str:
    """One thread writing x n times, one reading it n times: n + 1 classes."""
    (w, r), (x,) = _names(rng, "t", 2), _names(rng, "v", 1)
    return (
        f"thread {w} {{ repeat {n} {{ write {x} 1; }} }}\n"
        f"thread {r} {{ repeat {n} {{ a = read {x}; }} }}"
    )


def long_writer(n: int, rng: random.Random) -> str:
    """One thread writing x n times and a single reader: 2 classes."""
    (w, r), (x,) = _names(rng, "t", 2), _names(rng, "v", 1)
    return f"thread {w} {{ repeat {n} {{ write {x} 1; }} }}\nthread {r} {{ a = read {x}; }}"


# -- census programs: the coarse families ------------------------------------


def _shuffled(rng: random.Random, bodies: list[str]) -> str:
    names = _names(rng, "t", len(bodies))
    order = list(range(len(bodies)))
    rng.shuffle(order)
    return "\n".join(f"thread {names[i]} {{ {bodies[i]} }}" for i in order)


def one_var(n: int, rng: random.Random) -> str:
    (x,) = _names(rng, "v", 1)
    writer = f"write {x} 1; " * n
    return _shuffled(rng, [writer, f"write {x} 1; r = read {x}; " * n, writer])


def many_vars(n: int, rng: random.Random) -> str:
    xs = _names(rng, "v", n)
    writer = " ".join(f"write {x} 1;" for x in xs)
    mixed = " ".join(f"write {x} 1; r{i} = read {x};" for i, x in enumerate(xs))
    return _shuffled(rng, [writer, mixed, writer])


def many_threads(n: int, rng: random.Random) -> str:
    (x,) = _names(rng, "v", 1)
    return _shuffled(rng, [f"write {x} 1; r = read {x};"] * n)


# -- the workloads -------------------------------------------------------------


def _sb_ring(rng):
    return [Case(f"sb-ring-{k}", "explore", sb_ring(k, rng), explore_pin(SB_RING_LEAVES[k])) for k in (5, 6)]


def _lock_counter(rng):
    return [
        Case(f"lock-counter-{k}", "explore", lock_counter(k, rng), explore_pin(math.factorial(k)))
        for k in (5, 6)
    ]


def _long_trace(rng):
    return [
        Case("long-n-25", "explore", long_n(25, rng), explore_pin(26)),
        Case("long-writer-600", "explore", long_writer(600, rng), explore_pin(2)),
    ]


def _census(rng):
    return [
        Case("one-var-3", "census", one_var(3, rng), census_pin(schedules(3, 6, 3), ONE_VAR_CLASSES[3])),
        Case("many-vars-3", "census", many_vars(3, rng), census_pin(schedules(3, 6, 3), MANY_VARS_CLASSES[3])),
        *(
            Case(
                f"many-threads-{n}",
                "census",
                many_threads(n, rng),
                census_pin(schedules(*[2] * n), MANY_THREADS_CLASSES[n]),
            )
            for n in (4, 5)
        ),
    ]


WORKLOADS = {
    "sb-ring": _sb_ring,
    "lock-counter": _lock_counter,
    "long-trace": _long_trace,
    "census": _census,
}


def generate(workload: str, seed: int) -> list[Case]:
    """The cases of ``workload`` for ``seed``; equal seeds give equal cases."""
    return WORKLOADS[workload](random.Random(f"{workload}/{seed}"))
