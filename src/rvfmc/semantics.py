"""Class keys of traces.

``KeyBuilder`` keeps the reads-value-from and reads-from class keys of a
trace, one ``push`` or ``pop`` per event.  ``rvf_key`` pushes a whole
``Trace`` into a fresh builder; the explorer keys each leaf with it, and
``oracle.count_classes`` the leaves of its walk with one builder driven
beside it.  Event identity across traces is the (thread, index) pair alone;
diverging control flow always shows up as a differing earlier read value,
which the values in the rvf key already separate.  The reference keys live
in ``tests/reference_oracle.py``.
"""

from __future__ import annotations

from itertools import chain

from .program import Trace


class KeyBuilder:
    """The rvf and rf class keys of a trace, kept step by step.

    ``push(event)`` adds the trace's next event, whose value must already
    be in ``values``; ``pop(event)`` removes the last.  Numbering does not
    depend on the trace: with k threads, event (t, i) has code
    i*(k+1) + t, the initial write of the global of ordinal o has code
    o*(k+1), and read j (from 0) of thread t is bit j*k + t - 1 of the
    masks.  A read's mask holds the reads that causally precede it: its
    thread's so far and, through the reads-from edge, those before the
    latest write of its variable.  The keys are flat tuples of ints:

    - ``rvf_key()``: ``("rvf", flat, masks)``.  ``flat`` is the event
      count of each thread, by thread id, then the events' values in
      (thread, index) order; ``masks`` the reads' masks in the same order.
      Which events are reads follows from ``flat``.
    - ``rf_key()``: the counts, then per thread each read's code and its
      source's code.

    For the signatures of its nodes (see ``oracle.count_classes``), the
    census also reads ``entry(prev, event)``, the value and source that
    ``push(event)`` added, and ``writers()``, the code of each global's
    last write.  The explorer, which keys each leaf with a fresh builder,
    reads neither.
    """

    __slots__ = ("_values", "_k", "_threads", "_vars", "_vals", "_masks", "_rf")

    def __init__(self, trace: Trace):
        program = trace.program
        k = self._k = len(program.threads)
        self._values = trace.values
        # per thread id (0 unused): values, reads' masks, a stack of the
        # mask before its next event, and (read, source) code pairs
        self._threads = [([], [], [0], []) for _ in range(k + 1)]
        # per global, from the initial write on: write codes and their masks
        self._vars = {v: ([o * (k + 1)], [0]) for o, v in enumerate(program.globals, 1)}
        self._vals, self._masks, _, self._rf = ([th[i] for th in self._threads[1:]] for i in range(4))
        for e in trace.events:
            self.push(e)

    def push(self, e) -> None:
        t = e.thread
        vals, masks, low, rf = self._threads[t]
        codes, wmasks = self._vars[e.var]
        if e.kind == "W":
            vals.append(e.value)
            codes.append(e.index * (self._k + 1) + t)
            wmasks.append(low[-1])
        else:
            vals.append(self._values[e.eid])
            m = low[-1] | wmasks[-1]
            low.append(m | 1 << len(masks) * self._k + t - 1)
            masks.append(m)
            rf += (e.index * (self._k + 1) + t, codes[-1])

    def pop(self, e) -> None:
        vals, masks, low, rf = self._threads[e.thread]
        vals.pop()
        if e.kind == "W":
            codes, wmasks = self._vars[e.var]
            codes.pop()
            wmasks.pop()
        else:
            masks.pop()
            low.pop()
            del rf[-2:]

    def entry(self, prev, e) -> tuple:
        """``e``'s entry after ``push(e)``, with ``prev`` put first:
        ``(prev, value)`` for a write, ``(prev, value, source's code)`` for
        a read."""
        vals, _, _, rf = self._threads[e.thread]
        if e.kind == "W":
            return prev, vals[-1]
        return prev, vals[-1], rf[-1]

    def writers(self) -> list:
        """The code of each global's last write, by ordinal."""
        return [codes[-1] for codes, _ in self._vars.values()]

    def rvf_key(self) -> tuple:
        vals = self._vals
        return ("rvf", (*map(len, vals), *chain.from_iterable(vals)), (*chain.from_iterable(self._masks),))

    def rf_key(self) -> tuple:
        return (*map(len, self._vals), *chain.from_iterable(self._rf))


def rvf_key(trace: Trace) -> tuple:
    """Canonical key of the reads-value-from class of a trace: equal iff
    the traces have the same events, the same values and the same causal
    order restricted to reads.  See ``KeyBuilder``."""
    return KeyBuilder(trace).rvf_key()
