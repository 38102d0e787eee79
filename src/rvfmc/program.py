"""Concurrent-program DSL: parser and deterministic interpreter.

A program is a static set of deterministic threads communicating through
shared integer variables and mutexes.  Shared-memory accesses (writes,
reads, lock acquire/release) are the only observable *events*; everything
else (local assignments, arithmetic, conditionals, bounded loops, asserts)
runs silently between two accesses of the same thread.

Mutexes are encoded on the event level as a global variable of their own:
acquiring reads it, releasing writes it.  Every global variable starts at 0
through an implicit initial write attributed to pseudo-thread 0.

Values, literals included, are 64-bit signed integers that wrap around.

The interpreter state is one mutable ``Trace``.  ``extend`` executes an
enabled event in place and records how to revert it; ``Trace.undo`` reverts
the last step.  ``replay``, the explorer and the exhaustive oracles all run
programs through this one engine, and a finished run is kept as its
schedule, its events in order, which ``replay`` turns back into a trace.

Grammar::

    program   := thread+
    thread    := "thread" IDENT "{" stmt* "}"
    stmt      := "write" VAR expr ";" | LOCAL "=" "read" VAR ";"
               | LOCAL "=" expr ";" | "if" cond "{" stmt* "}" ("else" "{" stmt* "}")?
               | "repeat" INT "{" stmt* "}" | "lock" MUTEX ";" | "unlock" MUTEX ";"
               | "assert" cond ";"
    cond      := expr ("==" | "!=" | "<" | "<=") expr
    expr      := integers, locals, "+", "-", "*", parentheses, unary minus

Identifiers assigned somewhere in a thread are locals of that thread
(initially 0); all other identifiers in access position are globals.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Iterable, Optional

EventId = tuple[int, int]

_INT64_MASK = (1 << 64) - 1
_INT64_SIGN = 1 << 63


def _wrap(v: int) -> int:
    """Reduce to two's-complement 64-bit signed range."""
    v &= _INT64_MASK
    return v - (1 << 64) if v & _INT64_SIGN else v


class ParseError(ValueError):
    """Syntax or static-semantics error, carrying source position."""

    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


class InterpreterError(RuntimeError):
    """Raised for dynamic misuse such as releasing a mutex the thread does not hold."""


# ---------------------------------------------------------------------------
# Events and traces
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Event:
    """One shared-memory access, identified by (thread, per-thread index).

    ``value`` is the written value for writes and None for reads; the value
    a read obtains depends on the schedule and lives in ``Trace.values``.
    """

    thread: int
    index: int
    kind: str  # "R" or "W"
    var: str
    value: Optional[int] = None
    # (thread, index), made once per event: traces key their values by it
    eid: EventId = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "eid", (self.thread, self.index))

    def __repr__(self) -> str:  # compact, for test diagnostics
        v = "" if self.value is None else f"={self.value}"
        return f"<{self.thread}.{self.index} {self.kind} {self.var}{v}>"


@dataclass(slots=True)
class Trace:
    """The interpreter state: a sequence of events with its value function.

    A trace is mutable.  ``extend(trace, event)`` executes one enabled event
    in place and returns the same trace; ``undo()`` reverts the last step,
    so one trace can be driven through a whole search tree.  ``enabled``,
    ``maximal`` and ``deadlocked`` are computed when read.

    A trace also keeps two indexes of ``events``: ``writes[var]`` lists
    the writes of each global (mutex releases included) and
    ``chains[tid - 1]`` the events of each thread, both in trace order.
    Readers never change them.  They are brought up to date when read,
    from the steps taken and undone since the last read, so ``extend`` and
    ``undo`` do no work for them and the oracles, which step every
    schedule and never read them, do not pay for them.
    """

    program: "Program"
    events: list[Event]
    values: dict[EventId, int]
    violations: list[str]  # failed assert ids, each once, in order of failure
    # per thread: (pc, locals, events executed, pending event or None,
    # the mutex that event acquires or None)
    _threads: list[tuple] = field(repr=False)
    _memory: dict[str, int] = field(repr=False)
    _holders: dict[str, Optional[int]] = field(repr=False)
    _writes: dict[str, list[Event]] = field(repr=False, compare=False)
    _chains: list[list[Event]] = field(repr=False, compare=False)
    _undo: list[tuple] = field(default_factory=list, repr=False, compare=False)
    # the undo records of the steps that the indexes hold
    _indexed: list[tuple] = field(default_factory=list, repr=False, compare=False)

    @property
    def writes(self) -> dict[str, list[Event]]:
        self._index()
        return self._writes

    @property
    def chains(self) -> list[list[Event]]:
        self._index()
        return self._chains

    def _index(self) -> None:
        """Bring the indexes up to date.  Each step has an undo record of
        its own, and a record on both stacks at one position means that no
        step at or before it was undone since, so the indexes drop their
        steps after the last such position and add the trace's."""
        indexed, undo = self._indexed, self._undo
        n = min(len(indexed), len(undo))
        while n and indexed[n - 1] is not undo[n - 1]:
            n -= 1
        writes, chains = self._writes, self._chains
        while len(indexed) > n:
            e = chains[indexed.pop()[0] - 1].pop()
            if e.kind == "W":
                writes[e.var].pop()
        events = self.events
        for i in range(n, len(undo)):
            indexed.append(undo[i])
            e = events[i]
            chains[e.thread - 1].append(e)
            if e.kind == "W":
                writes[e.var].append(e)

    @property
    def enabled(self) -> tuple[Event, ...]:
        """Pending events, by thread id, of threads not blocked on a held mutex."""
        holders = self._holders
        out = []
        for st in self._threads:
            e = st[3]
            if e is not None and (st[4] is None or holders[st[4]] is None):
                out.append(e)
        return tuple(out)

    @property
    def maximal(self) -> bool:
        return not self.enabled

    @property
    def deadlocked(self) -> bool:
        for st in self._threads:
            if st[3] is not None:
                return not self.enabled
        return False

    @property
    def counts(self) -> tuple[int, ...]:
        """Number of events each thread has executed, by thread id."""
        return tuple([st[2] for st in self._threads])

    def undo(self) -> Event:
        """Revert the last ``extend`` and return its event."""
        tid, eid, state, nviol, table, var, old = self._undo.pop()
        event = self.events.pop()
        del self.values[eid]
        del self.violations[nviol:]
        self._threads[tid - 1] = state
        if table is not None:
            table[var] = old
        return event


# ---------------------------------------------------------------------------
# Compiled program
# ---------------------------------------------------------------------------

# Instruction tags that produce an event; everything else is thread-local.
_ACCESS_TAGS = frozenset({"write", "read", "lock", "unlock"})


@dataclass(frozen=True)
class Thread:
    name: str
    tid: int
    ops: tuple


@dataclass(frozen=True)
class Program:
    """Parsed and compiled program with a fixed thread set."""

    threads: tuple[Thread, ...]
    variables: tuple[str, ...]  # plain shared variables, sorted
    mutexes: tuple[str, ...]  # mutex identifiers, sorted
    # variables and mutexes, sorted, and the 1-based position of each
    globals: tuple[str, ...] = field(init=False, compare=False, repr=False)
    _ordinals: dict[str, int] = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        globs = tuple(sorted(set(self.variables) | set(self.mutexes)))
        object.__setattr__(self, "globals", globs)
        object.__setattr__(self, "_ordinals", {v: i for i, v in enumerate(globs, 1)})

    def ordinal(self, var: str) -> int:
        return self._ordinals[var]

    def init_event(self, var: str) -> Event:
        """The salient initial write of ``var``: pseudo-thread 0, value 0."""
        return _event(0, self.ordinal(var), "W", var, 0)


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_KEYWORDS = frozenset(
    {"thread", "write", "read", "if", "else", "repeat", "lock", "unlock", "assert"}
)

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+|//[^\n]*)
    | (?P<int>\d+)
    | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<op>==|!=|<=|[{}();=<+\-*])
    """,
    re.VERBOSE,
)


def _tokenize(source: str) -> list[tuple[str, str, int, int]]:
    tokens = []
    line, col, pos = 1, 1, 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if not m:
            raise ParseError(f"unexpected character {source[pos]!r}", line, col)
        text = m.group(0)
        if not m.lastgroup == "ws":
            tokens.append((m.lastgroup, text, line, col))
        nl = text.count("\n")
        if nl:
            line += nl
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    tokens.append(("eof", "", line, col))
    return tokens


# Deepest nesting the parser accepts: open blocks, parentheses and unary
# minuses plus an expression's depth.  It keeps the recursion of the parser,
# the checker and the evaluator far below Python's default limit of 1000.
_MAX_DEPTH = 100
# Most instructions a repeat may take its thread to.  Nested bounds multiply,
# so the compiler checks a repeat's whole size after unrolling one copy.
_MAX_OPS = 100_000


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.i = 0
        self.open = 0  # enclosing if/else/repeat blocks, parentheses and unary minuses

    def peek(self) -> tuple[str, str, int, int]:
        return self.tokens[self.i]

    def next(self) -> tuple[str, str, int, int]:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def error(self, msg: str) -> ParseError:
        _, _, line, col = self.peek()
        return ParseError(msg, line, col)

    def expect(self, text: str) -> tuple[str, str, int, int]:
        tok = self.next()
        if tok[1] != text:
            raise ParseError(f"expected {text!r}, found {tok[1] or 'end of input'!r}", tok[2], tok[3])
        return tok

    def ident(self, what: str = "identifier") -> str:
        kind, text, line, col = self.next()
        if kind != "ident" or text in _KEYWORDS:
            raise ParseError(f"expected {what}, found {text or 'end of input'!r}", line, col)
        return text

    def nest(self, depth: int, tok: tuple[str, str, int, int]) -> None:
        """Reject ``depth`` more levels inside the open ones, at ``tok``, past the limit."""
        if self.open + depth > _MAX_DEPTH:
            raise ParseError(f"nested deeper than {_MAX_DEPTH} levels", tok[2], tok[3])

    # -- expressions -------------------------------------------------------
    # Each returns (node, depth): every operator, parenthesis and unary minus
    # adds a level, so the checker and the evaluator recurse at most depth deep.

    def expr(self) -> tuple[tuple, int]:
        node, depth = self.term()
        while self.peek()[1] in ("+", "-"):
            tok = self.next()
            right, rdepth = self.term()
            depth = max(depth, rdepth) + 1
            self.nest(depth, tok)
            node = (tok[1], node, right)
        return node, depth

    def term(self) -> tuple[tuple, int]:
        node, depth = self.factor()
        while self.peek()[1] == "*":
            tok = self.next()
            right, rdepth = self.factor()
            depth = max(depth, rdepth) + 1
            self.nest(depth, tok)
            node = ("*", node, right)
        return node, depth

    def factor(self) -> tuple[tuple, int]:
        tok = self.peek()
        kind, text, line, col = tok
        if text in ("-", "("):
            self.next()
            self.nest(1, tok)
            self.open += 1
            if text == "-":
                node, depth = self.factor()
                node = ("neg", node)
            else:
                node, depth = self.expr()
                self.expect(")")
            self.open -= 1
            return node, depth + 1
        if kind == "int":
            self.next()
            return ("int", _wrap(int(text))), 0
        if kind == "ident" and text not in _KEYWORDS:
            self.next()
            return ("loc", text, line, col), 0
        raise ParseError(f"expected expression, found {text or 'end of input'!r}", line, col)

    def cond(self) -> tuple:
        left = self.expr()[0]
        kind, text, line, col = self.next()
        if text not in ("==", "!=", "<", "<="):
            raise ParseError(f"expected comparison operator, found {text!r}", line, col)
        return (text, left, self.expr()[0])

    # -- statements --------------------------------------------------------

    def block(self) -> list:
        self.expect("{")
        stmts = []
        while self.peek()[1] != "}":
            stmts.append(self.stmt())
        self.expect("}")
        return stmts

    def inner_block(self) -> list:
        """The block of an if, else or repeat: one level deeper."""
        self.nest(1, self.peek())
        self.open += 1
        stmts = self.block()
        self.open -= 1
        return stmts

    def stmt(self) -> tuple:
        kind, text, line, col = self.peek()
        if text == "write":
            self.next()
            var = self.ident("variable")
            e = self.expr()[0]
            self.expect(";")
            return ("write", var, e, line)
        if text == "lock" or text == "unlock":
            self.next()
            var = self.ident("mutex")
            self.expect(";")
            return (text, var, line)
        if text == "assert":
            self.next()
            c = self.cond()
            self.expect(";")
            return ("assert", c, line)
        if text == "if":
            self.next()
            c = self.cond()
            then = self.inner_block()
            other = []
            if self.peek()[1] == "else":
                self.next()
                other = self.inner_block()
            return ("if", c, then, other)
        if text == "repeat":
            self.next()
            nk, ntext, nline, ncol = self.next()
            if nk != "int":
                raise ParseError("loop bound must be an integer literal", nline, ncol)
            return ("repeat", int(ntext), self.inner_block(), line, col)
        if kind == "ident" and text not in _KEYWORDS:
            self.next()
            self.expect("=")
            if self.peek()[1] == "read":
                self.next()
                var = self.ident("variable")
                self.expect(";")
                return ("readinto", text, var, line)
            e = self.expr()[0]
            self.expect(";")
            return ("assign", text, e)
        raise ParseError(f"expected statement, found {text or 'end of input'!r}", line, col)


# ---------------------------------------------------------------------------
# Compilation: AST -> flat instruction list (repeat unrolled, if via jumps)
# ---------------------------------------------------------------------------


def _assigned_locals(stmts: Iterable) -> set[str]:
    names: set[str] = set()
    for s in stmts:
        if s[0] in ("assign", "readinto"):
            names.add(s[1])
        elif s[0] == "if":
            names |= _assigned_locals(s[2])
            names |= _assigned_locals(s[3])
        elif s[0] == "repeat":
            names |= _assigned_locals(s[2])
    return names


def _check_expr(e: tuple, locals_: set[str]) -> None:
    if e[0] == "int":
        return
    if e[0] == "loc":
        if e[1] not in locals_:
            raise ParseError(f"identifier {e[1]!r} is not a local of this thread", e[2], e[3])
        return
    if e[0] == "neg":
        _check_expr(e[1], locals_)
        return
    _check_expr(e[1], locals_)
    _check_expr(e[2], locals_)


class _ThreadCompiler:
    def __init__(self, thread_name: str, locals_: set[str]):
        self.name = thread_name
        self.locals = locals_
        self.ops: list = []
        self.assert_seq = 0
        self.writes: set[str] = set()
        self.reads: set[str] = set()
        self.mutexes: set[str] = set()

    def emit(self, stmts: list) -> None:
        for s in stmts:
            tag = s[0]
            if tag == "write":
                _check_expr(s[2], self.locals)
                self.writes.add(s[1])
                self.ops.append(("write", s[1], s[2]))
            elif tag == "readinto":
                self.reads.add(s[2])
                self.ops.append(("read", s[2], s[1]))
            elif tag == "assign":
                _check_expr(s[2], self.locals)
                self.ops.append(("set", s[1], s[2]))
            elif tag in ("lock", "unlock"):
                self.mutexes.add(s[1])
                self.ops.append((tag, s[1]))
            elif tag == "assert":
                _check_expr(s[1][1], self.locals)
                _check_expr(s[1][2], self.locals)
                self.assert_seq += 1
                self.ops.append(("assert", s[1], f"{self.name}#{self.assert_seq}"))
            elif tag == "if":
                _check_expr(s[1][1], self.locals)
                _check_expr(s[1][2], self.locals)
                jz_at = len(self.ops)
                self.ops.append(None)  # patched below
                self.emit(s[2])
                if s[3]:
                    jmp_at = len(self.ops)
                    self.ops.append(None)
                    self.ops[jz_at] = ("jz", s[1], len(self.ops))
                    self.emit(s[3])
                    self.ops[jmp_at] = ("jmp", len(self.ops))
                else:
                    self.ops[jz_at] = ("jz", s[1], len(self.ops))
            elif tag == "repeat":
                # Bound is a literal, so the body unrolls statically; each
                # copy keeps the original assert identifiers and has the
                # size of the first.
                saved, first = self.assert_seq, len(self.ops)
                for i in range(s[1]):
                    self.assert_seq = saved
                    self.emit(s[2])
                    if not i and first + (len(self.ops) - first) * s[1] > _MAX_OPS:
                        raise ParseError(f"a thread unrolls to more than {_MAX_OPS} instructions", s[3], s[4])
                    if len(self.ops) == first:  # an empty body
                        break
            else:  # pragma: no cover
                raise AssertionError(tag)


def parse_program(source: str) -> Program:
    """Parse DSL text into a compiled Program; empty source is a 0-thread program."""
    parser = _Parser(source)
    compilers: list[_ThreadCompiler] = []
    names: set[str] = set()
    while parser.peek()[0] != "eof":
        kind, text, line, col = parser.next()
        if text != "thread":
            raise ParseError(f"expected 'thread', found {text!r}", line, col)
        name = parser.ident("thread name")
        if name in names:
            raise ParseError(f"duplicate thread name {name!r}", line, col)
        names.add(name)
        stmts = parser.block()
        tc = _ThreadCompiler(name, _assigned_locals(stmts))
        tc.emit(stmts)
        compilers.append(tc)

    variables: set[str] = set()
    mutexes: set[str] = set()
    for tc in compilers:
        variables |= tc.writes | tc.reads
        mutexes |= tc.mutexes
    clash = variables & mutexes
    if clash:
        raise ParseError(f"{sorted(clash)[0]!r} used both as variable and mutex", 1, 1)

    threads = tuple(
        Thread(tc.name, i + 1, tuple(tc.ops)) for i, tc in enumerate(compilers)
    )
    return Program(threads, tuple(sorted(variables)), tuple(sorted(mutexes)))


# ---------------------------------------------------------------------------
# Interpretation
# ---------------------------------------------------------------------------


def _eval(e: tuple, env: dict[str, int]) -> int:
    tag = e[0]
    if tag == "int":
        return e[1]
    if tag == "loc":
        return env.get(e[1], 0)
    if tag == "neg":
        return _wrap(-_eval(e[1], env))
    a = _eval(e[1], env)
    b = _eval(e[2], env)
    if tag == "+":
        return _wrap(a + b)
    if tag == "-":
        return _wrap(a - b)
    return _wrap(a * b)


def _holds(c: tuple, env: dict[str, int]) -> bool:
    a = _eval(c[1], env)
    b = _eval(c[2], env)
    return {"==": a == b, "!=": a != b, "<": a < b, "<=": a <= b}[c[0]]


def _advance(thread: Thread, pc: int, env: dict[str, int], violations: list[str]) -> int:
    """Execute thread-local instructions until the next access op or thread end."""
    ops = thread.ops
    while pc < len(ops):
        op = ops[pc]
        tag = op[0]
        if tag in _ACCESS_TAGS:
            return pc
        if tag == "set":
            env[op[1]] = _eval(op[2], env)
        elif tag == "assert":
            if not _holds(op[1], env):
                violations.append(op[2])
        elif tag == "jz":
            if not _holds(op[1], env):
                pc = op[2]
                continue
        elif tag == "jmp":
            pc = op[1]
            continue
        pc += 1
    return pc


# Events are immutable values, so equal ones can be shared: the same pending
# event recurs at every node of a search tree that reaches that thread state,
# and looking it up is several times cheaper than constructing a frozen
# dataclass.
_event = lru_cache(maxsize=1 << 12)(Event)


def _thread_state(thread: Thread, pc: int, env: dict[str, int], acc: int) -> tuple:
    """A thread's state stopped at ``pc`` after ``acc`` events, with the
    event it would execute next and the mutex that event acquires."""
    if pc >= len(thread.ops):
        return (pc, env, acc, None, None)
    op = thread.ops[pc]
    tag = op[0]
    if tag == "write":
        event = _event(thread.tid, acc + 1, "W", op[1], _eval(op[2], env))
    elif tag == "unlock":  # a release writes 0
        event = _event(thread.tid, acc + 1, "W", op[1], 0)
    else:  # reads and lock acquires read
        event = _event(thread.tid, acc + 1, "R", op[1], None)
    return (pc, env, acc, event, op[1] if tag == "lock" else None)


def _drop_repeats(violations: list[str], start: int) -> None:
    """Drop the assert ids appended from ``start`` on that are already listed."""
    seen = violations[:start]
    violations[start:] = [aid for aid in dict.fromkeys(violations[start:]) if aid not in seen]


def empty_trace(program: Program) -> Trace:
    """The initial trace: no events, every global at 0, frontier at each thread's first access."""
    violations: list[str] = []
    threads = []
    for thread in program.threads:
        env: dict[str, int] = {}
        pc = _advance(thread, 0, env, violations)
        threads.append(_thread_state(thread, pc, env, 0))
    _drop_repeats(violations, 0)
    memory = {v: 0 for v in program.globals}
    holders: dict[str, Optional[int]] = {m: None for m in program.mutexes}
    writes: dict[str, list[Event]] = {v: [] for v in program.globals}
    chains: list[list[Event]] = [[] for _ in program.threads]
    return Trace(program, [], {}, violations, threads, memory, holders, writes, chains)


def extend(trace: Trace, event: Event) -> Trace:
    """Execute one enabled event in place, advance its thread to its next
    access, and return the same trace; ``trace.undo()`` reverts the step."""
    tid = event.thread
    threads = trace._threads
    if not 0 < tid <= len(threads):
        raise ValueError(f"event {event!r} is not enabled: no such thread")
    state = threads[tid - 1]
    pc, env, acc, pending, _ = state
    if pending is not event and pending != event:
        raise ValueError(f"event {event!r} is not enabled")
    thread = trace.program.threads[tid - 1]
    op = thread.ops[pc]
    tag = op[0]
    var = event.var
    memory = trace._memory
    holders = trace._holders

    if tag == "write":
        table, old = memory, memory[var]
        memory[var] = value = event.value
    elif tag == "read":
        table = old = None
        value = memory[var]
    elif tag == "lock":
        if holders[var] is not None:
            raise ValueError(f"event {event!r} is not enabled: mutex held")
        table, old = holders, None
        holders[var] = tid
        value = memory[var]
    else:  # unlock; a mutex's memory stays 0 throughout
        if holders[var] != tid:
            raise InterpreterError(
                f"thread {thread.name} releases mutex {var!r} it does not hold"
            )
        table, old = holders, tid
        holders[var] = None
        value = 0

    env = dict(env)  # the state being left keeps its locals for undo
    if tag == "read":
        env[op[2]] = value
    violations = trace.violations
    nviol = len(violations)
    npc = _advance(thread, pc + 1, env, violations)
    if len(violations) > nviol:
        _drop_repeats(violations, nviol)
    threads[tid - 1] = _thread_state(thread, npc, env, acc + 1)
    eid = event.eid
    trace.events.append(event)
    trace.values[eid] = value
    trace._undo.append((tid, eid, state, nviol, table, var, old))
    return trace


def replay(program: Program, events: Iterable[Event]) -> Trace:
    """Re-execute a sequence of events from the empty trace, validating each step."""
    t = empty_trace(program)
    for e in events:
        extend(t, e)
    return t
