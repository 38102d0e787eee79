"""Hand-written program corpus shared by the test modules.

Each entry is small enough for full schedule enumeration but collectively
they cover value-dependent conditional writes, mutexes (including deadlock
patterns), assertion races, loops, arithmetic, and the coarseness families.
"""

UNANIMOUS = """
thread t1 { write x 1; write y 1; }
thread t2 { write x 1; write y 1; r0 = read x; }
thread t3 { write x 1; write y 1; r0 = read y; }
"""


def one_var_family(n: int) -> str:
    writer = "write x 1; " * n
    mixed = "write x 1; r = read x; " * n
    return (
        f"thread t1 {{ {writer} }}\n"
        f"thread t2 {{ {mixed} }}\n"
        f"thread t3 {{ {writer} }}"
    )


def many_vars_family(n: int) -> str:
    writer = " ".join(f"write x{i} 1;" for i in range(1, n + 1))
    mixed = " ".join(f"write x{i} 1; r{i} = read x{i};" for i in range(1, n + 1))
    return (
        f"thread t1 {{ {writer} }}\n"
        f"thread t2 {{ {mixed} }}\n"
        f"thread t3 {{ {writer} }}"
    )


def many_threads_family(n: int) -> str:
    return "\n".join(f"thread t{i} {{ write x 1; r = read x; }}" for i in range(1, n + 1))


PROGRAMS: dict[str, str] = {
    "unanimous": UNANIMOUS,
    "one_var_n1": one_var_family(1),
    "one_var_n2": one_var_family(2),
    "one_var_n3": one_var_family(3),
    "many_vars_n2": many_vars_family(2),
    "many_threads_n2": many_threads_family(2),
    "many_threads_n3": many_threads_family(3),
    "many_threads_n4": many_threads_family(4),
    "single_thread": """
        thread t1 { write x 1; write x 2; r = read x; assert r == 2; }
    """,
    "read_only": """
        thread t1 { a = read x; }
        thread t2 { b = read x; }
    """,
    "disjoint_writers": """
        thread t1 { write x 1; }
        thread t2 { write y 1; }
    """,
    "two_writers_one_reader": """
        thread t1 { write x 1; }
        thread t2 { write x 2; }
        thread t3 { r = read x; }
    """,
    "same_value_writers": """
        thread t1 { write x 7; }
        thread t2 { write x 7; }
        thread t3 { r = read x; }
    """,
    "conditional_write": """
        thread t1 { r0 = read x; }
        thread t2 { write x 2; }
        thread t3 { r1 = read y; write x 3; }
    """,
    "conditional_on_value": """
        thread t1 { r0 = read x; if r0 == 2 { write y 9; } }
        thread t2 { write x 2; }
        thread t3 { r1 = read y; }
    """,
    "conditional_else": """
        thread t1 { r0 = read x; if r0 == 0 { write y 1; } else { write y 2; } }
        thread t2 { write x 5; }
        thread t3 { r1 = read y; }
    """,
    "chained_conditionals": """
        thread t1 { a = read x; if a == 1 { write y 1; } }
        thread t2 { b = read y; if b == 1 { write z 1; } }
        thread t3 { write x 1; c = read z; }
    """,
    "write_after_read": """
        thread t1 { a = read x; write y a + 1; }
        thread t2 { write x 3; b = read y; }
    """,
    "store_buffer": """
        thread t1 { write x 1; a = read y; }
        thread t2 { write y 1; b = read x; }
    """,
    "dekker_flags": """
        thread t1 { write f1 1; a = read f2; if a == 0 { write turn 1; } }
        thread t2 { write f2 1; b = read f1; if b == 0 { write turn 2; } }
    """,
    "message_passing": """
        thread t1 { write data 5; write flag 1; }
        thread t2 { f = read flag; if f == 1 { d = read data; assert d == 5; } }
    """,
    "assert_race": """
        thread t1 { write flag 1; write data 5; }
        thread t2 { f = read flag; if f == 1 { d = read data; assert d == 5; } }
    """,
    "assert_always_fails": """
        thread t1 { write x 1; }
        thread t2 { r = read x; assert r == 5; }
    """,
    "assert_never_fails": """
        thread t1 { write x 1; }
        thread t2 { r = read x; assert r <= 1; }
    """,
    "mutex_pair": """
        thread t1 { lock m; write x 1; unlock m; }
        thread t2 { lock m; write x 2; unlock m; }
        thread t3 { r = read x; }
    """,
    "mutex_three": """
        thread t1 { lock m; write x 1; unlock m; }
        thread t2 { lock m; write x 2; unlock m; }
        thread t3 { lock m; r = read x; unlock m; }
    """,
    "mutex_counter": """
        thread t1 { lock m; a = read c; write c a + 1; unlock m; }
        thread t2 { lock m; b = read c; write c b + 1; unlock m; }
        thread t3 { r = read c; assert r <= 2; }
    """,
    "lost_update": """
        thread t1 { a = read c; write c a + 1; }
        thread t2 { b = read c; write c b + 1; }
        thread t3 { r = read c; }
    """,
    "deadlock_ab_ba": """
        thread t1 { lock a; lock b; unlock b; unlock a; }
        thread t2 { lock b; lock a; unlock a; unlock b; }
    """,
    "deadlock_no_unlock": """
        thread t1 { lock a; lock b; }
        thread t2 { lock b; lock a; }
    """,
    "mutex_and_free_writer": """
        thread t1 { lock m; a = read x; unlock m; }
        thread t2 { write x 4; }
        thread t3 { lock m; write x 9; unlock m; }
    """,
    "repeat_writer": """
        thread t1 { repeat 2 { write x 1; } }
        thread t2 { r = read x; }
    """,
    "repeat_reader_derives": """
        thread t1 { repeat 2 { a = read x; write y a + 1; } }
        thread t2 { write x 5; }
    """,
    "repeat_zero": """
        thread t1 { repeat 0 { write x 9; } write x 1; }
        thread t2 { r = read x; }
    """,
    "arithmetic_mix": """
        thread t1 { a = 2; b = a * 3 - 1; write x b; }
        thread t2 { r = read x; s = r + r; write y s; }
        thread t3 { t = read y; assert t <= 10; }
    """,
    "three_readers": """
        thread t1 { write x 1; }
        thread t2 { a = read x; }
        thread t3 { b = read x; }
        thread t4 { c = read x; }
    """,
    "unwritten_variable": """
        thread t1 { a = read ghost; assert a == 0; }
        thread t2 { write x 1; }
    """,
    "value_switch": """
        thread t1 { a = read x; if a < 2 { write y 1; } else { write z 1; } }
        thread t2 { write x 1; write x 2; }
    """,
    "self_overwrite": """
        thread t1 { write x 1; write x 2; }
        thread t2 { a = read x; b = read x; }
    """,
    "negative_values": """
        thread t1 { write x 0 - 4; }
        thread t2 { a = read x; if a < 0 { write y 1; } }
        thread t3 { b = read y; }
    """,
}


# One write and 3000 reads of another variable: a single leaf, 3000 explorer
# nodes deep.
LONG_READS = "thread t1 { write y 1; }\nthread t2 { repeat 3000 { a = read x; } }"

# 10^10 writes in one thread, far past the unroll limit: a parse error.
NESTED_REPEATS = "thread t { repeat 100000 { repeat 100000 { write x 1; } } }"


# Programs that release a mutex their thread does not hold, on every
# schedule or on some.  Every entry point raises ``InterpreterError`` on them
# and the CLI exits 2.
MISUSE: dict[str, str] = {
    "unheld_unlock": """
        thread t1 { write x 1; unlock m; }
        thread t2 { a = read x; }
    """,
    "unlock_in_one_branch": """
        thread t1 { write x 1; }
        thread t2 { lock m; a = read x; if a == 1 { unlock m; } unlock m; }
    """,
    "double_unlock": """
        thread t1 { lock m; write x 1; unlock m; unlock m; }
        thread t2 { lock m; a = read x; unlock m; }
    """,
    "deep_unheld_unlock": "thread t1 { repeat 1500 { a = read x; } unlock m; }",
}


# Programs nested ``n`` levels deep, one per kind of nesting; the parser
# accepts up to 100 levels.  ``deep_program(shape, n)[1]`` is the 1-based
# column of the token that opens level ``n``.
DEEP_PREFIX = "thread t { write x "


def deep_program(shape: str, n: int) -> tuple[str, int]:
    if shape == "parens":
        return DEEP_PREFIX + "(" * n + "1" + ")" * n + "; }", len(DEEP_PREFIX) + n
    if shape == "negations":
        return DEEP_PREFIX + "-" * n + "1; }", len(DEEP_PREFIX) + n
    if shape == "sum":
        return DEEP_PREFIX + "+".join(["1"] * (n + 1)) + "; }", len(DEEP_PREFIX) + 2 * n
    assert shape == "ifs"
    opener = "if 0 == 0 { "
    body = opener * n + "write x 1; " + "} " * n
    return "thread t { " + body + "}", len("thread t { ") + len(opener) * n - 1
