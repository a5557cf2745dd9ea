"""The reference kernel: fixed work timed next to every measured stretch.

The machine this benchmark was written on is a shared 2-vCPU VM whose
speed halves and recovers within seconds, for this process's CPU time
too.  In one 300-s campaign run, pass times swung from 0.86 to 1.66 s
while the ratio of each pass to the kernel runs around its tasks stayed
within 2.8-3.4.  So run.py divides every measured time by the time of a
kernel run right before and right after it, and multiplies by REF_S: a
time is reported as it would read on a machine where the kernel takes
REF_S seconds.  The kernel is fixed code of the benchmark's own, so a
change to the program moves the scaled times and leaves the kernel
alone.

How much a slow phase slows code depends on the code.  The kernel here,
sparse products of dicts keyed by exponent tuples with small integers, is
the interpreter-bound work of poly_mul and of most of the program: a slow
phase slows it about 2x, as it does degseq and campaign passes.  It does
not fit the orbit workload, whose gcds and products of 0.1-0.45 Mbit
integers slow only about 1.3x in the same phases; scaled by this kernel,
orbit's spread over five seeds grew from about 0.05 to 0.15 (IQR/median
of wall_s), and a kernel multiplying two 400-kbit integers did no better.
So orbit times are reported as the clock read them.
"""

import time


def _poly_operand():
    terms, c = {}, 1
    for i in range(30):
        c = (c * 7 + 3) % 19 - 9
        terms[(i % 6, i * 5 % 6, i * 3 % 7)] = c or 1
    return terms


_POLY = _poly_operand()
# about the kernel's time on a shared 2-vCPU VM at full speed
REF_S = 0.008


def kernel():
    p = _POLY
    for _ in range(4):
        q = p
        for _ in range(2):
            out = {}
            for e1, c1 in q.items():
                for e2, c2 in p.items():
                    k = (e1[0] + e2[0], e1[1] + e2[1], e1[2] + e2[2])
                    out[k] = out.get(k, 0) + c1 * c2
            q = out


def reference():
    """Run the kernel once and return the seconds it took."""
    t0 = time.perf_counter()
    kernel()
    return time.perf_counter() - t0
