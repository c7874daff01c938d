"""Host-speed reference: a fixed kernel timed between operations.

On a shared VM the speed of the same code changes by up to 1.8x in phases
that last from seconds to minutes, with no steal time, and CPU time moves
with wall time.  A 30-second run can sit wholly in a slow or a fast phase,
so no statistic over one run removes the phase.  The benchmark therefore
times this kernel next to the operations and reports every time at the
reference speed:

    reported = measured * NOMINAL_S / kernel time measured next to it

The kernel builds short-lived numpy Philox generators and draws a few
uniforms from each, converting them to a Python list.  Of the kernels tried
on the build machine (a pure-Python step loop, small numpy dot products and
this one), it tracked every workload's operations best, Monte Carlo rows
and exact laws alike.  It calls nothing in ``restartfp``, so a change to
the program does not change it.  NOMINAL_S is a fixed constant, the
kernel's median time on the 2-vCPU x86-64 VM the benchmark was built on,
so a reported time reads as seconds on that host at its usual speed.
"""

from time import perf_counter

# Generators built per kernel run: 0.9-1.6 ms on the build machine.
GENERATORS = 64
DRAWS = 64
# The kernel's median time there, over runs in fast and slow phases.
NOMINAL_S = 0.00145


def kernel() -> float:
    # Imported here, so that importing this module does not import numpy
    # before the benchmark times the import of restartfp.
    import numpy as np

    total = 0.0
    for index in range(GENERATORS):
        generator = np.random.Generator(np.random.Philox(key=(7 << 64) + index))
        total += generator.random(DRAWS).tolist()[-1]
    return total


def kernel_s() -> float:
    """Seconds one run of the kernel takes now."""
    start = perf_counter()
    kernel()
    return perf_counter() - start
