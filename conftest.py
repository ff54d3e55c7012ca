"""Import kdlab before any test module imports numpy.

kdlab defaults BLAS to one thread unless the environment sets a thread
count, and that default only takes effect before numpy is first imported.
pytest loads this file before it collects ``tests/`` or ``benchmarks/``,
so the suite runs with the same BLAS threads as the command line.
"""

import kdlab  # noqa: F401
