"""The ltvlab benchmark: workloads and their gates (``workloads.py``), an
outside-in tracer (``tracer.py``), timing at a reference machine speed
(``speed.py``) and the runner (``runner.py``).  The entry point is
``python3 benchmarks/bench.py``."""
