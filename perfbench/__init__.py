"""perfbench: the repo's wall-clock benchmark.

Four closed-loop, single-client workloads that each put a different layer
on the critical path, a fixed catalogue of end-to-end metrics with a
regression bound each, an oracle and durability check on every result, and
a separate traced run that yields per-layer self times and counts.  It
measures every layer from outside, by timing calls into public functions;
nothing under ``src/`` knows it exists.  See ``perfbench/README.md``.
"""
