"""The serving benchmark: facade-level latency, page reads and per-layer spans.

See ``perf/README.md``.  Nothing here is imported by ``repro``; the
benchmark observes the library from outside.
"""
