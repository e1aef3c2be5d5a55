"""End-to-end benchmark harness (see ``benchmarks/e2e/README.md``).

The system under test is always a separate ``repro serve`` process
tree; this package is the load generator, the measurement code and the
reference computations.  It touches ``repro`` only through public,
non-underscore names, and never through ``repro.service.loadgen`` or
``repro.service.scenario``.
"""
