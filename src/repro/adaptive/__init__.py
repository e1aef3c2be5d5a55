"""Adaptive control extensions (the paper's sections 4.8 and 6.2).

Selectivity monitoring, filter (re)grouping strategies and dynamic
enabling/disabling of group-awareness - the future-work directions the
dissertation sketches for production deployments.
"""
