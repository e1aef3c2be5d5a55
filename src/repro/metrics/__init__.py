"""Metrics of the paper's evaluation: O/I ratio, output ratio, CPU cost,
latency, and the box-plot summaries used by the Chapter 4 figures."""
