"""Experiment harness: regenerate every table and figure of the paper.

:data:`repro.experiments.registry.EXPERIMENTS` maps experiment ids
(``table_4_1`` ... ``fig_5_5_scenario``) to runners; the CLI
(``python -m repro.experiments``) prints the rows the paper reports.
DESIGN.md's per-experiment index maps ids to paper artifacts and modules.
"""
