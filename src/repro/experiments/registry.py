"""The unified experiment registry over both evaluation chapters.

``EXPERIMENTS`` maps experiment ids (``table_4_1`` ... ``fig_5_5_scenario``)
to runners.  Importing it loads every experiment module, so only the
commands that run or list experiments do.
"""

from repro.experiments.chapter4 import CHAPTER4
from repro.experiments.chapter5 import CHAPTER5
from repro.experiments.report import ExperimentRegistry

__all__ = ["EXPERIMENTS"]

EXPERIMENTS = ExperimentRegistry()
for _registry in (CHAPTER4, CHAPTER5):
    for _experiment_id in _registry.ids():
        EXPERIMENTS._experiments[_experiment_id] = _registry._experiments[_experiment_id]
