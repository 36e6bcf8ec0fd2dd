"""Deterministic federation simulator.

Simulates synchronous, semi-synchronous and asynchronous federated training
over heterogeneous learners on a virtual clock, with pluggable aggregation
weighting and an O(model) incremental community-model cache. Import each
name from the module that defines it.
"""

# perfbench/child.py calls these as pkg.<name> on fedsim and fedsim_base.
from .config import parse_config
from .runner import build_world
from .tasks import init_params

__version__ = "0.1.0"
