"""Small shared utilities: parallel execution and text rendering."""

from .parallel import TaskOutcome, default_workers, parallel_map
from .textplot import ascii_plot, format_table

__all__ = [
    "default_workers",
    "parallel_map",
    "TaskOutcome",
    "ascii_plot",
    "format_table",
]
