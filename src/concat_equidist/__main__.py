"""``python -m concat_equidist``: the command-line interface."""
from .cli import entry

entry()
