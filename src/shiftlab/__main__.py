"""``python -m shiftlab``: the ``shiftlab`` command."""
from .cli import console_entry

console_entry()
