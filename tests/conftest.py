"""Tier-1 writes no bytecode into the checkout.

A cached ``src/solk/__pycache__`` changes what a later import of ``solk``
costs, so a tree where the tests ran would time differently from a clean
one.  The environment variable carries the setting to the interpreters
that the tests start.
"""

import os
import sys

sys.dont_write_bytecode = True
os.environ["PYTHONDONTWRITEBYTECODE"] = "1"
