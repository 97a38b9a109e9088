"""``python -m multipot``: the command line of :mod:`multipot.cli`."""
import sys

from .cli import main

sys.exit(main())
