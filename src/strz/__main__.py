"""``python -m strz``: the strz command line (strz.cli) without an installed
``strz`` script, as a source checkout runs it with PYTHONPATH=src."""
import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
