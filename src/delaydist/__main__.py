"""``python -m delaydist``: the command-line front end in :mod:`delaydist.cli`."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
