"""``python -m f2units``: the command-line front end (see ``cli``)."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
