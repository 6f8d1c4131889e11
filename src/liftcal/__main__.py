"""`python -m liftcal`: the command-line frontend."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
