"""``python -m poisson_forge``: the poisson-forge command line."""

import sys

from .cli import main

if __name__ == "__main__":
    sys.exit(main())
