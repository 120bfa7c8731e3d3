"""`python -m quivernc`: the same command line as the `quivernc` script."""

import sys

from .cli import main

sys.exit(main())
