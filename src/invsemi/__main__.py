"""`python -m invsemi` runs the command line, as the `invsemi` script does."""

import sys

from .cli import main

sys.exit(main())
