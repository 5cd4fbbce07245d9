"""`python -m lexbs ...` runs the command line, the same as `lexbs ...`."""

import sys

from .cli import main

sys.exit(main())
