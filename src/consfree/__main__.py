"""`python3 -m consfree ...`: the command line front end, run from a checkout
with `src` on the path or from an install."""

import sys

from .cli import main

sys.exit(main())
