"""``python -m triwave``: the same command line as the ``triwave`` script."""

import sys

from .cli import main

sys.exit(main())
