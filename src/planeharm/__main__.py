"""Entry point for ``python -m planeharm``; same as the ``planeharm`` script."""

import sys

from .cli import main

sys.exit(main())
