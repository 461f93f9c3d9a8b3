"""`python -m secnum`: the `secnum` command without an installed script."""

import sys

from .cli import main

# a spawned worker imports this module again, as __mp_main__
if __name__ == "__main__":
    sys.exit(main())
