"""``python -m repro`` — reproduce the paper's tables and figures."""

import sys

from repro.cli import main

if __name__ == "__main__":
    sys.exit(main())
