"""Run the command-line interface: python -m sepscope <command> ..."""

import sys

from . import cli

sys.exit(cli.main())
