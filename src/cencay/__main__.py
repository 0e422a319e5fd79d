"""``python -m cencay``: the command-line interface of ``cencay.cli``."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
