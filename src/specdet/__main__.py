"""``python -m specdet``: the specdet command line (see :mod:`specdet.cli`)."""

from .cli import main

if __name__ == "__main__":
    main()
