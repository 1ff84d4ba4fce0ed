"""``python -m genet``: the same CLI as the ``genet`` console script."""

from .cli import main

if __name__ == "__main__":
    raise SystemExit(main())
