"""``python -m genet``: the same CLI as the ``genet`` console script."""

from .cli import run

if __name__ == "__main__":
    run()
