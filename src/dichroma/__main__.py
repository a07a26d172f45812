"""``python -m dichroma``: the same command line as the ``dichroma`` script."""

from .cli import entry

if __name__ == "__main__":
    entry()
