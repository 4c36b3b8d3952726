"""``python -m ranslicer``: the same command line as the ``ranslicer`` script."""

from .cli import main

if __name__ == "__main__":
    main()
