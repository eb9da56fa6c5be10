"""``python -m mweights``: the same command line as the ``mweights`` script."""
from .cli import main_entry

if __name__ == "__main__":
    main_entry()
