"""Allow ``python -m roadtwin`` as an alias for the ``roadtwin`` script."""
from .cli import entry

if __name__ == "__main__":
    entry()
