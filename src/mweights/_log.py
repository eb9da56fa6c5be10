"""Debug records without importing :mod:`logging`."""
import sys


def debug(name: str, msg: str, *args) -> None:
    """``logging.getLogger(name).debug(msg, *args)`` when :mod:`logging` is
    loaded.  A process that never imported it has no handler that could take
    the record (the last-resort handler takes WARNING and above), so the
    package leaves the import, and its start-up cost, to whoever configures
    logging."""
    logging = sys.modules.get("logging")
    if logging is not None:
        logging.getLogger(name).debug(msg, *args)
