import gc
import os
import sys

from .cli import main


def run():
    # The package makes no BLAS call, and an OpenBLAS worker thread started
    # at numpy's import busy-waits beside the main thread; a value the user
    # has set is kept.
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    code = main()
    # Moves every object to the permanent generation, so that finalization
    # makes no full collection pass over numpy's module graph before the
    # process exits; output, atexit handlers and the exit code are unchanged.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
