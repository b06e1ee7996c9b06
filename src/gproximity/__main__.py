import gc
import sys

from .cli import main


def run():
    code = main()
    # Moves every object to the permanent generation, so that finalization
    # makes no full collection pass over numpy's module graph before the
    # process exits; output, atexit handlers and the exit code are unchanged.
    gc.freeze()
    sys.exit(code)


if __name__ == "__main__":
    run()
