"""Run one mqwalk CLI task in this process, as the ``mqwalk`` command would.

Usage: launch.py SIDECAR MODE WALK_SIDE COIN_SIDE -- CLI_ARGS...

MODE is ``traced`` to record spans around every layer (see ``spans.py``),
``plain`` to record only the end of set-up, and ``setup`` to exit with
code 0 as soon as set-up ends, without computing anything.  Otherwise the
CLI's exit code becomes this process's exit code.  The timings go to the
SIDECAR JSON file when the process ends.
"""

import json
import os
import sys


def main(argv: list[str]) -> int:
    sidecar, mode, walk_side, coin_side, sep, *cli_args = argv
    if sep != "--" or mode not in ("plain", "traced", "setup"):
        raise SystemExit(__doc__)

    import mqwalk.cli

    from spans import Recorder

    recorder = Recorder(int(walk_side), int(coin_side))
    installed = recorder.install(traced=mode == "traced")

    def save() -> None:
        doc = recorder.finish()
        doc["installed"] = installed
        doc["mqwalk"] = mqwalk.cli.__file__
        with open(sidecar, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)

    if mode == "setup":
        recorder.on_setup_end = lambda: (save(), os._exit(0))
    try:
        return mqwalk.cli.main(cli_args)
    finally:
        save()


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
