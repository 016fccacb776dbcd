"""Run one `cne` CLI command in this process, as the `cne` entry point does.

    python3 benchmarks/child.py RECORD MODE -- <cne arguments>

MODE is ``plain`` (record only the first entry into a fit), ``trace`` (also
wrap every measured layer, see ``tracing.install``) or ``setup`` (stop at
the first fit entry: a set-up-only sample). At exit RECORD receives a JSON
object with the exit code, the monotonic time of the first fit entry, this
process's own peak RSS and, when traced, the spans.
"""

from __future__ import annotations

import json
import resource
import sys
import time


class _StopAtFit(BaseException):
    """Raised at the first fit entry of a set-up-only run; a BaseException so
    that the per-cell ``except Exception`` of ``cne bench`` lets it through."""


def _hook_fit_entry(cli, record, stop: bool):
    for name in ("fit_nonparametric", "fit_parametric"):
        fn = getattr(cli, name, None)
        if fn is None:
            continue

        def first_entry(*args, _fn=fn, **kwargs):
            if record["fit_entry"] is None:
                record["fit_entry"] = time.monotonic()
            if stop:
                raise _StopAtFit
            return _fn(*args, **kwargs)

        setattr(cli, name, first_entry)


def main(argv) -> int:
    record_path, mode, sep, *cne_args = argv
    if sep != "--" or mode not in ("plain", "trace", "setup"):
        print("usage: child.py RECORD plain|trace|setup -- <cne arguments>", file=sys.stderr)
        return 2
    record = {"exit": None, "fit_entry": None}
    tracer = None
    try:
        import cne
        import cne.cli as cli
        if mode == "trace":
            import tracing
            tracer = tracing.Tracer(run_id=record_path)
            tracing.install(tracer, cne)
        # Outermost, so the entry time is taken before any tracing wrapper runs.
        _hook_fit_entry(cli, record, stop=mode == "setup")
        try:
            record["exit"] = cli.main(cne_args)
        except _StopAtFit:
            record["exit"] = 0
        return record["exit"]
    finally:
        record["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            record["trace"] = tracer.to_dict()
        with open(record_path, "w") as fh:
            json.dump(record, fh)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
