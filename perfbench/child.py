"""One fresh interpreter of the benchmark: set up topoqed, run commands, report.

Usage: python3 child.py JOB.json

JOB.json holds ``commands`` (argv lists for ``topoqed.cli.main``), ``trace``
(wrap the layers with ``tracer.Tracer`` first), ``setup_only`` and
``result``, the path this process writes its report to.  The report holds
the monotonic clock reading when set-up ended (the parent subtracts its own
reading taken just before the process started), the wall time from the first
``cli.main`` call to the last return, every exit code, the peak resident set
size and, when traced, the per-layer metrics.
"""

import json
import resource
import sys
import time
import traceback


def _run(main, argv) -> int:
    try:
        return int(main(list(argv)))
    except SystemExit as exc:  # argparse rejects bad flags with exit 2
        return exc.code if isinstance(exc.code, int) else 1
    except Exception:
        traceback.print_exc()
        return 1


def main() -> int:
    with open(sys.argv[1]) as fh:
        job = json.load(fh)

    import numpy
    import scipy

    import topoqed
    import topoqed.cli
    from topoqed.config import load_config

    tracer = None
    if job["trace"]:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    start = time.monotonic()
    load_config(None)
    ready = time.monotonic()
    report = {
        "ready": ready,
        "config_load_s": ready - start,
        "versions": {"topoqed": topoqed.__version__, "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
    }
    if not job["setup_only"]:
        start = time.monotonic()
        codes = [_run(topoqed.cli.main, argv) for argv in job["commands"]]
        report["wall_s"] = time.monotonic() - start
        report["exit_codes"] = codes
        if tracer is not None:
            report["layers"] = tracer.metrics()
    report["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    with open(job["result"], "w") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
