"""One benchmark pass in a fresh interpreter.

    python3 bench/pass_runner.py setup
    python3 bench/pass_runner.py pass|trace REQUESTS.json RESULT.json

The evoalg import and parser construction come first, so the monotonic
time at which they finish can be compared with the parent's spawn time:
the difference is the pass's set-up time.  ``setup`` prints that time and
exits.  ``pass`` runs every request once, in order, as one
``evoalg.cli.main(argv)`` call with stdout captured, and writes per-request
exit codes, output digests and spans plus the interpreter's peak RSS.
After each request it times ``reference_loop``, a fixed piece of work whose
time tracks how fast the shared CPU runs at that moment.  ``trace`` does
the same under cProfile with the counting hooks of ``layers.py`` and adds
the per-layer numbers.
"""

import time

from evoalg import cli

cli.build_parser()
READY = time.monotonic()

import contextlib  # noqa: E402  (after the set-up mark on purpose)
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402


def reference_loop():
    """A fixed slice of pure-Python work (calls, int arithmetic, small
    lists) timed between requests, to track the speed of the machine."""
    rows = [[(i * j + 1) % 101 for j in range(12)] for i in range(12)]
    acc = 0
    for _ in range(100):
        for row in rows:
            acc = (acc + sum(a * b % 101 for a, b in zip(row, rows[0]))) % 1000003
    return acc


def run_requests(requests):
    """Outputs, spans and reference-loop times of every request; outputs
    are hashed after the loop so the timed region holds only CLI calls."""
    raw = []
    for req in requests:
        out, err = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                rc = cli.main(req["argv"])
            error = None
        except SystemExit as exc:
            rc, error = exc.code, "SystemExit"
        except Exception as exc:  # a traceback is a failed request, not a failed pass
            rc, error = None, f"{type(exc).__name__}: {exc}"
        end = time.perf_counter()
        reference_loop()
        raw.append((req, rc, error, out.getvalue(), start, end,
                    time.perf_counter() - end))
    results = []
    for req, rc, error, stdout, start, end, ref in raw:
        digest = hashlib.sha256(f"{rc}\n{stdout}".encode("utf-8")).hexdigest()
        results.append({"id": req["id"], "rc": rc, "error": error, "digest": digest,
                        "start": start, "end": end, "ref": ref,
                        "stdout": stdout if req["keep"] else None})
    return results


def main(argv):
    mode = argv[1]
    if mode == "setup":
        print(repr(READY))
        return 0
    with open(argv[2], encoding="utf-8") as fh:
        requests = json.load(fh)
    if mode == "trace":
        import cProfile

        import layers
        counts = layers.install()
        profiler = cProfile.Profile()
        profiler.enable()
        results = run_requests(requests)
        profiler.disable()
        per_layer = layers.metrics(profiler, counts, requests, results)
    else:
        results = run_requests(requests)
        per_layer = None
    report = {"ready": READY,
              "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
              "results": results, "layers": per_layer}
    with open(argv[3], "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
