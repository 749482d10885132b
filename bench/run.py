"""Closed-loop CLI benchmark of evoalg.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One client, one process, one thread: each request is one
``evoalg.cli.main(argv)`` call on a fixture file, and the next request
starts when the previous one returns.  A pass runs every request of the
workload once, in a fresh interpreter (``pass_runner.py``), so nothing the
program might cache by value survives from one use of a fixture to the
next.  Passes repeat until the next one would end after ``--seconds``; at
least three always run, and their outputs must be byte-identical.
Latencies are scaled to a reference speed of the shared CPU
(``_scaled_latencies``; the reasons are in ``README.md``).

Fixtures come from ``--seed`` alone (``workloads.py``).  Every output is
checked: exit code 0, the same bytes in every pass, the committed digest
for the default seed (``expected/``), and the independent checks of
``checks.py``.  With ``--trace 1`` one more pass runs under the profiler of
``layers.py`` and the per-layer metrics are reported instead of the
end-to-end ones; spans and layer numbers go to
``.bench_work/<workload>-seed<N>/trace.json``.

The last line of stdout is a JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric by name
and unit.
"""

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

from checks import check
from layers import METRICS as LAYER_METRICS
from workloads import WORKLOADS, build

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)

DEFAULT_SEED = 1
SETUP_PROBES = 3        # set-up-only interpreters after each pass
MIN_PASSES = 3
DEADLINE_S = 170        # the whole run, including the traced pass
NOMINAL_REF_S = 0.002   # reference-loop time that latencies are scaled to
REF_WINDOW = 2          # reference loops on each side of a request

END_TO_END = {
    "setup_s": ("s", "lower"),
    "requests_per_s": ("1/s", "higher"),
    "latency_p50_s": ("s", "lower"),
    "latency_p90_s": ("s", "lower"),
    "peak_rss_mib": ("MiB", "lower"),
}


class BenchError(Exception):
    pass


def nearest_rank(values, q):
    """The q-quantile by the nearest-rank rule, and how many samples lie
    strictly after its rank."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1], len(ordered) - rank


def _spawn(args, deadline):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    env.pop("EVOALG_THREADS", None)
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(BENCH, "pass_runner.py"), *args],
                            cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("a pass interpreter ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"pass interpreter exited {proc.returncode}: {err.strip()[-800:]}")
    return spawned, out


def _run_pass(mode, req_file, res_file, deadline):
    spawned, _ = _spawn([mode, req_file, res_file], deadline)
    with open(res_file, encoding="utf-8") as fh:
        report = json.load(fh)
    report["setup_s"] = report["ready"] - spawned
    return report


def _write_fixtures(requests, work):
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    child = []
    for req in requests:
        argv = list(req["argv"])
        if req["fixture"] is not None:
            path = os.path.join(work, req["id"] + ".alg")
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(req["fixture"])
            argv[1] = path
        child.append({"id": req["id"], "argv": argv, "keep": req["check"] is not None})
    req_file = os.path.join(work, "requests.json")
    with open(req_file, "w", encoding="utf-8") as fh:
        json.dump(child, fh)
    return child, req_file


def _expected_path(workload):
    return os.path.join(BENCH, "expected", f"{workload}.json")


def _failures(requests, passes, expected):
    """(failed count, first few reasons) over every request of every pass."""
    reference = passes[0]["results"]
    independent = [check(req, ref["stdout"]) if ref["stdout"] is not None
                   and ref["rc"] == 0 else None
                   for req, ref in zip(requests, reference)]
    failed, reasons = 0, []
    for number, report in enumerate(passes):
        for req, res, ref, bad in zip(requests, report["results"], reference, independent):
            if res["error"] is not None:
                reason = res["error"]
            elif res["rc"] != 0:
                reason = f"exit code {res['rc']}"
            elif res["digest"] != ref["digest"]:
                reason = "output bytes differ from the first pass"
            elif expected is not None and expected.get(req["id"]) != res["digest"]:
                reason = "output bytes differ from the committed digest"
            else:
                reason = bad
            if reason is not None:
                failed += 1
                if len(reasons) < 5:
                    reasons.append(f"pass {number} {req['id']}: {reason}")
    return failed, reasons


def _scaled_latencies(report):
    """The pass's request latencies at the reference speed: each is
    multiplied by NOMINAL_REF_S over the median time of the reference loops
    that ``pass_runner.py`` ran just before and after it."""
    refs = [r["ref"] for r in report["results"]]
    return [(r["end"] - r["start"]) * NOMINAL_REF_S
            / statistics.median(refs[max(0, j - REF_WINDOW):j + REF_WINDOW + 1])
            for j, r in enumerate(report["results"])]


def _busy_s(report):
    return sum(r["end"] - r["start"] for r in report["results"])


def _end_to_end(passes, setups):
    # Other tenants of a shared CPU can slow it by up to twice, in phases
    # from seconds to minutes; scaling by the reference loops around each
    # request removes most of that, and the median over passes the rest.
    scaled = [_scaled_latencies(p) for p in passes]
    per_request = [statistics.median(v) for v in zip(*scaled)]
    raw = [statistics.median(p["results"][i]["end"] - p["results"][i]["start"]
                             for p in passes) for i in range(len(per_request))]
    ok = sum(1 for i in range(len(per_request))
             if all(p["results"][i]["rc"] == 0 and p["results"][i]["error"] is None
                    for p in passes))
    p90, beyond = nearest_rank(per_request, 0.9)
    ref_ms = 1000 * statistics.median(r["ref"] for p in passes for r in p["results"])
    values = {
        "setup_s": statistics.median(setups),
        "requests_per_s": ok / sum(per_request),
        "latency_p50_s": statistics.median(per_request),
        "latency_p90_s": p90,
        "peak_rss_mib": statistics.median(p["maxrss_kib"] for p in passes) / 1024,
    }
    notes = {
        "setup_s": f"median of {len(setups)} interpreter starts, not scaled",
        "requests_per_s": f"{ok} correct requests back to back; unscaled "
                          f"{ok / sum(raw):.6g}",
        "latency_p50_s": f"{len(per_request)} requests, each the median of "
                         f"{len(passes)} passes; unscaled {statistics.median(raw):.6g}",
        "latency_p90_s": f"{len(per_request)} requests, {beyond} beyond; unscaled "
                         f"{nearest_rank(raw, 0.9)[0]:.6g}",
        "peak_rss_mib": f"median over {len(passes)} passes",
    }
    scale_note = (f"latencies scaled to the reference speed: reference loop "
                  f"{ref_ms:.4g} ms here, {1000 * NOMINAL_REF_S:.4g} ms nominal")
    return values, notes, scale_note


def _write_trace(work, requests, report, layer_values):
    spans = [{"id": res["id"], "subcommand": req["argv"][0],
              "start": res["start"], "end": res["end"]}
             for req, res in zip(requests, report["results"])]
    path = os.path.join(work, "trace.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"spans": spans, "layers": layer_values,
                   "unattributed_s": report["layers"]["_unattributed_s"]}, fh, indent=1)
    return path


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=26)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-expected", action="store_true",
                    help="record the output digests of the default seed in expected/")
    return ap.parse_args(argv)


def run(args):
    if not os.path.isfile(os.path.join(ROOT, "src", "evoalg", "cli.py")):
        raise BenchError(f"no evoalg sources under {os.path.join(ROOT, 'src')}")
    if args.write_expected and args.seed != DEFAULT_SEED:
        raise BenchError(f"expected digests are recorded for seed {DEFAULT_SEED} only")
    deadline = time.monotonic() + DEADLINE_S
    requests = build(args.workload, args.seed)
    work = os.path.join(ROOT, ".bench_work", f"{args.workload}-seed{args.seed}")
    child, req_file = _write_fixtures(requests, work)
    res_file = os.path.join(work, "result.json")

    _spawn(["setup"], deadline)  # compiles bytecode and warms the file cache
    start = time.monotonic()
    setups, passes = [], []
    while True:
        report = _run_pass("pass", req_file, res_file, deadline)
        setups.append(report["setup_s"])
        passes.append(report)
        for _ in range(SETUP_PROBES):
            spawned, out = _spawn(["setup"], deadline)
            setups.append(float(out) - spawned)
        elapsed = time.monotonic() - start
        if len(passes) >= MIN_PASSES and elapsed * (1 + 1 / len(passes)) > args.seconds:
            break

    expected = None
    if args.seed == DEFAULT_SEED and not args.write_expected:
        with open(_expected_path(args.workload), encoding="utf-8") as fh:
            expected = json.load(fh)
    traced = _run_pass("trace", req_file, res_file, deadline) if args.trace else None
    checked = passes + ([traced] if traced else [])
    failed, reasons = _failures(requests, checked, expected)
    attempted = len(child) * len(checked)
    values, notes, scale_note = _end_to_end(passes, setups)

    print(f"workload {args.workload}, seed {args.seed}: {len(passes)} passes of "
          f"{len(child)} requests, closed loop, 1 client; python "
          f"{platform.python_version()}, nproc {os.cpu_count()}; {scale_note}")
    for name, (unit, better) in END_TO_END.items():
        print(f"  {name} = {values[name]:.6g} {unit} ({better} is better; {notes[name]})")
    print(f"  failed_ratio = {failed / attempted:.6g} ({failed} of {attempted} attempted)")
    for reason in reasons:
        print(f"  FAILED {reason}")

    metrics = {name: {"value": values[name], "unit": unit}
               for name, (unit, _) in END_TO_END.items()}
    if traced is not None:
        layer_values = {k: v for k, v in traced["layers"].items() if k in LAYER_METRICS}
        layer_values["trace.overhead_ratio"] = (
            _busy_s(traced) / statistics.median(_busy_s(p) for p in passes))
        path = _write_trace(work, child, traced, layer_values)
        print(f"per-layer metrics of one traced pass (spans in {os.path.relpath(path, ROOT)}):")
        for name, (unit, better) in LAYER_METRICS.items():
            print(f"  {name} = {layer_values[name]:.6g} {unit} ({better} is better)")
        metrics = {name: {"value": layer_values[name], "unit": unit}
                   for name, (unit, _) in LAYER_METRICS.items()}

    if args.write_expected:
        if failed:
            raise BenchError("refusing to record digests of failing outputs")
        os.makedirs(os.path.dirname(_expected_path(args.workload)), exist_ok=True)
        with open(_expected_path(args.workload), "w", encoding="utf-8") as fh:
            json.dump({r["id"]: r["digest"] for r in passes[0]["results"]}, fh,
                      indent=1, sort_keys=True)
            fh.write("\n")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


def main(argv=None):
    args = parse_args(argv)
    try:
        result = run(args)
    except (BenchError, OSError) as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
