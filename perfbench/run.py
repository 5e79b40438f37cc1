#!/usr/bin/env python3
"""End-to-end benchmark of ABNN2 secure prediction under shipped defaults.

Run from the repository root::

    python3 perfbench/run.py --workload mlp_b16 --seed 1 --seconds 28 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` is the
separate traced run that installs the probes of ``perfbench/ledger.py``
and reports the per-layer metrics and the layer x phase ledger.  The
last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; a full result
document (environment stamp, sample counts, ledger, span records) is
written under ``.perfbench_out/``.  The exit code is non-zero when any
prediction fails the correctness gate or the traffic checks.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()  # set-up time counts from process start

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / ".perfbench_out"
TMP_DIR = ROOT / ".perfbench_tmp"

WORKLOADS = ("mlp_b16", "cnn_b1", "serve_b1")
#: Model set-ups per run; ``setup_s`` reports their median.
SETUP_REPEATS = 3
#: Stated margin on (wall - wait - cpu) / wall per party and phase.
UNACCOUNTED_MARGIN = 0.40

#: (name, unit) of every end-to-end metric, printed with ``--trace 0``.
END_TO_END = (
    ("setup_s", "s"),
    ("predict_s", "s"),
    ("offline_s", "s"),
    ("online_s", "s"),
    ("session_first_s", "s"),
    ("samples_per_s", "1/s"),
    ("offline_MB", "MB"),
    ("online_MB", "MB"),
    ("online_rounds", "count"),
    ("wan_s", "s"),
    ("peak_rss_MB", "MB"),
)


def per_layer_units() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, printed with ``--trace 1``."""
    from ledger import LAYER_METRIC_NAMES

    units = []
    for name in LAYER_METRIC_NAMES + SERVE_LAYER + ["trace.overhead_frac", "trace.unaccounted_frac"]:
        if name.endswith(".MB"):
            unit = "MB"
        elif name.endswith(("_frac",)):
            unit = "ratio"
        elif name.endswith((".n", ".calls", ".rows", ".msgs")):
            unit = "count"
        else:
            unit = "s"
        units.append((name, unit))
    return units


SERVE_LAYER = ["serve.bank.take_s", "serve.bank.fill_s", "serve.session.grant_s"]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def knobs_set() -> list[str]:
    """Every ``ABNN2_*`` environment variable: each one changes behaviour
    (oracle, executor, scheduler, kernel, trace memory) away from the
    shipped defaults the benchmark measures."""
    return sorted(k for k in os.environ if k.startswith("ABNN2_"))


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_sha() -> str:
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "none"
    lines = top.stdout.split()
    if top.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return "none"
    return lines[1]


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment_stamp() -> dict:
    import numpy as np

    from repro.crypto import fastro
    from repro.crypto.group import DEFAULT_GROUP
    from repro.crypto.hash_ro import default_ro

    # The native oracle kernel is compiled into the temp dir, and the C
    # compiler writes its own scratch files to $TMPDIR; keep both inside
    # the checkout.
    TMP_DIR.mkdir(exist_ok=True)
    tempfile.tempdir = os.environ["TMPDIR"] = str(TMP_DIR)
    return {
        "git_sha": git_sha(),
        "src_sha256": source_digest(),
        "cpu": cpu_model(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "ro_backend": default_ro.name,
        "ro_kernel_active": fastro.kernel_active(),
        "dh_group": DEFAULT_GROUP.name,
        "knobs_set": knobs_set(),
    }


def summarize(values: list[float]) -> dict:
    ordered = sorted(values)
    return {"median": statistics.median(ordered), "max": ordered[-1], "n": len(ordered)}


def main(argv=None) -> int:
    args = parse_args(argv)
    knobs = knobs_set()
    if knobs:
        print(
            f"refusing to run: {', '.join(knobs)} set; the benchmark measures "
            "the shipped defaults only", file=sys.stderr,
        )
        return 2
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import workloads as wl
    from ledger import layer_metrics, ledger_rows, offline_model_check, phase_accounting, render_ledger, span_records
    from repro.perf.report import check_conformance
    from repro.perf.trace import peak_rss_bytes

    stamp = environment_stamp()
    process_s = time.perf_counter() - T_START

    serve = args.workload == "serve_b1"
    builder = wl.build_cnn if args.workload == "cnn_b1" else wl.build_mlp
    batch = 16 if args.workload == "mlp_b16" else 1
    build_times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        build = builder(args.seed)
        build_times.append(time.perf_counter() - t0)
    res = wl.RunResult()
    traced = bool(args.trace)
    if serve:
        probe = wl.run_serve(build, args.seconds, traced, res)
    else:
        probe = wl.run_one_shot(build, batch, args.seconds, traced, res)
    setup_s = process_s + statistics.median(build_times) + res.setup_s
    peak_rss_mb = peak_rss_bytes() / wl.MB

    doc = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
           "trace": args.trace, "stamp": stamp, "setup_builds_s": build_times}
    print("env " + json.dumps(stamp, sort_keys=True))
    metrics: dict[str, dict] = {}
    if not traced:
        res.add("setup_s", setup_s)
        res.add("peak_rss_MB", peak_rss_mb)
        doc["samples"] = {name: summarize(v) for name, v in res.samples.items()}
        print(f"{'metric':<16} {'median':>12} {'max':>12} {'n':>3} unit")
        for name, unit in END_TO_END:
            values = res.samples.get(name)
            if not values:
                res.errors.append(f"metric {name} has no sample")
                continue
            s = summarize(values)
            metrics[name] = {"value": s["median"], "unit": unit}
            print(f"{name:<16} {s['median']:>12.6g} {s['max']:>12.6g} {s['n']:>3} {unit}")
        for name in sorted(set(res.samples) - {n for n, _ in END_TO_END}):
            s = summarize(res.samples[name])
            print(f"{name:<16} {s['median']:>12.6g} {s['max']:>12.6g} {s['n']:>3} s (not a bounded metric)")
    else:
        predicted_bits, slack = wl.predicted_offline(build[0], batch)
        checks = []
        for _request, tracer in probe.tracers:
            trace = tracer.to_dict()
            checks += check_conformance(trace)
            if tracer.party == "client":
                checks += offline_model_check(trace, predicted_bits, slack)
        res.errors += [f"traced traffic: {problem}" for problem in checks]
        values = layer_metrics(probe, res.counts)
        takes = [t for req, ts in probe.take_s.items() if req.startswith("s") for t in ts]
        values["serve.bank.take_s"] = statistics.median(takes) if takes else 0.0
        values["serve.bank.fill_s"] = res.extra.get("serve.bank.fill_s", 0.0)
        values["serve.session.grant_s"] = res.extra.get("serve.session.grant_s", 0.0)
        values["trace.overhead_frac"] = res.overhead_frac
        accounting = phase_accounting(probe)
        values["trace.unaccounted_frac"] = max(abs(r["unaccounted_frac"]) for r in accounting)
        rows = ledger_rows(probe, res.counts)
        print(render_ledger(args.workload, rows))
        print(f"phase accounting (wall = wait + cpu + unaccounted; margin {UNACCOUNTED_MARGIN:.0%}):")
        for r in accounting:
            flag = "ok" if abs(r["unaccounted_frac"]) <= UNACCOUNTED_MARGIN else "OVER MARGIN"
            print(f"  {r['phase']:<24} wall {r['wall_s']:8.3f}s  wait {r['wait_s']:8.3f}s"
                  f"  cpu {r['cpu_s']:8.3f}s  unaccounted {100 * r['unaccounted_frac']:5.1f}%  {flag}")
        for name, unit in per_layer_units():
            metrics[name] = {"value": values[name], "unit": unit}
            print(f"{name:<28} {values[name]:>12.6g} {unit}")
        doc.update(ledger=rows, phase_accounting=accounting,
                   ro_backends=sorted(probe.ro_backends),
                   untraced_samples={k: summarize(v) for k, v in res.samples.items()})
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"{args.workload}-seed{args.seed}-spans.json"
        spans_path.write_text(json.dumps(span_records(probe, T_START)))
        doc["spans_file"] = str(spans_path.relative_to(ROOT))
    for err in res.errors:
        print(f"FAILED: {err}", file=sys.stderr)
    failed_frac = res.failed / max(res.attempted, 1)
    print(f"failed_frac {failed_frac:.6g} ({res.failed} of {res.attempted} predictions)")
    doc.update(metrics=metrics, attempted=res.attempted, failed=res.failed, errors=res.errors)
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True, default=str)
    )
    correct = res.failed == 0 and not res.errors
    print(json.dumps({"correct": correct, "attempted": res.attempted,
                      "failed": res.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
