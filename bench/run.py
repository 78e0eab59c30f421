"""Benchmark of the jantzen verification pipeline.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from the root of a source checkout of the package (``src/jantzen``).
Every pass runs in a fresh child process (workloads.py), so no in-process
cache (KL registry, Weyl groups, Chevalley bases, partition counts) carries
over between passes.  Passes repeat until the untraced passes' measured
time reaches ``--seconds``, at least one.  Temporary files, the KL disk cache included, live under
``.bench_tmp/`` in the checkout and are removed at the end; ``$JANTZEN_CACHE``
and ``~/.cache`` are pointed there too.  A traced run (``--trace 1``)
alternates untraced and traced passes and writes its span table to
``.bench_out/``.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics for ``--trace 0`` and the per-layer metrics for ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

from layertrace import LAYER_METRICS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("sumformula-suite", "kl-rank4", "oracle", "parabolic-suite")
SETUP_SAMPLES = 7
# A run must end within 180 s; no pass or set-up child starts unless the
# longest child so far would still finish before this many seconds.
RUN_BUDGET_S = 165


def fail(msg: str) -> int:
    print(f"bench: {msg}", file=sys.stderr)
    return 2


class Children:
    """Starts workload children one at a time and keeps within the budget."""

    def __init__(self, args, tmp):
        self.args = args
        self.tmp = tmp
        self.start = time.monotonic()
        self.longest = 0.0
        self.env = dict(
            os.environ,
            PYTHONPATH=os.path.join(ROOT, "src"),
            PYTHONHASHSEED="0",
            JANTZEN_CACHE=os.path.join(tmp, "jantzen-cache"),
            XDG_CACHE_HOME=os.path.join(tmp, "xdg-cache"),
        )

    def room(self) -> bool:
        return time.monotonic() - self.start + 1.2 * self.longest < RUN_BUDGET_S

    def run(self, mode: str, trace: int) -> dict:
        cmd = [
            sys.executable,
            os.path.join(HERE, "workloads.py"),
            "--workload", self.args.workload,
            "--seed", str(self.args.seed),
            "--mode", mode,
            "--trace", str(trace),
            "--tmp", self.tmp,
        ]
        t0 = time.monotonic()
        remaining = RUN_BUDGET_S + 10 - (t0 - self.start)
        proc = subprocess.run(
            cmd, env=self.env, capture_output=True, text=True, timeout=remaining
        )
        self.longest = max(self.longest, time.monotonic() - t0)
        if proc.returncode != 0:
            raise RuntimeError(
                f"{mode} child exited with {proc.returncode}:\n{proc.stderr[-4000:]}"
            )
        sys.stderr.write(proc.stderr)
        return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(passes, setups) -> dict:
    lat = sorted(x for p in passes for x in p["latencies"])
    tail = passes[0]["tail_percentile"]
    metrics = {
        "wall_s": (statistics.median([p["wall_s"] for p in passes]), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mb": (statistics.median([p["rss_mb"] for p in passes]), "MiB"),
        "item_p50_ms": (1000 * statistics.median(lat), "ms"),
        "item_tail_ms": (
            1000 * statistics.quantiles(lat, n=100, method="inclusive")[tail - 1],
            "ms",
        ),
        "build_s": (statistics.median([p["build_s"] for p in passes]), "s"),
        "load_s": (statistics.median([p["load_s"] for p in passes]), "s"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def per_layer(traced, plain) -> dict:
    units = dict(LAYER_METRICS)
    out = {}
    for name, unit in LAYER_METRICS:
        if name.startswith("trace."):
            continue
        out[name] = {"value": statistics.median([p["layers"][name] for p in traced]), "unit": unit}
    traced_wall = statistics.median([p["wall_s"] for p in traced])
    out["trace.wall_s"] = {"value": traced_wall, "unit": units["trace.wall_s"]}
    out["trace.overhead_s"] = {
        "value": traced_wall - statistics.median([p["wall_s"] for p in plain]),
        "unit": units["trace.overhead_s"],
    }
    return out


def write_trace(args, traced, plain) -> None:
    out_dir = os.path.join(ROOT, ".bench_out")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, f"trace-{args.workload}-seed{args.seed}.json")
    with open(path, "w") as fh:
        json.dump(
            {
                "workload": args.workload,
                "seed": args.seed,
                "untraced_wall_s": [p["wall_s"] for p in plain],
                "traced_wall_s": [p["wall_s"] for p in traced],
                "spans": [p["spans"] for p in traced],
            },
            fh,
            indent=1,
        )


def measure(args, kids: Children) -> dict:
    plain, traced, setups = [], [], []
    while True:
        if args.trace:
            # alternate, so both sides see the same drift of the host
            want_trace = len(traced) < len(plain)
            res = kids.run("pass", int(want_trace))
            (traced if want_trace else plain).append(res)
            enough = plain and traced and len(plain) == len(traced)
        else:
            res = kids.run("pass", 0)
            plain.append(res)
            enough = True
        setups.append(res["setup_s"])
        print(
            f"bench: pass wall_s={res['wall_s']:.4f} trace={'layers' in res:d}"
            f" host_probe_ms={1000 * res['probe_mean_s']:.3f}",
            file=sys.stderr,
        )
        measured = sum(p["wall_s"] for p in plain)
        if enough and (measured >= args.seconds or not kids.room()):
            break
    if not args.trace:
        while len(setups) < SETUP_SAMPLES and kids.room():
            setups.append(kids.run("setup", 0)["setup_s"])

    runs = plain + traced
    unexpected = [u for p in runs for u in p["unexpected"]]
    for u in unexpected[:20]:
        print("bench: unexpected failure: " + " ".join(u), file=sys.stderr)
    if not all(p["tail_ok"] for p in runs):
        print("bench: fewer than ten items beyond the tail percentile", file=sys.stderr)
    result = {
        "correct": not unexpected and all(p["tail_ok"] for p in runs),
        "attempted": sum(p["attempted"] for p in runs),
        "failed": sum(p["failed"] for p in runs),
    }
    if args.trace:
        write_trace(args, traced, plain)
        result["metrics"] = per_layer(traced, plain)
    else:
        result["metrics"] = end_to_end(plain, setups)
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="jantzen pipeline benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        return fail("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(ROOT, "src", "jantzen", "__init__.py")):
        return fail(f"no package source at {os.path.join(ROOT, 'src', 'jantzen')}")

    tmp_root = os.path.join(ROOT, ".bench_tmp")
    os.makedirs(tmp_root, exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    try:
        result = measure(args, Children(args, tmp))
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as err:
        return fail(str(err))
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            os.rmdir(tmp_root)
        except OSError:
            pass  # another run still uses it, or it holds other runs' files
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
