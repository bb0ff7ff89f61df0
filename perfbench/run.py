"""opwords benchmark: seeded request mixes through `opwords.cli.main`.

    python3 perfbench/run.py --workload closure|presentation|verify \
        --seed N --seconds S --trace 0|1

Run from the root of a source checkout; `opwords` is imported from ./src.

A run builds the seeded request list (workloads.py) and replays it PASSES
times, one pass after another.  Each pass is one client process, a fresh
interpreter with its own cold process-local caches (worker.py), issuing the
requests in order, closed-loop and single-threaded, so only one request is
ever in flight.  Every output is checked against the oracle (oracle.py)
after the last pass.

Times are reported in reference seconds.  The machine this was built on
shares its host with other tenants, and its speed moves by up to 40%, in
sub-second bursts and in regimes that last tens of seconds, on both vCPUs
at once.  So the client times a fixed kernel of the benchmark's own
(`worker.calibration()`) just before and after every request, and each
measured time is scaled by CAL_REF_S over the median kernel time around
it.  Set-up probes are scaled by the kernel timed here right after each.
A request's latency is then its fastest pass.  The raw times are printed
beside the reported ones.

The last line of stdout is one JSON object: the end-to-end metrics with
--trace 0; with --trace 1 a traced client takes turns with the last pass and
the per-layer metrics are reported instead, with the tracing overhead.
"""
from __future__ import annotations

import argparse
import json
import os
import select
import shutil
import statistics
import subprocess
import sys
import time

import oracle
import tracing
import workloads
from worker import calibration

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
WORKER = os.path.join(HERE, "worker.py")
PASSES = 3
SETUP_PROBES = 9
DEADLINE_S = 170
# calibration kernel time at reference speed: about its median between
# requests on the 2-vCPU x86-64 VM, CPython 3.11, where the benchmark was built
CAL_REF_S = 0.004
# kernel samples on each side of a measurement that set its scale
CAL_WINDOW = 2

UNITS = {"setup_s": "s", "wall_s": "s", "req_p50_ms": "ms", "req_p90_ms": "ms",
         "peak_rss_mb": "MB", "ok_frac": "fraction"}


def scaled(times: list[float], kernel: list[float]) -> list[float]:
    """Each time in reference seconds, from the kernel samples next to it:
    kernel[i] was timed around times[i]."""
    return [t * CAL_REF_S / statistics.median(kernel[max(0, i - CAL_WINDOW):i + CAL_WINDOW + 1])
            for i, t in enumerate(times)]


class Client:
    """A worker process serving the request list from its own directory."""

    def __init__(self, args: list[str], cwd: str, deadline: float,
                 env: dict | None = None) -> None:
        self.cwd, self.deadline, self.results = cwd, deadline, []
        os.makedirs(cwd, exist_ok=True)
        with open(os.path.join(cwd, "stderr.log"), "wb") as log:
            start = time.perf_counter()
            self.proc = subprocess.Popen(
                [sys.executable, WORKER, SRC, *args], cwd=cwd,
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=log, env=env)
        try:
            line = self._readline()
        except RuntimeError:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - start
        if not line.startswith("ready "):
            self.kill()
            raise RuntimeError(f"client did not start; see {cwd}/stderr.log")
        self.import_s = float(line.split()[1])

    def _readline(self) -> str:
        remaining = self.deadline - time.monotonic()
        ready, _, _ = select.select([self.proc.stdout], [], [], max(0.0, remaining))
        if not ready:
            raise RuntimeError("deadline passed while waiting for a client")
        return self.proc.stdout.readline().decode()

    def _send(self, text: str) -> None:
        self.proc.stdin.write(text.encode() + b"\n")
        self.proc.stdin.flush()

    def request(self, index: int) -> None:
        self._send(str(index))
        self.results.append(json.loads(self._readline()))

    def close(self) -> None:
        self._send("end")
        self.maxrss_kb = json.loads(self._readline())["maxrss_kb"]
        self.wait()

    def wait(self) -> None:
        self.proc.stdin.close()
        code = self.proc.wait(timeout=max(1.0, self.deadline - time.monotonic()))
        self.proc.stdout.close()
        if code != 0:
            raise RuntimeError(f"client exited with {code}; see {self.cwd}/stderr.log")

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()


def _report(result: dict) -> dict | None:
    """The JSON report of a request, without its wall-time field."""
    if result["raised"] or result["rc"] not in (0, 1):
        return None
    try:
        report = json.loads(result["stdout"])
    except json.JSONDecodeError:
        return None
    report.pop("seconds", None)
    return report


def _read(path: str) -> bytes | None:
    try:
        with open(path, "rb") as handle:
            return handle.read()
    except OSError:
        return None


def check(requests: list[dict], clients: list[Client]) -> list[str]:
    """One line per failed execution: it raised, exited nonzero (a size
    guard refusal exits 2), or disagreed with the oracle.  The first pass's
    outputs go through the oracle; every other pass's must equal them."""
    failures = []
    first = clients[0]
    for index, request in enumerate(requests):
        result = first.results[index]
        report = _report(result)
        if result["raised"]:
            defect = f"raised {result['raised']}"
        else:
            defect = oracle.report_defect(request, result["rc"], report)
        if defect is None and request.get("out"):
            defect = oracle.export_defect(request, os.path.join(first.cwd, request["out"]))
        where = " ".join(request["argv"])
        if defect:
            failures += [f"request {index} ({where}): {defect}"] * len(clients)
            continue
        for other in clients[1:]:
            same = _report(other.results[index]) == report and (
                not request.get("out")
                or _read(os.path.join(other.cwd, request["out"]))
                == _read(os.path.join(first.cwd, request["out"])))
            if not same:
                failures.append(f"request {index} ({where}): output differs between passes")
    return failures


def end_to_end(setup: list[float], latency: list[float], rss_mb: float,
               ok_frac: float) -> dict[str, float]:
    return {
        "setup_s": statistics.median(setup),
        "wall_s": sum(latency),
        "req_p50_ms": statistics.median(latency) * 1e3,
        "req_p90_ms": statistics.quantiles(latency, n=10)[8] * 1e3,
        "peak_rss_mb": rss_mb,
        "ok_frac": ok_frac,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC, "opwords", "__init__.py")):
        print(f"error: no opwords source under {SRC}", file=sys.stderr)
        return 2

    deadline = time.monotonic() + DEADLINE_S
    work_dir = os.path.join(HERE, "_run", str(os.getpid()))
    os.makedirs(work_dir)
    clients: list[Client] = []
    try:
        requests = workloads.build(args.workload, args.seed, args.seconds / PASSES)
        requests_path = os.path.join(work_dir, "requests.json")
        with open(requests_path, "w", encoding="utf-8") as handle:
            json.dump(requests, handle)
        setup, imports, setup_kernel = [], [], []
        for k in range(SETUP_PROBES):
            probe = Client(["--setup-only"], os.path.join(work_dir, f"probe{k}"), deadline)
            probe.wait()
            setup.append(probe.setup_s)
            imports.append(probe.import_s)
            setup_kernel.append(calibration())
        trace_path = os.path.join(work_dir, "trace.json")
        # the traced pass takes turns with the last untraced one, request by
        # request and in alternating order, with the same string-hash seed,
        # so the two see the same machine and the same dict and set layouts
        # and their difference is the tracing overhead
        groups = [[([requests_path], None)] for _ in range(PASSES)]
        if args.trace:
            same_hash = dict(os.environ, PYTHONHASHSEED=str(args.seed % 2**32))
            groups[-1] = [([requests_path], same_hash),
                          ([requests_path, "--trace", trace_path], same_hash)]
        for group in groups:
            started = []
            for client_args, env in group:
                clients.append(Client(client_args, os.path.join(work_dir, f"pass{len(clients)}"),
                                      deadline, env))
                started.append(clients[-1])
            for index in range(len(requests)):
                for client in started[:: 1 if index % 2 else -1]:
                    client.request(index)
            for client in started:
                client.close()
        failures = check(requests, clients)
        untraced = clients[:PASSES]
        attempted = len(requests) * len(clients)
        raw, metrics = [
            end_to_end(setup_times, [min(t) for t in zip(*passes)],
                       statistics.median(c.maxrss_kb for c in untraced) / 1024,
                       (attempted - len(failures)) / attempted)
            for setup_times, passes in [
                (setup, [[r["seconds"] for r in c.results] for c in untraced]),
                (scaled(setup, setup_kernel),
                 [scaled([r["seconds"] for r in c.results], [r["kernel"] for r in c.results])
                  for c in untraced]),
            ]
        ]
        speed = statistics.median(r["kernel"] for c in untraced for r in c.results) / CAL_REF_S
        units = dict(UNITS)
        if args.trace:
            traced = [r["seconds"] for r in clients[-1].results]
            with open(trace_path, encoding="utf-8") as handle:
                metrics = tracing.summarize(json.load(handle), traced)
            metrics["setup.import_s"] = statistics.median(imports)
            metrics["calibration.speed_ratio"] = speed
            metrics["trace.wall_s"] = sum(traced)
            paired = [r["seconds"] for r in clients[PASSES - 1].results]
            metrics["trace.overhead_s"] = sum(traced) - sum(paired)
            units = {name: tracing.unit(name) for name in metrics}
    except (OSError, RuntimeError, ValueError, subprocess.SubprocessError) as exc:
        for client in clients:
            client.kill()
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_dir))
        except OSError:
            pass

    for line in dict.fromkeys(failures):
        print("FAIL " + line)
    print(f"{args.workload}: {len(requests)} requests x {len(clients)} passes; "
          f"latency samples: {len(requests)} (fastest of {PASSES} passes each); "
          f"{len(failures)} failed executions")
    if not args.trace:
        print(f"  times in reference seconds; the machine ran at {speed:.3f} x the "
              f"reference kernel time; raw values in brackets")
    for name, value in metrics.items():
        print(f"  {name:34s} {value:>16.6f} {units[name]:8s}"
              + (f" [{raw[name]:.6f}]" if not args.trace else ""))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
