#!/usr/bin/env python3
"""geodiv benchmark: runs the ``geodiv`` CLI as a black box on seeded
synthetic corpora and checks every output.

    python3 perfbench/run.py --workload mixed --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --smoke

Run from the repository root. With ``--trace 0`` it times untraced CLI
runs (a closed loop: one client, one run at a time) and prints the
end-to-end metrics; with ``--trace 1`` it makes one serial in-process
traced run (traced.py) and prints the per-layer metrics. The last stdout
line is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``. ``--smoke`` runs every workload on tiny corpora
and checks that each metric named in BENCHMARK.json is reported with its
unit. Workloads, metrics and the layer-to-metric mapping are described in
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

from corpus import Corpus, CorpusSpec, build_corpus, template_pool

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = HERE / "work"

# No-work launches for setup_s: a few before the first repeat, then a few
# after every repeat, so that they sample the whole window.
SETUP_FIRST = 4
SETUP_BETWEEN = 2
# One CLI command may not exceed this; a killed run counts as failed.
COMMAND_TIMEOUT_S = 150.0
# Reference scores may drift this far (relative) after a change to the
# floating-point evaluation order.
SCORE_REL_TOL = 1e-6


@dataclass(frozen=True)
class Workload:
    spec: CorpusSpec
    jobs: int
    # True: `geodiv cluster` then `geodiv gdi` on its clusters.json;
    # False: `geodiv pipeline`.
    split: bool = False


WORKLOADS = {
    # The roadmap baseline corpus shape (40/20/40 kinds, 35/40/25 cluster
    # counts) at half its 3000 pairs, so that a run holds several repeats,
    # with the CLI's worker count on a 2-core host.
    "mixed": Workload(
        CorpusSpec(
            "small", {1: 210, 2: 240, 3: 150}, single_route=600, single_geopath=300, min_lines=11000
        ),
        jobs=2,
    ),
    # 4-7 clusters per pair: MGDI's subset search and complete linkage.
    "many-clusters": Workload(
        CorpusSpec("many", {4: 10, 5: 3, 6: 1, 7: 1}, min_lines=1000), jobs=1, split=True
    ),
}

SMOKE_SPECS = {
    "mixed": CorpusSpec("small", {1: 4, 2: 5, 3: 3}, single_route=12, single_geopath=6, min_lines=300),
    "many-clusters": CorpusSpec("many", {4: 2, 5: 1}, min_lines=300),
}

UNITS = {
    "run_s": "s",
    "lines_per_s": "lines/s",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "setup_s": "s",
    "ok_frac": "frac",
}


def _env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return env


def launch(argv: list[str], log: Path) -> tuple[int, float, float, float]:
    """Run one process to completion: (exit code, wall s, user+sys CPU s of
    it and its reaped children, largest resident set in MB)."""
    with open(log, "wb") as out:
        start = time.perf_counter()
        # Own process group, so a timeout kills the CLI's worker processes too.
        proc = subprocess.Popen(
            argv, cwd=ROOT, env=_env(), stdout=out, stderr=subprocess.STDOUT, start_new_session=True
        )
        killer = threading.Timer(COMMAND_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0


def geodiv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "geodiv.cli", *args]


def commands(workload: Workload, traces: Path, geodb: Path, out: Path, jobs: int) -> list[list[str]]:
    if workload.split:
        staged = out / "clusters"
        return [
            ["cluster", "--traces", str(traces), "--geodb", str(geodb), "--out", str(staged), "--jobs", "1"],
            ["gdi", "--clusters", str(staged / "clusters.json"), "--out", str(out), "--jobs", "1"],
        ]
    return [["pipeline", "--traces", str(traces), "--geodb", str(geodb), "--out", str(out), "--jobs", str(jobs)]]


def load_reference(pool: str) -> dict[str, list[float]]:
    return json.loads((HERE / "reference" / f"{pool}.json").read_text(encoding="utf-8"))["scores"]


REPORT_FILES = ("report.json", "pairs.csv", "compression_ecdf.csv", "gdi_ratio_ecdf.csv")


def check_report(out: Path, corpus: Corpus, reference: dict[str, list[float]]) -> str | None:
    """None when the reports match planted truth and the reference scores,
    else the first mismatch."""
    missing = [name for name in REPORT_FILES if not (out / name).is_file()]
    if missing:
        return f"missing outputs: {missing}"
    try:
        report = json.loads((out / "report.json").read_text(encoding="utf-8"))
        if report["summary"] != corpus.summary:
            return f"summary {report['summary']} != planted {corpus.summary}"
        if len(report["pairs"]) != len(corpus.pairs):
            return f"{len(report['pairs'])} scored pairs, planted {len(corpus.pairs)}"
        for record in report["pairs"]:
            pair = (record["src"], record["dst"])
            truth = corpus.pairs[pair]
            got = (record["ip_route_count"], record["geo_path_count"], record["cluster_count"])
            want = (truth["ip_routes"], truth["geo_paths"], truth["clusters"])
            if got != want:
                return f"pair {pair}: routes/geo-paths/clusters {got} != planted {want}"
            scores = (record["gdi_km"], record["mgdi_km"], record["gdi_over_mgdi"])
            expected = reference[truth["template"]]
            if not all(math.isclose(g, e, rel_tol=SCORE_REL_TOL) for g, e in zip(scores, expected)):
                return f"pair {pair}: gdi/mgdi/ratio {scores} != reference {expected}"
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
    return None


def header() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    cpu_model = platform.processor() or None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu_model = next(
                (line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")),
                cpu_model,
            )
    except OSError:
        pass
    nproc = len(os.sched_getaffinity(0))
    load = os.getloadavg()
    return {
        "commit": commit,
        "python": platform.python_version(),
        "nproc": nproc,
        "cpu_model": cpu_model,
        "loadavg_start": load,
        "noisy_start": load[0] > nproc,
    }


class Run:
    """One benchmark invocation: a corpus on disk plus checked CLI runs."""

    def __init__(self, name: str, spec: CorpusSpec, seed: int):
        self.name = name
        self.workload = WORKLOADS[name]
        self.dir = WORK / f"{name}-{os.getpid()}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.corpus = build_corpus(spec, seed, template_pool(spec.pool))
        self.traces, self.geodb = self.corpus.write(self.dir)
        self.lines = len(self.corpus.trace_lines)
        # Only the planted truth is needed from here on.
        self.corpus.trace_lines = self.corpus.geodb_lines = []
        self.reference = load_reference(spec.pool)
        self.out = self.dir / "out"
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def verify(self, codes: list[int]) -> bool:
        """Counts one attempted run; a failed one is kept and counted."""
        self.attempted += 1
        error = f"exit codes {codes}" if any(codes) else check_report(self.out, self.corpus, self.reference)
        if error:
            self.failed += 1
            self.errors.append(error)
        return error is None

    def cli_run(self, jobs: int) -> dict:
        """One untraced run of the workload's command(s), checked."""
        shutil.rmtree(self.out, ignore_errors=True)
        codes, wall, cpu, rss = [], 0.0, 0.0, 0.0
        for argv in commands(self.workload, self.traces, self.geodb, self.out, jobs):
            code, w, c, r = launch(geodiv(argv), self.dir / "cli.log")
            codes.append(code)
            wall, cpu, rss = wall + w, cpu + c, max(rss, r)
            if code:
                break
        ok = self.verify(codes)
        return {"wall_s": wall, "cpu_s": cpu, "rss_mb": rss, "ok": ok}

    def setup_walls(self, launches: int) -> list[float]:
        """Wall times of no-work launches (import geodiv, parse --help)."""
        walls = []
        for _ in range(launches):
            code, wall, _, _ = launch(geodiv(["--help"]), self.dir / "setup.log")
            if code:
                raise RuntimeError(f"`geodiv --help` exited {code}; see {self.dir / 'setup.log'}")
            walls.append(wall)
        return walls

    def timed(self, deadline: float) -> tuple[dict, dict]:
        """Repeats the workload until the next repeat would end past
        ``deadline`` (a perf_counter time), with setup launches in between."""
        setup = self.setup_walls(SETUP_FIRST)
        samples = []
        while True:
            samples.append(self.cli_run(self.workload.jobs))
            setup += self.setup_walls(SETUP_BETWEEN)
            # Mean over the window, i.e. total CLI time / repeats. Host CPU
            # speed can switch between modes 1.3-1.6x apart within a window;
            # a median picks one mode, the mean weighs both and is steadier.
            run_s = statistics.fmean(s["wall_s"] for s in samples)
            next_end = time.perf_counter() + run_s + SETUP_BETWEEN * statistics.median(setup)
            if next_end > deadline:
                break
        metrics = {
            "run_s": run_s,
            "lines_per_s": self.lines / run_s,
            "cpu_s": statistics.fmean(s["cpu_s"] for s in samples),
            "peak_rss_mb": statistics.median(s["rss_mb"] for s in samples),
            "setup_s": statistics.median(setup),
            "ok_frac": (self.attempted - self.failed) / self.attempted,
        }
        # Spread within this run: (q1, median, q3) per measured quantity.
        quartiles = {
            key: statistics.quantiles([s[key] for s in samples], n=4, method="inclusive")
            for key in ("wall_s", "cpu_s", "rss_mb")
        } if len(samples) > 1 else {}
        quartiles["setup_s"] = statistics.quantiles(setup, n=4, method="inclusive")
        return {name: {"value": value, "unit": UNITS[name]} for name, value in metrics.items()}, {
            "runs": len(samples),
            "quartiles": quartiles,
            "samples": samples,
            "setup_walls": setup,
        }

    def traced(self, micro_budget_s: float) -> tuple[dict, dict]:
        """Untraced serial run for reference, then the traced in-process run."""
        launch(geodiv(["--help"]), self.dir / "setup.log")  # warm bytecode caches
        untraced = self.cli_run(jobs=1)
        shutil.rmtree(self.out, ignore_errors=True)
        spec = {
            "commands": commands(self.workload, self.traces, self.geodb, self.out, jobs=1),
            "spans": str(WORK / f"{self.name}.spans.csv"),
            "work": str(self.dir),
            "micro_budget_s": micro_budget_s,
        }
        spec_path = self.dir / "traced.json"
        spec_path.write_text(json.dumps(spec), encoding="utf-8")
        log = self.dir / "traced.log"
        code, _, _, _ = launch([sys.executable, str(HERE / "traced.py"), str(spec_path)], log)
        lines = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()
        try:
            result = json.loads(lines[-1]) if code == 0 else None
        except (IndexError, ValueError):
            result = None
        if result is None:
            self.verify([code or 1])
            self.errors.append(f"traced run failed; see {log}")
            return {}, {"untraced": untraced}
        self.verify(result["exit_codes"])
        metrics = result["metrics"]
        metrics["trace.overhead_frac"] = {
            "value": metrics["trace.wall_s"]["value"] / untraced["wall_s"],
            "unit": "ratio",
        }
        return metrics, {"untraced": untraced}

    def close(self) -> None:
        shutil.rmtree(self.dir, ignore_errors=True)


def measure(name: str, seed: int, seconds: float, trace: bool, *, smoke: bool = False) -> dict:
    # The budget covers the whole run: corpus generation, setup launches
    # and the timed repeats.
    deadline = time.perf_counter() + seconds
    run_header = header()
    spec = SMOKE_SPECS[name] if smoke else WORKLOADS[name].spec
    run = Run(name, spec, seed)
    try:
        if trace:
            metrics, detail = run.traced(micro_budget_s=0.0 if smoke else 1.0)
        else:
            metrics, detail = run.timed(deadline)
    finally:
        run.close()
    run_header["loadavg_end"] = os.getloadavg()
    result = {
        "correct": run.failed == 0 and bool(metrics),
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }
    record = {
        "header": run_header,
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "lines": run.lines,
        "errors": run.errors,
        "detail": detail,
        "result": result,
    }
    (WORK / f"{name}.trace{int(trace)}.json").write_text(json.dumps(record, indent=1), encoding="utf-8")
    print(json.dumps({
        "header": run_header,
        "runs": detail.get("runs"),
        "quartiles": detail.get("quartiles"),
        "errors": run.errors,
    }))
    return result


def smoke() -> int:
    """Every workload end to end on tiny corpora; every declared metric present."""
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for name in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            result = measure(name, seed=1, seconds=1.0, trace=trace, smoke=True)
            want = {m["name"]: m["unit"] for m in declared[key]}
            got = {m: v.get("unit") for m, v in result["metrics"].items()}
            if not result["correct"]:
                problems.append(f"{name} trace={int(trace)}: incorrect ({result['failed']} failed)")
            if got != want:
                diff = sorted(set(want.items()) ^ set(got.items()))
                problems.append(f"{name} trace={int(trace)}: metrics differ from BENCHMARK.json: {diff}")
            print(f"smoke {name} trace={int(trace)}: {len(got)} metrics, {result['attempted']} runs")
    for problem in problems:
        print(f"FAIL {problem}")
    print("smoke: ok" if not problems else f"smoke: {len(problems)} problem(s)")
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(description="geodiv CLI benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny corpora, check the harness")
    args = parser.parse_args()
    if not (SRC / "geodiv" / "cli.py").is_file():
        print(f"error: no geodiv sources under {SRC}; run from a repository checkout", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    # A failed check is reported in the result ("correct": false), not by the exit code.
    print(json.dumps(measure(args.workload, args.seed, args.seconds, bool(args.trace))))
    return 0


if __name__ == "__main__":
    sys.exit(main())
