"""One serial, in-process traced run of geodiv CLI commands, then kernel
micro-timings.

    python3 perfbench/traced.py SPEC.json

SPEC holds ``commands`` (CLI argv lists), ``spans`` (CSV output path),
``work`` (directory for temporary files) and ``micro_budget_s`` (seconds per
micro-timing). run.py writes it and reads the JSON object printed as the
last stdout line: the CLI exit codes and the per-layer metrics.

Tracing wraps each public entry point below wherever a geodiv module
holds a reference to it, so the program itself is unchanged. Each call
records a span (name, start, end, parent) in memory; the spans are written
out after the run. A span's self time is its duration minus the time its
child spans cover.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import json  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from array import array  # noqa: E402
from collections import defaultdict  # noqa: E402
from pathlib import Path  # noqa: E402

from geodiv import cli, cluster, diversity, geodesy, geolocate, pipeline, traces  # noqa: E402

MODULES = (traces, geolocate, geodesy, cluster, diversity, pipeline, cli)


def _count(key, measure):
    def hook(tracer, args, result):
        tracer.counts[key] += measure(args, result)

    return hook


def _filter_removals(tracer, args, result):
    stats = result[1]
    tracer.counts["geolocate.removed_stage1"] += stats.removed_single_ip_route
    tracer.counts["geolocate.removed_stage2"] += stats.removed_single_geo_path


def _file_bytes(paths) -> int:
    return sum(Path(p).stat().st_size for p in paths)


# (span name, layer, owner, attribute, hook run on every return)
ENTRY_POINTS = (
    ("parse_trace_file", "traces", traces, "parse_trace_file",
     _count("traces.records", lambda a, r: len(r))),
    ("group_by_pair", "traces", traces, "group_by_pair",
     _count("traces.ip_routes", lambda a, r: sum(len(rs.ip_routes) for rs in r.values()))),
    ("load_geodb", "geolocate", geolocate, "load_geodb", _count("geolocate.rows", lambda a, r: len(r))),
    ("GeoDb.lookup", "geolocate", geolocate.GeoDb, "lookup",
     _count("geolocate.unlocatable", lambda a, r: r is None)),
    ("filter_pairs", "geolocate", geolocate, "filter_pairs", _filter_removals),
    ("point_to_path_distance", "geodesy", geodesy, "point_to_path_distance",
     _count("geodesy.arcs_requested", lambda a, r: max(len(a[1]) - 1, 0))),
    ("cluster_pair_routes", "cluster", cluster, "cluster_pair_routes", None),
    ("geo_equal", "cluster", cluster, "geo_equal", _count("cluster.geo_equal_true", lambda a, r: bool(r))),
    ("gdi", "diversity", diversity, "gdi", None),
    ("pair_diversity", "diversity", diversity, "pair_diversity", None),
    ("mgdi", "diversity", diversity, "mgdi", None),
    ("score_clustered_pair", "pipeline", pipeline, "score_clustered_pair", None),
    ("emit_report", "pipeline", pipeline, "emit_report",
     _count("pipeline.report_bytes", lambda a, r: _file_bytes(r))),
    ("write_clusters_file", "pipeline", pipeline, "write_clusters_file",
     _count("pipeline.clusters_bytes", lambda a, r: _file_bytes([r]))),
    ("read_clusters_file", "pipeline", pipeline, "read_clusters_file", None),
)
LAYERS = ("traces", "geolocate", "geodesy", "cluster", "diversity", "pipeline")


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.span_parent = array("l")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list[list] = []  # [span id, time covered by children]
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_time: dict[str, float] = defaultdict(float)
        self.counts: dict[str, float] = defaultdict(float)
        self.top_level = 0.0
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn, hook):
        name_id = len(self.names)
        self.names.append(name)
        stack, clock = self.stack, time.perf_counter
        starts, ends = self.span_start, self.span_end

        def traced(*args, **kwargs):
            span = len(starts)
            self.span_name.append(name_id)
            self.span_parent.append(stack[-1][0] if stack else -1)
            ends.append(0.0)
            frame = [span, 0.0]
            stack.append(frame)
            start = clock()
            starts.append(start)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                ends[span] = end
                stack.pop()
                duration = end - start
                self.calls[name] += 1
                self.total[name] += duration
                self.self_time[name] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
                else:
                    self.top_level += duration
            if hook is not None:
                hook(self, args, result)
            return result

        return traced

    def install(self) -> None:
        for name, _, owner, attr, hook in ENTRY_POINTS:
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, hook)
            holders = [owner] + [m for m in MODULES if m is not owner]
            for holder in holders:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._restore.append((holder, key, original))
                        setattr(holder, key, wrapper)

    def uninstall(self) -> None:
        for holder, key, original in reversed(self._restore):
            setattr(holder, key, original)
        self._restore.clear()

    def write_spans(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("id,parent,name,start_s,end_s\n")
            for i, (nid, parent, start, end) in enumerate(
                zip(self.span_name, self.span_parent, self.span_start, self.span_end)
            ):
                fh.write(f"{i},{parent},{self.names[nid]},{start - T0:.9f},{end - T0:.9f}\n")


def per_call(fn, budget_s: float, batch: int = 1, min_batches: int = 3) -> float:
    """Median seconds per call over batches of ``batch`` calls, repeated
    until ``budget_s`` is spent and at least ``min_batches`` ran."""
    times, spent = [], 0.0
    while len(times) < min_batches or spent < budget_s:
        start = time.perf_counter()
        for _ in range(batch):
            fn()
        elapsed = time.perf_counter() - start
        times.append(elapsed / batch)
        spent += elapsed
    return statistics.median(times)


def kernel_timings(work: Path, budget_s: float) -> dict[str, tuple[float, str]]:
    """Fixed-input timings of the hot kernels, untraced."""
    out = {}
    mgdi_batches = 3 if budget_s > 0 else 1  # n = 7 takes about 1 s per call
    for n in range(2, 8):
        out[f"diversity.mgdi_call_s.n{n}"] = (
            per_call(lambda: diversity.mgdi(n, 1000.0, 1400.0), budget_s, min_batches=mgdi_batches),
            "s",
        )
    coord = geodesy.Coordinate
    point = coord(10.2, 20.5)
    arc = (coord(10.0, 20.0), coord(11.0, 22.0))
    out["geodesy.arc_call_us"] = (
        1e6 * per_call(lambda: geodesy.point_to_path_distance(point, arc), budget_s, batch=2000),
        "us",
    )
    # Two 8-node paths 5 km apart over ~800 km: equal at 50 km, so every
    # node is evaluated.
    a = geolocate.GeoPath(nodes=tuple(coord(40.0 + 0.01 * i * i, 10.0 + 1.3 * i) for i in range(8)))
    b = geolocate.GeoPath(nodes=tuple(coord(40.045 + 0.01 * i * i, 10.0 + 1.3 * i) for i in range(8)))
    out["cluster.geo_equal_call_us"] = (
        1e6 * per_call(lambda: cluster.geo_equal(a, b, 50.0), budget_s, batch=200),
        "us",
    )
    rows = ["cidr,lat,lon", "10.0.0.0/8,0.0,0.0"]
    rows += [f"10.{i >> 8 & 255}.{i & 255}.1/32,{i % 80 - 40}.5,{i % 300 - 150}.25" for i in range(5000)]
    db_path = work / "micro_geodb.csv"
    db_path.write_text("\n".join(rows) + "\n", encoding="utf-8")
    db = geolocate.load_geodb(db_path)
    # 9 of 10 addresses hit a /32 row, 1 of 10 is uncovered.
    ips = [f"10.{i >> 8 & 255}.{i & 255}.1" if i % 10 else f"198.51.100.{i % 250 + 1}" for i in range(1000)]

    def lookups():
        for ip in ips:
            db.lookup(ip)

    out["geolocate.lookup_call_us"] = (1e6 * per_call(lookups, budget_s, batch=2) / len(ips), "us")
    return out


def run_commands(commands: list[list[str]]) -> list[int]:
    codes = []
    for argv in commands:
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        codes.append(code)
        if code:
            break
    return codes


def layer_metrics(tracer: Tracer, wall: float) -> dict[str, tuple[float, str]]:
    t, c, n = tracer.total, tracer.calls, tracer.counts
    geo_equal_calls = c["geo_equal"]
    metrics = {
        "traces.parse_s": (t["parse_trace_file"], "s"),
        "traces.group_s": (t["group_by_pair"], "s"),
        "traces.records": (n["traces.records"], "count"),
        "traces.ip_routes": (n["traces.ip_routes"], "count"),
        "geolocate.load_s": (t["load_geodb"], "s"),
        "geolocate.rows": (n["geolocate.rows"], "count"),
        "geolocate.filter_s": (t["filter_pairs"], "s"),
        "geolocate.lookups": (c["GeoDb.lookup"], "count"),
        "geolocate.lookup_s": (t["GeoDb.lookup"], "s"),
        "geolocate.unlocatable": (n["geolocate.unlocatable"], "count"),
        "geolocate.removed_stage1": (n["geolocate.removed_stage1"], "count"),
        "geolocate.removed_stage2": (n["geolocate.removed_stage2"], "count"),
        "geodesy.point_to_path_calls": (c["point_to_path_distance"], "count"),
        "geodesy.arcs_requested": (n["geodesy.arcs_requested"], "count"),
        "geodesy.point_to_path_s": (t["point_to_path_distance"], "s"),
        "cluster.cluster_s": (t["cluster_pair_routes"], "s"),
        "cluster.geo_equal_calls": (geo_equal_calls, "count"),
        "cluster.geo_equal_true": (n["cluster.geo_equal_true"], "count"),
        "cluster.geo_equal_true_frac": (
            n["cluster.geo_equal_true"] / geo_equal_calls if geo_equal_calls else 0.0,
            "frac",
        ),
        "diversity.mgdi_s": (t["mgdi"], "s"),
        "diversity.mgdi_calls": (c["mgdi"], "count"),
        "diversity.gdi_s": (t["gdi"], "s"),
        "diversity.gdi_calls": (c["gdi"], "count"),
        "diversity.pair_diversity_calls": (c["pair_diversity"], "count"),
        "pipeline.score_self_s": (tracer.self_time["score_clustered_pair"], "s"),
        "pipeline.emit_s": (t["emit_report"], "s"),
        "pipeline.report_bytes": (n["pipeline.report_bytes"], "bytes"),
        "pipeline.clusters_write_s": (t["write_clusters_file"], "s"),
        "pipeline.clusters_read_s": (t["read_clusters_file"], "s"),
        "pipeline.clusters_bytes": (n["pipeline.clusters_bytes"], "bytes"),
        "trace.wall_s": (wall, "s"),
        "trace.unaccounted_s": (wall - tracer.top_level, "s"),
        "trace.spans": (len(tracer.span_start), "count"),
    }
    for layer in LAYERS:
        self_s = sum(tracer.self_time[name] for name, lyr, *_ in ENTRY_POINTS if lyr == layer)
        metrics[f"{layer}.self_frac"] = (self_s / wall, "frac")
    return metrics


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    tracer = Tracer()
    tracer.install()
    try:
        codes = run_commands(spec["commands"])
        wall = time.perf_counter() - T0
    finally:
        tracer.uninstall()
    metrics = layer_metrics(tracer, wall)
    metrics.update(kernel_timings(Path(spec["work"]), spec["micro_budget_s"]))
    tracer.write_spans(Path(spec["spans"]))
    print(json.dumps({
        "exit_codes": codes,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
