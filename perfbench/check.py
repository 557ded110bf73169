"""Plausibility gate for perfbench results.

A result is the JSON object perfbench prints last. check() returns
the reasons to reject it (an empty list accepts it):

* a metric is missing, unexpected, not a finite number, or in the wrong unit;
* the host block is missing or incomplete;
* the reported cells differ from sum|q| * sum|r| recomputed from the
  generated workload's record lengths;
* a GCUPS figure is above the lanes x cores x clock ceiling of the host;
* attempted/failed/failed_share are not derived from the per-phase counts;
* an open-loop phase's generator fell behind its schedule (lateness p99
  above one interval between requests, or not every due request timed),
  so the run is invalid rather than slow;
* an output check of the benchmark binary failed.
"""

import math

E2E_METRICS = {
    "setup_s": "s",
    "lat_p50_ms": "ms",
    "capacity_rps": "1/s",
    "scan_gcups": "GCUPS",
    "peak_rss_mb": "MB",
}

LAYER_METRICS = {
    "db.build_s": "s",
    "db.open_ms": "ms",
    "db.decode_gbps": "GB/s",
    "align.interseq_gcups": "GCUPS",
    "align.striped_gcups": "GCUPS",
    "align.overflow_share": "ratio",
    "host.engine_gcups_1t": "GCUPS",
    "host.engine_gcups_nt": "GCUPS",
    "host.engine_loss": "ratio",
    "host.scale_eff": "ratio",
    "host.chunk_ms_p50": "ms",
    "host.prefilter_us_p50": "us",
    "host.prefilter_keep_ratio": "ratio",
    "retrieve.us_per_hit": "us",
    "svc.query_p50_ms": "ms",
    "svc.query_p99_ms": "ms",
    "svc.overhead_ms": "ms",
    "svc.queue_wait_p99_ms": "ms",
    "net.ping_rtt_us": "us",
    "net.overhead_ms": "ms",
    "net.cache_hit_ratio": "ratio",
    "net.cache_hit_ms_p50": "ms",
    "net.encode_us_p50": "us",
    "hw.sim_cells_per_s": "cells/s",
    "hw.fleet_scale_eff": "ratio",
    "hw.dma_stall_share": "ratio",
    "obs.trace_overhead": "ratio",
}

HOST_KEYS = ("nproc", "simd_isa", "interseq_lanes", "kernel", "thp", "compiler", "build_type")

# GCUPS figures measured on one thread; the rest may use every cpu.
ONE_THREAD_GCUPS = ("align.interseq_gcups", "align.striped_gcups", "host.engine_gcups_1t")
ALL_THREAD_GCUPS = ("host.engine_gcups_nt",)

# No cpu sustains a higher all-core clock; the ceiling uses at least this.
MIN_CEILING_GHZ = 5.0
# Narrowest lane count any scan kernel uses (the 8-lane SWAR tier).
MIN_LANES = 8


def gcups_ceiling(host, threads):
    """One cell per 8-bit lane per cycle on every thread: no kernel does
    better, since each cell update takes several vector operations."""
    lanes = max(int(host.get("interseq_lanes", 0)), MIN_LANES)
    ghz = max(float(host.get("cpu_mhz", 0.0)) / 1000.0, MIN_CEILING_GHZ)
    return lanes * threads * ghz


def _close(a, b, rel=1e-9):
    return abs(a - b) <= rel * max(abs(a), abs(b), 1e-300)


def _open_loop_reasons(block, phase):
    """An open loop whose requests left later than one interval between
    requests (1000 / rate_rps ms) at p99 no longer offered its schedule:
    its generator fell behind. Shorter lateness is charged to latency,
    which runs from each request's due time."""
    if (not isinstance(block, dict)
            or not all(isinstance(block.get(k), (int, float)) for k in ("gen_lag_p99_ms", "rate_rps"))
            or not block["rate_rps"] > 0):
        return ["open-loop generator lateness missing"]
    if not block.get("due") or block.get("gen_lag_samples") != block["due"] \
            or phase.get("sent") != block["due"]:
        return ["open-loop lateness covers %r of %r due requests (%r sent)"
                % (block.get("gen_lag_samples"), block.get("due"), phase.get("sent"))]
    lag = block["gen_lag_p99_ms"]
    limit = 1e3 / block["rate_rps"]
    if not math.isfinite(lag) or lag > limit or block.get("valid") is not True:
        return ["invalid open loop: the generator fell behind (lateness p99 %r ms, limit %g ms)"
                % (lag, limit)]
    return []


def check(report):
    reasons = []
    host = report.get("host")
    if not isinstance(host, dict) or any(k not in host for k in HOST_KEYS):
        reasons.append("host block missing or incomplete (needs %s)" % ", ".join(HOST_KEYS))
        host = None

    traced = report.get("trace") == 1
    expected = LAYER_METRICS if traced else E2E_METRICS
    metrics = report.get("metrics")
    if not isinstance(metrics, dict):
        return reasons + ["metrics block missing"]
    for name, unit in expected.items():
        m = metrics.get(name)
        if not isinstance(m, dict) or not isinstance(m.get("value"), (int, float)):
            reasons.append("metric %s missing" % name)
        elif not math.isfinite(m["value"]):
            reasons.append("metric %s is not finite" % name)
        elif m.get("unit") != unit:
            reasons.append("metric %s has unit %r, expected %r" % (name, m.get("unit"), unit))
    for name in metrics:
        if name not in expected:
            reasons.append("unexpected metric %s" % name)

    phases = report.get("phases")
    if not isinstance(phases, list) or not phases:
        reasons.append("no per-phase request counts")
    else:
        sent = sum(p.get("sent", 0) for p in phases)
        failed = sum(p.get("failed", 0) + p.get("refused", 0) + p.get("wrong", 0) for p in phases)
        attempted = report.get("attempted")
        if not isinstance(attempted, int) or attempted != sent or attempted < 1:
            reasons.append("attempted %r is not the %d requests the phases sent" % (attempted, sent))
        if report.get("failed") != failed:
            reasons.append("failed %r is not the %d failed+refused+wrong of the phases"
                           % (report.get("failed"), failed))
        share = report.get("failed_share")
        if sent and (not isinstance(share, (int, float)) or abs(share - failed / sent) > 1e-12):
            reasons.append("failed_share %r is not failed/attempted = %r" % (share, failed / sent))
        for p in phases:
            if p.get("name") == "open_loop":
                reasons += _open_loop_reasons(report.get("open_loop"), p)

    def value(name):
        m = metrics.get(name)
        return m.get("value") if isinstance(m, dict) else None

    if not traced:
        shape = report.get("shape") or {}
        lengths = shape.get("record_lengths")
        cells = report.get("cells")
        if not isinstance(lengths, list) or len(lengths) != shape.get("records"):
            reasons.append("workload record lengths missing")
        elif not isinstance(cells, dict):
            reasons.append("cells block missing")
        else:
            want = cells.get("query_residues", -1) * sum(lengths)
            if cells.get("cells") != want:
                reasons.append("reported cells %r differ from sum|q|*sum|r| = %d"
                               % (cells.get("cells"), want))
            gcups = value("scan_gcups")
            seconds = cells.get("seconds", 0)
            if isinstance(gcups, (int, float)) and seconds > 0:
                if not _close(gcups, cells.get("cells", 0) / seconds / 1e9, 1e-6):
                    reasons.append("scan_gcups %r is not cells/seconds" % gcups)
                if host and gcups > gcups_ceiling(host, int(host["nproc"])):
                    reasons.append("scan_gcups %.1f is above the %.0f GCUPS ceiling of this host"
                                   % (gcups, gcups_ceiling(host, int(host["nproc"]))))
    elif host:
        for names, threads in ((ONE_THREAD_GCUPS, 1), (ALL_THREAD_GCUPS, int(host["nproc"]))):
            for name in names:
                v = value(name)
                if isinstance(v, (int, float)) and v > gcups_ceiling(host, threads):
                    reasons.append("%s %.1f is above the %.0f GCUPS ceiling of %d thread(s)"
                                   % (name, v, gcups_ceiling(host, threads), threads))

    for p in report.get("problems") or []:
        reasons.append("output check: %s" % p)
    return reasons
