#!/usr/bin/env python3
"""Memory and wall cost of the simulator at scale.

    python3 bench/scale_probe.py [path/to/bench_cluster_scaling]

Runs `bench_cluster_scaling --scale R N` for each standard point, one process
each (peak RSS is a high-water mark, so points cannot share a process), and
prints every row. Then it prints the RSS growth per finished request between
the two 4-replica rows: memory that a finished request leaves behind. The
default binary is build/bench/bench_cluster_scaling. Exits nonzero when a
run fails, when that growth exceeds MAX_KB_PER_FINISHED_REQUEST, or when the
1,000-replica row peaks above MAX_PEAK_RSS_MB_1000_REPLICAS.
"""

import json
import subprocess
import sys

# (replicas, requests per replica)
POINTS = ((4, 2500), (4, 10000), (64, 40), (256, 40), (1000, 40))

# Ceiling on the `--scale 1000 40` row's peak RSS. That row is dominated by
# live simulated KV (about 14 active 3,000-token documents per replica), whose
# pages store their definition (76 bytes of page data per 16 tokens) in fixed
# slabs; it peaked at 367 MB on a 4-vCPU x86 host, and at 1,197 MB while every
# page held 16 whole records in vectors that doubled. The ceiling is about
# 1.25x the measured peak: a change that stores whole records again, or grows
# page storage by doubling, trips it.
MAX_PEAK_RSS_MB_1000_REPLICAS = 460.0

# Ceiling on the RSS growth per finished request between the 4-replica rows.
# A difference of two rows in one environment, so it does not move with the
# host's baseline RSS: 1.032-1.037 KB over three runs on a 4-vCPU x86 host
# (1.167 KB while a finished LIP kept its 328-byte Process node, 1.57 KB
# while it kept all its kernel state). The ceiling is the measured value plus
# 10%, so a change that keeps about 100 bytes more per finished request
# trips it.
MAX_KB_PER_FINISHED_REQUEST = 1.14


def run(binary, replicas, requests):
    out = subprocess.run([binary, "--scale", str(replicas), str(requests)],
                         check=True, capture_output=True, text=True).stdout
    sys.stdout.write(out)
    sys.stdout.flush()
    for line in out.splitlines():
        if line.startswith("JSON "):
            return json.loads(line[len("JSON "):])
    raise RuntimeError(f"no JSON row from --scale {replicas} {requests}")


def main():
    binary = sys.argv[1] if len(sys.argv) > 1 else "build/bench/bench_cluster_scaling"
    rows = [run(binary, replicas, requests) for replicas, requests in POINTS]
    small, large = rows[0], rows[1]
    growth_kb = (large["peak_rss_mb"] - small["peak_rss_mb"]) * 1024.0
    kb_per_request = growth_kb / (large["completed"] - small["completed"])
    print(f"\nRSS growth per finished request (4 replicas, "
          f"{small['completed']} -> {large['completed']} requests): "
          f"{kb_per_request:.3f} KB")
    print("JSON " + json.dumps({"bench": "cluster_scaling",
                                "row": "kb_per_finished_request",
                                "value": round(kb_per_request, 3)}))
    failed = False
    if kb_per_request > MAX_KB_PER_FINISHED_REQUEST:
        print(f"FAIL: {kb_per_request:.3f} KB per finished request, above the "
              f"{MAX_KB_PER_FINISHED_REQUEST:.2f} KB ceiling")
        failed = True
    fleet = rows[-1]
    if fleet["peak_rss_mb"] > MAX_PEAK_RSS_MB_1000_REPLICAS:
        print(f"FAIL: --scale 1000 40 peaked at {fleet['peak_rss_mb']:.1f} MB, above "
              f"the {MAX_PEAK_RSS_MB_1000_REPLICAS:.0f} MB ceiling")
        failed = True
    if failed:
        sys.exit(1)


if __name__ == "__main__":
    main()
