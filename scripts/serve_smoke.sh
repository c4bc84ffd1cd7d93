#!/usr/bin/env bash
# Smoke-checks the HTTP batch service end to end with a release binary:
# start `gcln serve` on an ephemeral port, submit one job, poll it to
# completion, verify the learned invariant is checker-valid, hit
# /healthz and /stats, then shut down cleanly via POST /shutdown and
# assert the process exits 0.
#
# Usage: scripts/serve_smoke.sh [path-to-gcln-binary]

set -euo pipefail

bin="${1:-./target/release/gcln}"
if [ ! -x "$bin" ]; then
  echo "error: $bin is not an executable (build with: cargo build --release)" >&2
  exit 2
fi

workdir="$(mktemp -d)"
log="$workdir/serve.log"
trap 'kill "$pid" 2>/dev/null || true; rm -rf "$workdir"' EXIT

"$bin" serve --port 0 --workers 1 --queue-cap 4 --journal "$workdir/jobs.jsonl" >"$log" 2>&1 &
pid=$!

# Wait for the listening line and scrape the ephemeral port.
port=""
for _ in $(seq 1 100); do
  port="$(sed -n 's/.*listening on 127\.0\.0\.1:\([0-9]*\).*/\1/p' "$log" | head -1)"
  [ -n "$port" ] && break
  kill -0 "$pid" 2>/dev/null || { echo "server died early:"; cat "$log"; exit 1; }
  sleep 0.1
done
[ -n "$port" ] || { echo "server never reported its port:"; cat "$log"; exit 1; }
echo "serve smoke: port $port (pid $pid)"

python3 - "$port" <<'EOF'
import json
import sys
import time
import urllib.request
import urllib.error

base = f"http://127.0.0.1:{sys.argv[1]}"

def call(method, path, body=None):
    data = json.dumps(body).encode() if body is not None else None
    req = urllib.request.Request(base + path, data=data, method=method)
    with urllib.request.urlopen(req, timeout=30) as resp:
        return resp.status, json.loads(resp.read().decode())

status, health = call("GET", "/healthz")
assert status == 200 and health["ok"], health

source = (
    "program ps2var;\n"
    "inputs m;\n"
    "pre m >= 2;\n"
    "post 2 * acc == j * j + j;\n"
    "acc = 0; j = 0;\n"
    "while (j < m) { j = j + 1; acc = acc + j; }\n"
)
status, sub = call("POST", "/jobs", {"source": source, "fast": True})
assert status == 202, (status, sub)
job_id = sub["id"]
print("serve smoke: submitted", job_id)

deadline = time.time() + 240
while True:
    status, job = call("GET", f"/jobs/{job_id}")
    assert status == 200, (status, job)
    if job["status"] == "done":
        break
    assert time.time() < deadline, f"job never completed: {job}"
    time.sleep(0.2)

assert job["valid"] is True, job
assert job["stopped"] is None, job
assert any(e["event"] == "job_finished" for e in job["events"]), job
print("serve smoke: invariant", job["invariants"][0]["formula"])

status, stats = call("GET", "/stats")
assert status == 200 and stats["jobs"]["done"] >= 1, stats
print("serve smoke: stats", json.dumps(stats["jobs"]))

# Prometheus exposition: scheduler stage histograms and cache series.
req = urllib.request.Request(base + "/metrics")
with urllib.request.urlopen(req, timeout=30) as resp:
    assert resp.status == 200, resp.status
    ctype = resp.headers.get("content-type", "")
    assert ctype.startswith("text/plain"), ctype
    metrics = resp.read().decode()
for needle in (
    'gcln_sched_task_duration_seconds_count{kind="train"}',
    "gcln_sched_queue_wait_seconds_bucket",
    "gcln_sched_worker_utilization",
    'gcln_serve_cache_requests_total{cache="spec",result="miss"}',
    "gcln_sched_task_retries_total",
    "gcln_sched_task_panics_total",
    "gcln_sched_jobs_quarantined_total",
    "gcln_serve_journal_skipped_lines_total",
    "gcln_serve_journal_resubmitted_total",
):
    assert needle in metrics, f"missing metrics series: {needle}"
# A fault-free run reports zero fault-tolerance activity.
for zero in (
    "gcln_sched_task_panics_total 0",
    "gcln_sched_jobs_quarantined_total 0",
    "gcln_serve_journal_skipped_lines_total 0",
):
    assert zero in metrics, f"expected zero series: {zero}"
print("serve smoke: /metrics exposes scheduler + fault-tolerance series")

status, bye = call("POST", "/shutdown")
assert status == 200 and bye["ok"], bye
print("serve smoke: shutdown requested")
EOF

# Clean exit within a bounded wait.
for _ in $(seq 1 100); do
  kill -0 "$pid" 2>/dev/null || break
  sleep 0.1
done
if kill -0 "$pid" 2>/dev/null; then
  echo "server did not exit after /shutdown:"; cat "$log"; exit 1
fi
code=0
wait "$pid" || code=$?
if [ "$code" -ne 0 ]; then
  echo "server exited with code $code:"; cat "$log"; exit 1
fi
grep -q "gcln-serve stopped" "$log" || { echo "missing clean-stop line:"; cat "$log"; exit 1; }

# The journal recorded the completed job.
grep -q '"type":"job"' "$workdir/jobs.jsonl" || { echo "journal is empty"; exit 1; }
echo "serve smoke: OK (clean shutdown, journal written)"
