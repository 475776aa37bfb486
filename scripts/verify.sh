#!/usr/bin/env bash
# Repository verification gate: build, full test suite, and lints.
#
# This is the same sequence CI runs (.github/workflows/ci.yml); run it
# locally before pushing. Everything must pass with zero warnings from
# clippy on the durability-critical crate.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> chaos suites (governance + serving fault injection + durability + segments, release)"
cargo test --release --test chaos --test governance --test serve --test durability --test segments -q

echo "==> crash campaign smoke (quick: TOSS_CRASH_SEEDS=10)"
# the deterministic kill-and-recover campaign (docs/robustness.md): a
# live writable server under seeded disk faults; every acknowledged
# write must survive crash + recovery. Full 50-seed run happens in the
# release serve suite above; this smoke documents the env knob.
TOSS_CRASH_SEEDS=10 cargo test --release --test serve \
    crash_campaign_every_acknowledged_write_survives_kill_and_recover -q

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy -p toss-xmldb -p toss-pool -p toss-segment --all-targets -- -D warnings"
    cargo clippy -p toss-xmldb -p toss-pool -p toss-segment --all-targets -- -D warnings
    echo "==> cargo clippy -p toss-obs -p toss-core -p toss-similarity -p toss-ontology --all-targets -- -D warnings"
    cargo clippy -p toss-obs -p toss-core -p toss-similarity -p toss-ontology --all-targets -- -D warnings
    echo "==> cargo clippy -p toss-serve --all-targets -- -D warnings"
    cargo clippy -p toss-serve --all-targets -- -D warnings
    echo "==> cargo clippy -p toss-cli -p toss-bench --all-targets -- -D warnings"
    cargo clippy -p toss-cli -p toss-bench --all-targets -- -D warnings
else
    echo "==> clippy not installed; skipping lint step"
fi

# --quick bench runs write target/bench-smoke/BENCH_*.json; the committed
# BENCH_*.json at the root hold full runs and are not touched here
SMOKE_OUT=target/bench-smoke

echo "==> index segment bench smoke (BENCH_segments.json)"
# probe-equivalence, cold-open-source, and alloc-free assertions always
# run; the memory/latency gates only assert in the full (non-quick) run
cargo run --release -p toss-bench --bin bench_segments -- --quick
test -s "$SMOKE_OUT/BENCH_segments.json"

echo "==> parallel query bench smoke (BENCH_query_parallel.json)"
cargo run --release -p toss-bench --bin bench_query_parallel -- --quick
test -s "$SMOKE_OUT/BENCH_query_parallel.json"

echo "==> semantic fast-path bench smoke (BENCH_semantic.json)"
cargo run --release -p toss-bench --bin bench_semantic -- --quick
test -s "$SMOKE_OUT/BENCH_semantic.json"

echo "==> similarity join bench smoke (BENCH_join.json)"
# the byte-identical-output checksum equality and the planner-choice
# assertions (refined fires on skew, nested holds on flat) always run;
# the ≥50× / ≤1.1× timing gates only assert in the full (non-quick) run
cargo run --release -p toss-bench --bin bench_join -- --quick
test -s "$SMOKE_OUT/BENCH_join.json"
python3 - <<'PY'
import json
r = json.load(open("target/bench-smoke/BENCH_join.json"))
assert r["skewed"]["equal"], "skewed: refined output checksum diverged from nested"
assert r["flat"]["equal"], "flat: output checksums diverged across join paths"
assert "speedup" in r["skewed"], "skewed speedup field missing"
print(f"join checksums equal; skewed speedup {r['skewed']['speedup']:.1f}x "
      f"(quick={r['quick']}), flat ratio {r['flat']['ratio']:.3f}x")
PY

echo "==> serving-layer load smoke (BENCH_serve.json)"
# 100 requests against a live server on an ephemeral port, one injected
# mid-frame fault, graceful drain with queries in flight — the binary
# asserts the whole robustness contract and fails loudly otherwise
cargo run --release -p toss-bench --bin bench_serve -- --quick
test -s "$SMOKE_OUT/BENCH_serve.json"

echo "==> observability bench smoke (BENCH_observability.json)"
# asserts the per-request telemetry (flight recorder + windowed SLOs)
# stays within the documented ≤8% overhead vs the no-op sink
cargo run --release -p toss-bench --bin bench_obs -- --quick
test -s "$SMOKE_OUT/BENCH_observability.json"
python3 - <<'PY'
import json
r = json.load(open("target/bench-smoke/BENCH_observability.json"))
pct = r["throughput"]["flight_overhead_pct"]
assert pct <= 8.0, f"flight-recorder overhead {pct:.2f}% exceeds the 8% budget"
print(f"flight-recorder overhead {pct:.2f}% (budget 8%)")
PY

echo "==> toss-cli stats smoke test"
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
cat > "$SMOKE/doc.xml" <<'XML'
<inproceedings key="s1"><author>Smoke Test</author><year>2004</year></inproceedings>
XML
CLI=target/release/toss-cli
"$CLI" load --db "$SMOKE/store.json" --collection dblp "$SMOKE/doc.xml" >/dev/null
"$CLI" stats --db "$SMOKE/store.json" | grep -q "^xmldb_journal_appends"
"$CLI" stats --db "$SMOKE/store.json" --json | grep -q '"xmldb.journal.appends"'
"$CLI" stats --db "$SMOKE/store.json" --json | grep -q '"windows"'

echo "==> flight recorder + toss-cli top smoke test"
# a live server with a slow-query log, one query over the wire, then
# one non-interactive `top` refresh against it
"$CLI" build-seo --db "$SMOKE/store.json" --epsilon 1 --out "$SMOKE/seo.json" >/dev/null
mkfifo "$SMOKE/serve-stdin"
"$CLI" serve --db "$SMOKE/store.json" --seo "$SMOKE/seo.json" \
    --addr 127.0.0.1:7465 --slow-log "$SMOKE/slow.jsonl" \
    --slow-threshold-ms 0 < "$SMOKE/serve-stdin" > "$SMOKE/serve.log" &
SERVE_PID=$!
exec 9> "$SMOKE/serve-stdin"   # hold the server's stdin open
for _ in $(seq 1 50); do
    grep -q "listening" "$SMOKE/serve.log" 2>/dev/null && break
    sleep 0.1
done
# one query over the wire so the flight recorder and SLO windows have
# an entry (the protocol is 4-byte BE length ‖ JSON)
python3 - <<'PY'
import json, socket, struct
s = socket.create_connection(("127.0.0.1", 7465), timeout=10)
req = json.dumps({"verb": "query", "collection": "dblp",
                  "root": "inproceedings",
                  "eq": [["author", "Smoke Test"]]}).encode()
s.sendall(struct.pack(">I", len(req)) + req)
n = struct.unpack(">I", s.recv(4))[0]
buf = b""
while len(buf) < n:
    buf += s.recv(n - len(buf))
resp = json.loads(buf)
assert resp["status"] == "ok", resp
assert resp["query_id"] > 0, resp
print(f"wire query ok: query_id={resp['query_id']}")
PY
TOP_OUT=$("$CLI" top --addr 127.0.0.1:7465 --iterations 1)
echo "$TOP_OUT" | grep -q "interactive"
echo "$TOP_OUT" | grep -q "best_effort"
echo "shutdown" >&9
wait "$SERVE_PID"
test -s "$SMOKE/slow.jsonl" || { echo "slow-query log is empty"; exit 1; }
grep -q '"query_id"' "$SMOKE/slow.jsonl"
# the drained server persisted windowed gauges into <db>.stats.json
"$CLI" stats --db "$SMOKE/store.json" --json | grep -q '"toss.serve.window.interactive.requests"'

echo "==> verify OK"
