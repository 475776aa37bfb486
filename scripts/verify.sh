#!/usr/bin/env bash
# Repository verification gate: build, full test suite, and lints.
#
# This is the same sequence CI runs (.github/workflows/ci.yml); run it
# locally before pushing. Everything must pass with zero warnings from
# clippy on every package, root tests and examples included.

set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --workspace --release"
cargo build --workspace --release

echo "==> cargo test --workspace -q"
cargo test --workspace -q

echo "==> chaos suites (governance + serving fault injection + durability + segments), the join suite, the probe scaling guard and the SEA equivalence suite, release"
# tests/parallel.rs carries the release-only guard
# probe_cost_follows_the_candidates_not_the_collection (a debug timing
# means nothing, so the debug run above compiles it out); tests/join.rs
# guards the only similarity join there is, so it runs optimized too;
# tests/semantic.rs runs again optimized because the edit-distance
# kernel's arithmetic would wrap there where the debug build panics
cargo test --release --test chaos --test governance --test serve --test durability --test segments --test parallel --test join --test semantic -q

if cargo clippy --version >/dev/null 2>&1; then
    echo "==> cargo clippy --workspace --all-targets -- -D warnings"
    cargo clippy --workspace --all-targets -- -D warnings
else
    echo "==> clippy not installed; skipping lint step"
fi

echo "==> cargo doc --workspace --no-deps (broken or private intra-doc links fail)"
# a doc comment that links to a deleted or private name is an error, so
# a change that removes an item must also fix the docs that named it
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" \
    cargo doc --workspace --no-deps --offline

echo "==> benchmark harness unit tests"
cargo test --release --offline --manifest-path benchmark/Cargo.toml -q

echo "==> benchmark quick run (BENCHMARK.json: six workloads, every output check)"
# the only performance gate: exits 1 if any pass fails an output check;
# writes only the ignored benchmark/out/
cargo run --release --offline --quiet --manifest-path benchmark/Cargo.toml -- run --quick

echo "==> toss-cli stats, xpath and db recover smoke test"
SMOKE=$(mktemp -d)
trap 'rm -rf "$SMOKE"' EXIT
cat > "$SMOKE/doc.xml" <<'XML'
<inproceedings key="s1"><author>Smoke Test</author><year>2004</year></inproceedings>
XML
cat > "$SMOKE/doc2.xml" <<'XML'
<inproceedings key="s2"><author>Second Smoke</author><year>2005</year></inproceedings>
XML
CLI=target/release/toss-cli
"$CLI" load --db "$SMOKE/store.json" --collection dblp "$SMOKE/doc.xml" >/dev/null
# a second load opens the store on its frozen `.seg` base, writes into
# the delta beside it and takes the checkpoint that merges the two
"$CLI" load --db "$SMOKE/store.json" --collection dblp "$SMOKE/doc2.xml" >/dev/null
"$CLI" stats --db "$SMOKE/store.json" | grep -q "^xmldb_journal_appends"
"$CLI" stats --db "$SMOKE/store.json" --json | grep -q '"xmldb.journal.appends"'
"$CLI" stats --db "$SMOKE/store.json" --json | grep -q '"windows"'
# a checkpoint of an untouched store rewrites both files byte for byte:
# a document's kept XML is copied only where it is its tree's rendering
cp "$SMOKE/store.json" "$SMOKE/untouched.json"
cp "$SMOKE/store.seg" "$SMOKE/untouched.seg"
"$CLI" db checkpoint --db "$SMOKE/store.json" >/dev/null
cmp "$SMOKE/store.json" "$SMOKE/untouched.json"
cmp "$SMOKE/store.seg" "$SMOKE/untouched.seg"
# the read-only open behind every query command, and the lenient
# recovery; their output is captured whole, since a `grep -q` pipe can
# close before the CLI has printed its last line
XPATH_OUT=$("$CLI" xpath --db "$SMOKE/store.json" --collection dblp \
    "//inproceedings[author='Smoke Test']")
grep -q "1 match(es)" <<< "$XPATH_OUT"
BOTH_OUT=$("$CLI" xpath --db "$SMOKE/store.json" --collection dblp "//inproceedings")
grep -q "2 match(es)" <<< "$BOTH_OUT"
SECOND_OUT=$("$CLI" xpath --db "$SMOKE/store.json" --collection dblp \
    "//inproceedings[author='Second Smoke']")
grep -q "1 match(es)" <<< "$SECOND_OUT"
RECOVER_OUT=$("$CLI" db recover --db "$SMOKE/store.json")
grep -q "store is clean" <<< "$RECOVER_OUT"
# content is stored losslessly: numeric-looking text that is not a
# canonical number survives load, checkpoint and query unchanged
NUM_DOC='<a><x>007</x><y>1.0</y><z>+5</z><w>1e3</w><v>-0</v></a>'
echo "$NUM_DOC" > "$SMOKE/num.xml"
"$CLI" load --db "$SMOKE/lossless.json" --collection nums "$SMOKE/num.xml" >/dev/null
"$CLI" db checkpoint --db "$SMOKE/lossless.json" >/dev/null
NUM_OUT=$("$CLI" xpath --db "$SMOKE/lossless.json" --collection nums "//a")
grep -qF "$NUM_DOC" <<< "$NUM_OUT" || { echo "xpath rewrote stored content: $NUM_OUT"; exit 1; }
# a document nested past the parser's depth cap is refused with exit 1
# and a message naming the depth, instead of overflowing the stack
python3 -c "print('<dblp>' + '<a>' * 16000 + 'x' + '</a>' * 16000 + '</dblp>')" > "$SMOKE/deep.xml"
DEEP_STATUS=0
DEEP_OUT=$("$CLI" load --db "$SMOKE/lossless.json" --collection nums "$SMOKE/deep.xml" 2>&1) || DEEP_STATUS=$?
[ "$DEEP_STATUS" -eq 1 ] || { echo "over-deep load exited $DEEP_STATUS, expected 1"; exit 1; }
grep -q "nesting depth 257 exceeds the limit of 256" <<< "$DEEP_OUT"
# and the store it was refused from still opens, unchanged
LOSSLESS_STATS=$("$CLI" stats --db "$SMOKE/lossless.json")
grep -q "^xmldb_snapshot_loads" <<< "$LOSSLESS_STATS"
NUM_OUT=$("$CLI" xpath --db "$SMOKE/lossless.json" --collection nums "//a")
grep -q "^1 match(es)" <<< "$NUM_OUT"
grep -qF "$NUM_DOC" <<< "$NUM_OUT"

echo "==> toss-cli query, flight recorder + toss-cli top smoke test"
# a threshold no stored SEO can carry is a usage error naming the flag,
# and writes nothing
for EPS in nan inf -1; do
    EPS_STATUS=0
    EPS_OUT=$("$CLI" build-seo --db "$SMOKE/store.json" --epsilon "$EPS" \
        --out "$SMOKE/bad-seo.json" 2>&1) || EPS_STATUS=$?
    [ "$EPS_STATUS" -eq 1 ] || { echo "build-seo --epsilon $EPS exited $EPS_STATUS, expected 1"; exit 1; }
    grep -q "^error: --epsilon must be a finite non-negative number" <<< "$EPS_OUT"
    [ ! -e "$SMOKE/bad-seo.json" ] || { echo "build-seo --epsilon $EPS wrote an SEO"; exit 1; }
done
"$CLI" build-seo --db "$SMOKE/store.json" --epsilon 1 --out "$SMOKE/seo.json" >/dev/null
# the release `query` path, TOSS and the TAX baseline
QUERY_OUT=$("$CLI" query --db "$SMOKE/store.json" --seo "$SMOKE/seo.json" \
    --collection dblp --root inproceedings --eq author='Smoke Test')
grep -q "^1 answer(s)" <<< "$QUERY_OUT"
TAX_OUT=$("$CLI" query --db "$SMOKE/store.json" --seo "$SMOKE/seo.json" \
    --collection dblp --root inproceedings --eq author='Smoke Test' --tax)
grep -q "^1 answer(s)" <<< "$TAX_OUT"
# a query with more predicates than the request ceiling is refused with
# exit 1 and a message naming the limit, instead of overflowing the stack
MANY_EQ=()
for i in $(seq 1 65); do MANY_EQ+=(--eq "author=a$i"); done
MANY_STATUS=0
MANY_OUT=$("$CLI" query --db "$SMOKE/store.json" --seo "$SMOKE/seo.json" \
    --collection dblp --root inproceedings "${MANY_EQ[@]}" 2>&1) || MANY_STATUS=$?
[ "$MANY_STATUS" -eq 1 ] || { echo "65-predicate query exited $MANY_STATUS, expected 1"; exit 1; }
grep -q "65 predicates exceed the limit of 64" <<< "$MANY_OUT"
# --explain renders the query's span tree (the one product caller of
# QueryTrace::for_thread and render); --trace-out writes each span as
# one JSON object per line
EXPLAIN_OUT=$("$CLI" query --db "$SMOKE/store.json" --seo "$SMOKE/seo.json" \
    --collection dblp --root inproceedings --eq author='Smoke Test' \
    --explain --trace-out "$SMOKE/spans.jsonl")
grep -q "^EXPLAIN$" <<< "$EXPLAIN_OUT"
grep -q "^toss\.query\.select " <<< "$EXPLAIN_OUT"
grep -q "^└─ " <<< "$EXPLAIN_OUT"
# above the tree, the query's flight-recorder record (the one a server's
# `slow` frame carries): the CLI query ran through the serving Service
grep -q "^queue wait " <<< "$EXPLAIN_OUT"
# the planner probes the content index with the key the rewrite gave the
# author equality: one term, one of the two papers, and nothing else on
# the line (a selection names no worker or partition count)
grep -q "^plan: index-probe tag=author terms=1 candidates=1$" <<< "$EXPLAIN_OUT"
# a selection runs on the calling thread, so query takes no thread
# count: --threads is refused as an unknown flag
THREADS_STATUS=0
THREADS_OUT=$("$CLI" query --db "$SMOKE/store.json" --seo "$SMOKE/seo.json" \
    --collection dblp --root inproceedings --eq author='Smoke Test' --threads 2 2>&1) \
    || THREADS_STATUS=$?
[ "$THREADS_STATUS" -ne 0 ] || { echo "query --threads 2 exited 0"; exit 1; }
grep -q "^error: unknown flag --threads" <<< "$THREADS_OUT"
# the rewrite builds the XPath tree itself: no parse span under a query
if grep -q "─ xmldb\.xpath\.parse " <<< "$EXPLAIN_OUT"; then
    echo "--explain shows an XPath parse on the query path"; exit 1
fi
test -s "$SMOKE/spans.jsonl" || { echo "--trace-out file is empty"; exit 1; }
if grep -qv '^{"id":' "$SMOKE/spans.jsonl"; then
    echo "--trace-out wrote a line that is not a span object"; exit 1
fi
# the sinks are installed before the store opens: its snapshot load is
# traced, on the thread that runs the query
QUERY_THREAD=$(sed -n 's/.*"name":"toss\.query\.select","thread":\([0-9]*\),.*/\1/p' "$SMOKE/spans.jsonl")
grep -q "\"name\":\"xmldb\.snapshot\.load\",\"thread\":$QUERY_THREAD," "$SMOKE/spans.jsonl" \
    || { echo "--trace-out has no snapshot load on the query's thread"; exit 1; }
# a live server with a slow-query log, one query over the wire, then
# one non-interactive `top` refresh against it
mkfifo "$SMOKE/serve-stdin"
"$CLI" serve --db "$SMOKE/store.json" --seo "$SMOKE/seo.json" \
    --addr 127.0.0.1:0 --slow-log "$SMOKE/slow.jsonl" \
    --slow-threshold-ms 0 < "$SMOKE/serve-stdin" > "$SMOKE/serve.log" &
SERVE_PID=$!
exec 9> "$SMOKE/serve-stdin"   # hold the server's stdin open
# the server bound an ephemeral port; read it from the line it prints
ADDR=
for _ in $(seq 1 50); do
    ADDR=$(sed -n 's/^toss-serve listening on \([^ ]*\).*/\1/p' "$SMOKE/serve.log" 2>/dev/null || true)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "server never reported its address"; exit 1; }
# a frame nested 500 000 levels deep, which the server must refuse
# with `bad_request` and survive, then one query over a fresh
# connection so the flight recorder and SLO windows have an entry (the
# protocol is 4-byte BE length ‖ JSON)
python3 - "$ADDR" <<'PY'
import json, socket, struct, sys
host, port = sys.argv[1].rsplit(":", 1)
def call(body):
    s = socket.create_connection((host, int(port)), timeout=10)
    s.sendall(struct.pack(">I", len(body)) + body)
    def recv_exact(n):
        buf = b""
        while len(buf) < n:
            chunk = s.recv(n - len(buf))
            assert chunk, "server closed mid-frame"
            buf += chunk
        return buf
    n = struct.unpack(">I", recv_exact(4))[0]
    return json.loads(recv_exact(n))
deep = call(b"[" * 500_000)
assert deep["code"] == "bad_request", deep
req = json.dumps({"verb": "query", "collection": "dblp",
                  "root": "inproceedings",
                  "eq": [["author", "Smoke Test"]]}).encode()
resp = call(req)
assert resp["status"] == "ok" and resp["answers"] == 1, resp
assert resp["query_id"] > 0, resp
print(f"deep frame refused; wire query ok: query_id={resp['query_id']}")
PY
TOP_OUT=$("$CLI" top --addr "$ADDR" --iterations 1)
echo "$TOP_OUT" | grep -q "interactive"
echo "$TOP_OUT" | grep -q "best_effort"
echo "shutdown" >&9
wait "$SERVE_PID"
test -s "$SMOKE/slow.jsonl" || { echo "slow-query log is empty"; exit 1; }
grep -q '"query_id"' "$SMOKE/slow.jsonl"
# the drained server persisted windowed gauges into <db>.stats.json
"$CLI" stats --db "$SMOKE/store.json" --json | grep -q '"toss.serve.window.interactive.requests"'

echo "==> toss-cli serve --writable smoke test"
# the writable open recipe (durable open, ontology sidecar and journal
# tail, write engine) behind a live server: one keyed insert over the
# wire, a query that finds it, a resend under the same key that the
# dedupe table answers, and one ontology edge
mkfifo "$SMOKE/serve-w-stdin"
"$CLI" serve --writable --db "$SMOKE/store.json" --seo "$SMOKE/seo.json" \
    --addr 127.0.0.1:0 < "$SMOKE/serve-w-stdin" > "$SMOKE/serve-w.log" &
SERVE_PID=$!
exec 9> "$SMOKE/serve-w-stdin"   # hold the writable server's stdin open
ADDR=
for _ in $(seq 1 50); do
    ADDR=$(sed -n 's/^toss-serve listening on \([^ ]*\).*/\1/p' "$SMOKE/serve-w.log" 2>/dev/null || true)
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "writable server never reported its address"; exit 1; }
python3 - "$ADDR" <<'PY'
import json, socket, struct, sys
host, port = sys.argv[1].rsplit(":", 1)
s = socket.create_connection((host, int(port)), timeout=10)
def recv_exact(n):
    buf = b""
    while len(buf) < n:
        chunk = s.recv(n - len(buf))
        assert chunk, "server closed mid-frame"
        buf += chunk
    return buf
def call(req):
    body = json.dumps(req).encode()
    s.sendall(struct.pack(">I", len(body)) + body)
    n = struct.unpack(">I", recv_exact(4))[0]
    resp = json.loads(recv_exact(n))
    assert resp["status"] == "ok", resp
    return resp
insert = {"verb": "insert_doc", "collection": "dblp", "key": "verify-smoke-1",
          "xml": '<inproceedings key="s3"><author>Wire Writer</author>'
                 '<year>2006</year></inproceedings>'}
first = call(insert)
assert first["deduped"] is False, first
found = call({"verb": "query", "collection": "dblp", "root": "inproceedings",
              "eq": [["author", "Wire Writer"]]})
assert found["answers"] == 1, found
again = call(insert)
assert again["deduped"] is True and again["seq"] == first["seq"], again
call({"verb": "add_edge", "below": "Smoke Test", "above": "smoke-pioneer",
      "key": "verify-smoke-edge"})
below = call({"verb": "query", "collection": "dblp", "root": "inproceedings",
              "below": [["author", "smoke-pioneer"]]})
assert below["answers"] == 1, below
print(f"wire write ok: seq={first['seq']}, resend deduped, edge served")
PY
echo "shutdown" >&9
wait "$SERVE_PID"
exec 9>&-
# the acknowledged write survives the server: the reopened store holds
# all three papers and recovers clean
WRITTEN_OUT=$("$CLI" xpath --db "$SMOKE/store.json" --collection dblp "//inproceedings")
grep -q "3 match(es)" <<< "$WRITTEN_OUT"
# the writable open seeded the store's own ontology sidecar
test -s "$SMOKE/store.ont.json" || { echo "writable open wrote no store.ont.json"; exit 1; }
# and the acknowledged edge answers the in-process query too: it opens
# the store by the same rule as the server (the journal tail past the
# ontology sidecar beats --seo)
BELOW_OUT=$("$CLI" query --db "$SMOKE/store.json" --seo "$SMOKE/seo.json" \
    --collection dblp --root inproceedings --below author=smoke-pioneer)
grep -q "^1 answer(s)" <<< "$BELOW_OUT"
WRITTEN_RECOVER_OUT=$("$CLI" db recover --db "$SMOKE/store.json")
grep -q "store is clean" <<< "$WRITTEN_RECOVER_OUT"
# every checkpoint that knows the store's ontology writes it: after
# recover and after checkpoint the journal holds no ontology record, and
# the query finds the edge in the sidecar without replaying (no SEA)
BELOW_OUT=$("$CLI" query --db "$SMOKE/store.json" --seo "$SMOKE/seo.json" \
    --collection dblp --root inproceedings --below author=smoke-pioneer \
    2> "$SMOKE/below.err")
grep -q "^1 answer(s)" <<< "$BELOW_OUT"
if grep -q "replayed" "$SMOKE/below.err"; then
    echo "query replayed ontology records after db recover"; exit 1
fi
CHECKPOINT_OUT=$("$CLI" db checkpoint --db "$SMOKE/store.json")
grep -q "journal truncated" <<< "$CHECKPOINT_OUT"
# the sidecar is now at the `.seg`'s cursor, and the open still reads
# the `.seg` once: the ontology's reachability closure is not stored,
# so nothing reads the file a second time to seed it
BELOW_OUT=$("$CLI" query --db "$SMOKE/store.json" --seo "$SMOKE/seo.json" \
    --collection dblp --root inproceedings --below author=smoke-pioneer \
    --explain 2> "$SMOKE/below.err")
grep -q "^1 answer(s)" <<< "$BELOW_OUT"
grep -q "^xmldb\.segment\.loads = 1$" <<< "$BELOW_OUT" \
    || { echo "query after db checkpoint did not read the .seg exactly once"; exit 1; }
if grep -q "replayed" "$SMOKE/below.err"; then
    echo "query replayed ontology records after db checkpoint"; exit 1
fi
# a damaged ontology sidecar is an error naming the file, never a
# silent fall-back to --seo (the edge's journal record is folded away)
truncate -s 40 "$SMOKE/store.ont.json"
set +e
"$CLI" query --db "$SMOKE/store.json" --seo "$SMOKE/seo.json" \
    --collection dblp --root inproceedings --below author=smoke-pioneer \
    > /dev/null 2> "$SMOKE/damaged.err"
DAMAGED_EXIT=$?
set -e
[ "$DAMAGED_EXIT" = 1 ] || { echo "damaged sidecar: query exited $DAMAGED_EXIT, want 1"; exit 1; }
grep -q "store.ont.json" "$SMOKE/damaged.err"
# db recover sets the damaged sidecar aside and re-persists the store
# without it; the edge lived only in that sidecar, so the query now runs
# on --seo and finds nothing below smoke-pioneer
SIDECAR_RECOVER_OUT=$("$CLI" db recover --db "$SMOKE/store.json")
grep -q "^ontology sidecar discarded: .*store.ont.json" <<< "$SIDECAR_RECOVER_OUT"
test -s "$SMOKE/store.ont.json.corrupt" || { echo "db recover kept no store.ont.json.corrupt"; exit 1; }
BELOW_OUT=$("$CLI" query --db "$SMOKE/store.json" --seo "$SMOKE/seo.json" \
    --collection dblp --root inproceedings --below author=smoke-pioneer)
grep -q "^0 answer(s)" <<< "$BELOW_OUT"

echo "==> CRC-32 of a stored snapshot and .seg against zlib"
# the store's checksum is zlib's crc32(); checking real files with an
# independent implementation holds the three-stream path (inputs of
# 12 KiB and more) to the definition, not only to the code's own tests
ZDIR="$SMOKE/zlib"
mkdir "$ZDIR"
python3 - "$ZDIR/papers.xml" <<'PY'
import sys
records = "".join(
    f'<inproceedings key="z{i}"><author>Author {i % 37}</author>'
    f"<title>On checksums &amp; streams, part {i}</title>"
    f"<booktitle>CONF{i % 11}</booktitle><year>{1990 + i % 20}</year></inproceedings>\n"
    for i in range(300)
)
open(sys.argv[1], "w").write(records)
PY
"$CLI" load --db "$ZDIR/store.json" --collection dblp "$ZDIR/papers.xml" >/dev/null
python3 - "$ZDIR/papers.xml" "$ZDIR/store.json" "$ZDIR/store.seg" <<'PY'
import json, os, sys, zlib
forest, snapshot, seg = sys.argv[1:]
assert os.path.getsize(forest) > 12 << 10, "the forest file is under 12 KiB"
raw = open(snapshot, "rb").read()
head = b'{"version":2,"checksum":'
assert raw.startswith(head), raw[:40]
stored, rest = raw[len(head):].split(b',"data":', 1)
assert rest.endswith(b"}"), rest[-20:]
data = rest[:-1]
assert len(data) >= 12 << 10, f"snapshot data is only {len(data)} bytes"
assert len(json.loads(data)["collections"][0]["documents"]) == 300
assert zlib.crc32(data) == int(stored), (zlib.crc32(data), int(stored))
body = open(seg, "rb").read()
assert len(body) >= 12 << 10, f"the .seg is only {len(body)} bytes"
trailer = int.from_bytes(body[-4:], "little")
assert zlib.crc32(body[:-4]) == trailer, (zlib.crc32(body[:-4]), trailer)
print(f"zlib crc32 agrees: snapshot data {len(data)} bytes, .seg {len(body)} bytes")
PY

echo "==> verify OK"
