#!/bin/sh
# serve-smoke: boot gadt-serve, drive one complete debugging session
# with curl by replaying the checked-in CLI journal, and scrape the ops
# surface. Proves the binary end to end: HTTP wiring, the journal wire
# format, the cache counters, the metrics endpoint, and that sessions
# run through the gadt facade (its trace and transform counters).
#
# Usage: scripts/serve-smoke.sh [outdir]   (default: serve-smoke-out)
#
# Exit nonzero on any failed step. The transcript of every request and
# response lands in $OUT/transcript.txt (CI uploads the directory).
set -eu

OUT=${1:-serve-smoke-out}
GO=${GO:-go}
JOURNAL=testdata/serve/sqrtest_session.jsonl
CREATE=testdata/serve/sqrtest_create.json

mkdir -p "$OUT"
TRANSCRIPT=$OUT/transcript.txt
: > "$TRANSCRIPT"

say() { printf '%s\n' "$*" | tee -a "$TRANSCRIPT"; }

say "== build =="
$GO build -o "$OUT/gadt-serve" ./cmd/gadt-serve

say "== start =="
rm -f "$OUT/port" # a port file left by an earlier run would be read first
"$OUT/gadt-serve" -addr 127.0.0.1:0 -port-file "$OUT/port" \
    2>> "$TRANSCRIPT" &
SERVER_PID=$!
trap 'kill "$SERVER_PID" 2>/dev/null || true' EXIT

# Wait for the port file (the server writes it once the listener is up).
i=0
while [ ! -s "$OUT/port" ]; do
    i=$((i + 1))
    [ $i -gt 100 ] && { say "server never wrote $OUT/port"; exit 1; }
    sleep 0.1
done
BASE="http://$(cat "$OUT/port")"
say "server at $BASE"

# curl wrapper: logs the exchange, fails the script on transport errors.
req() { # req NAME METHOD PATH [BODY-FILE]
    name=$1 method=$2 path=$3 body=${4:-}
    {
        echo "--- $name: $method $path"
        if [ -n "$body" ]; then
            curl -sS -X "$method" -H 'Content-Type: application/json' \
                --data-binary "@$body" "$BASE$path"
        else
            curl -sS -X "$method" "$BASE$path"
        fi
        echo
    } >> "$TRANSCRIPT"
}

say "== health =="
health=$(curl -sS "$BASE/healthz")
echo "/healthz: $health" >> "$TRANSCRIPT"
[ "$health" = "ok" ] || { say "/healthz said: $health"; exit 1; }

say "== create session =="
req create POST /v1/sessions "$CREATE"
SID=$(grep -o '"id": *"s-[0-9a-f]*"' "$TRANSCRIPT" | head -1 | grep -o 's-[0-9a-f]*')
[ -n "$SID" ] || { say "no session id in create response"; exit 1; }
say "session $SID"

say "== replay journal answers =="
n=0
grep '"kind":"query"' "$JOURNAL" | while IFS= read -r line; do
    printf '%s' "$line" > "$OUT/answer.json"
    req "answer" POST "/v1/sessions/$SID/answer" "$OUT/answer.json"
done
n=$(grep -c '"kind":"query"' "$JOURNAL")
say "replayed $n answers"

say "== diagnosis =="
req final GET "/v1/sessions/$SID"
grep -q '"state": *"localized"' "$TRANSCRIPT" ||
    { say "session did not localize (see $TRANSCRIPT)"; exit 1; }
grep -q '"unit": *"decrement"' "$TRANSCRIPT" ||
    { say "diagnosis is not decrement (see $TRANSCRIPT)"; exit 1; }
say "localized decrement"

say "== metrics =="
curl -sS "$BASE/metrics" > "$OUT/metrics.txt"
for series in \
    'serve_requests{endpoint="sessions.create"}' \
    'serve_requests{endpoint="sessions.answer"}' \
    'serve_cache_misses{layer="artifact"}' \
    'serve_sessions_created' \
    'exectree_traces' \
    'transform_routines' \
    'transform_analyses'; do
    # The counter must exist and be nonzero (skip # HELP/# TYPE lines).
    val=$(grep -F "$series " "$OUT/metrics.txt" | grep -v '^#' | awk '{print $NF}' | head -1)
    case "$val" in
        ''|0) say "metric $series missing or zero (got '$val')"; exit 1 ;;
    esac
    say "  $series = $val"
done

say "== shutdown =="
kill "$SERVER_PID"
wait "$SERVER_PID" 2>/dev/null || true
trap - EXIT
say "serve smoke ok: session $SID localized decrement after $n answers"
