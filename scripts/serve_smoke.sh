#!/bin/sh
# End-to-end smoke test of the fxad daemon: build the real binary, start
# it on an ephemeral port with a throwaway cache, walk one job through
# the HTTP API with curl (submit -> NDJSON stream -> result), prove that
# resubmitting the identical job is answered from the shared cache, that
# a 2 MiB submit body is refused with 413, and that SIGTERM drains to a
# clean exit 0. Everything here is plain
# POSIX sh + curl + grep, so it runs identically on a laptop and in CI
# (`make serve-smoke`).
set -eu

GO="${GO:-go}"
WORK="$(mktemp -d)"
FXAD_PID=""
cleanup() {
	[ -n "$FXAD_PID" ] && kill "$FXAD_PID" 2>/dev/null || true
	rm -rf "$WORK"
}
trap cleanup EXIT INT TERM

fail() {
	echo "serve-smoke: FAIL: $*" >&2
	echo "--- fxad log ---" >&2
	cat "$WORK/fxad.log" >&2 || true
	exit 1
}

. "$(dirname "$0")/fxad_lib.sh"

echo "serve-smoke: building fxad"
$GO build -o "$WORK/fxad" ./cmd/fxad

"$WORK/fxad" -version | grep -q '^fxad ' || fail "-version printed nothing usable"

echo "serve-smoke: starting daemon"
"$WORK/fxad" -addr 127.0.0.1:0 -cachedir "$WORK/cache" -drain 30s \
	>"$WORK/fxad.log" 2>&1 &
FXAD_PID=$!

ADDR="$(fxad_wait_addr "$WORK/fxad.log" "$FXAD_PID")"
BASE="http://$ADDR"
echo "serve-smoke: daemon at $BASE"

curl -fsS "$BASE/healthz" | grep -q '"status":"ok"' || fail "/healthz not ok"
curl -fsS "$BASE/healthz" | grep -q '"version":"..*"' || fail "/healthz has no build version"

SPEC='{"tenant":"smoke","model":"HALF+FX","workload":"libquantum","max_insts":60000,"interval_insts":8192}'

echo "serve-smoke: submitting job"
SUBMIT="$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$SPEC" "$BASE/v1/jobs")"
JOB="$(printf '%s' "$SUBMIT" | sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
[ -n "$JOB" ] || fail "submit returned no job id: $SUBMIT"

echo "serve-smoke: streaming $JOB"
STREAM="$(curl -fsS --max-time 120 "$BASE/v1/jobs/$JOB")"
printf '%s\n' "$STREAM" | grep -q '"event":"queued"' || fail "stream missing queued event"
printf '%s\n' "$STREAM" | grep -q '"event":"started"' || fail "stream missing started event"
printf '%s\n' "$STREAM" | grep -q '"event":"interval"' || fail "stream missing interval events"
printf '%s\n' "$STREAM" | grep -q '"event":"result"' || fail "stream missing result event"
printf '%s\n' "$STREAM" | grep -q '"cache_hit":true' && fail "first run claims a cache hit"

echo "serve-smoke: resubmitting (must hit the shared cache)"
JOB2="$(curl -fsS -X POST -H 'Content-Type: application/json' -d "$SPEC" "$BASE/v1/jobs" |
	sed -n 's/.*"id":"\([^"]*\)".*/\1/p')"
[ -n "$JOB2" ] || fail "resubmit returned no job id"
curl -fsS --max-time 120 "$BASE/v1/jobs/$JOB2" | grep -q '"cache_hit":true' ||
	fail "resubmitted job was not served from the cache"

curl -fsS "$BASE/v1/stats" | grep -q '"cache_hits":1' || fail "/v1/stats does not count the cache hit"

echo "serve-smoke: oversized submit (must be refused with 413)"
# A spec is well under 1 KiB; the daemon stops reading a submit body at
# 1 MiB instead of buffering a huge one whole.
{
	printf '{"tenant":"smoke","model":"HALF+FX","workload":"'
	head -c 2097152 /dev/zero | tr '\000' a
	printf '","max_insts":1000}'
} >"$WORK/huge.json"
CODE="$(curl -sS -o /dev/null -w '%{http_code}' -X POST -H 'Content-Type: application/json' \
	--data-binary "@$WORK/huge.json" "$BASE/v1/jobs" 2>/dev/null || true)"
[ "$CODE" = 413 ] || fail "a 2 MiB submit got HTTP $CODE, want 413"
curl -fsS "$BASE/healthz" | grep -q '"status":"ok"' || fail "/healthz not ok after the oversized submit"

echo "serve-smoke: SIGTERM drain"
kill -TERM "$FXAD_PID"
EXIT=0
wait "$FXAD_PID" || EXIT=$?
FXAD_PID=""
[ "$EXIT" -eq 0 ] || fail "daemon exited $EXIT on SIGTERM, want 0"
grep -q 'fxad: bye' "$WORK/fxad.log" || fail "daemon did not log a clean shutdown"

echo "serve-smoke: PASS"
