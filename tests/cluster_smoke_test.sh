#!/usr/bin/env bash
# End-to-end cluster smoke test: unicleanctl spawns a 3-replica, R=2
# unicleand fleet over unix sockets from one spec file (sharing a snapshot
# dir), a routed CLEAN through the consistent-hash ring produces a journal
# byte-identical to an in-process uniclean_cli run, the merged STATS parses
# as JSON, a rolling RELOAD keeps
# the fleet serving, then kill -9 of the primary owner mid-fleet is
# absorbed by failover (again byte-identical), the killed replica restarts
# warm from its snapshot, and unicleanctl stop drains what remains. Driven
# by CTest and by the CI cluster-smoke job.
#
# usage: cluster_smoke_test.sh CLI SAMPLER DAEMON CLIENT CTL WORK_DIR
set -u

CLI=$1
SAMPLER=$2
DAEMON=$3
CLIENT=$4
CTL=$5
WORK=$6

fail() {
  echo "cluster_smoke_test: FAIL: $*" >&2
  for log in "$WORK"/state/*.log; do
    [ -f "$log" ] && sed "s|^|  $(basename "$log"): |" "$log" >&2
  done
  "$CTL" stop "$WORK/cluster.spec" --state-dir "$WORK/state" >/dev/null 2>&1
  [ -n "${RESPAWN_PID:-}" ] && kill -9 "$RESPAWN_PID" 2>/dev/null
  exit 1
}

rm -rf "$WORK"
mkdir -p "$WORK" || fail "cannot create $WORK"
cd "$WORK" || fail "cannot cd $WORK"

"$SAMPLER" --out-dir . --tuples 400 --master 60 >/dev/null \
  || fail "make_hosp_sample"

# The in-process reference journal (no confidence file: routed CLEANs carry
# none, and the daemon treats that as uniform 0.0 — so must the reference).
"$CLI" --data dirty.csv --master master.csv --rules rules.txt \
  --journal cli_batch.csv --out /dev/null >/dev/null 2>&1 \
  || fail "uniclean_cli reference run"

# One spec file is the whole cluster config: the ring (and so ownership) is
# a pure function of it — no coordination service. Unix sockets dodge port
# allocation races; two rulesets over the same files exercise sharding.
mkdir -p snapshots
cat > cluster.spec <<EOF
replication 2
workers 2
snapshot-dir snapshots
replica r1 unix:$WORK/r1.sock
replica r2 unix:$WORK/r2.sock
replica r3 unix:$WORK/r3.sock
ruleset hosp master.csv rules.txt dirty.csv
ruleset hosp2 master.csv rules.txt dirty.csv
EOF

"$CTL" ring cluster.spec > ring.txt || fail "unicleanctl ring"
cat ring.txt
PRIMARY=$(awk '$1 == "ruleset" && $2 == "hosp" {print $4}' ring.txt)
SECOND=$(awk '$1 == "ruleset" && $2 == "hosp" {print $6}' ring.txt)
[ -n "$PRIMARY" ] && [ -n "$SECOND" ] || fail "cannot parse ring ownership"

"$CTL" spawn cluster.spec --unicleand "$DAEMON" --state-dir state \
  || fail "unicleanctl spawn"
grep -q "cold build" state/*.log || fail "no cold engine build logged"
[ -s snapshots/hosp.ucsnap ] || fail "spawn left no hosp snapshot behind"

"$CTL" status cluster.spec > status.txt || fail "unicleanctl status"
grep -c healthy status.txt >/dev/null || fail "no healthy replica in status"

# Routed CLEAN through the ring: byte-identical to the in-process run.
"$CTL" clean cluster.spec --ruleset hosp --data dirty.csv \
  --journal wire1.csv > clean1.txt || fail "routed clean"
cmp -s cli_batch.csv wire1.csv \
  || fail "routed journal differs from the in-process run"
grep -q " 0 failover(s)" clean1.txt \
  || fail "healthy-fleet clean should not fail over"

# Merged STATS: the cluster envelope reports the whole fleet.
"$CTL" stats cluster.spec > stats.txt || fail "unicleanctl stats"
grep -q '"cluster"' stats.txt || fail "no cluster envelope in merged stats"
grep -q '"replicas": 3' stats.txt || fail "merged stats misses replicas"
grep -q '"CLEAN"' stats.txt || fail "no CLEAN section in merged stats"
python3 -m json.tool stats.txt >/dev/null \
  || fail "merged stats is not valid JSON"

# Rolling reload: replica-by-replica, fleet keeps serving throughout.
"$CTL" rolling-reload cluster.spec --ruleset hosp > reload.txt \
  || fail "rolling-reload"
"$CTL" clean cluster.spec --ruleset hosp --data dirty.csv \
  --journal wire2.csv >/dev/null || fail "clean after rolling-reload"
cmp -s cli_batch.csv wire2.csv \
  || fail "post-reload journal differs from the in-process run"

# Kill the primary owner of "hosp" outright (no drain — a crash). The next
# routed CLEAN must recover on the second owner, byte-identical: either the
# pre-routing probe demotes the corpse and routing starts at the survivor,
# or the client burns a failover mid-walk. Both are client-transparent.
PRIMARY_PID=$(cat "state/$PRIMARY.pid") || fail "no pidfile for $PRIMARY"
kill -9 "$PRIMARY_PID" || fail "kill -9 $PRIMARY"
for _ in $(seq 1 100); do
  kill -0 "$PRIMARY_PID" 2>/dev/null || break
  sleep 0.1
done
kill -0 "$PRIMARY_PID" 2>/dev/null && fail "$PRIMARY survived kill -9"

"$CTL" status cluster.spec > status2.txt  # exit 2: not everyone answers now
grep -E "^$PRIMARY +\S+ +(suspect|down)" status2.txt >/dev/null \
  || fail "dead primary still reported healthy"

"$CTL" clean cluster.spec --ruleset hosp --data dirty.csv \
  --journal wire3.csv > clean3.txt || fail "routed clean after primary death"
cmp -s cli_batch.csv wire3.csv \
  || fail "failover journal differs from the in-process run"

# Restart the dead replica by hand (what an operator or supervisor does):
# it must come back warm from the shared snapshot dir, not cold-build.
OWNED=$(awk -v r="$PRIMARY" \
  '$1 == "replica" && $2 == r {for (i = 7; i <= NF; i++) print $i}' ring.txt)
[ -n "$OWNED" ] || fail "cannot parse rulesets owned by $PRIMARY"
RULESET_ARGS=
for rs in $OWNED; do
  RULESET_ARGS="$RULESET_ARGS --ruleset $rs:master.csv:rules.txt:dirty.csv"
done
# shellcheck disable=SC2086
"$DAEMON" --listen "unix:$WORK/$PRIMARY.sock" --workers 2 \
  --snapshot-dir snapshots $RULESET_ARGS > "state/$PRIMARY.respawn.log" 2>&1 &
RESPAWN_PID=$!
echo "$RESPAWN_PID" > "state/$PRIMARY.pid"
UP=
for _ in $(seq 1 300); do
  if "$CLIENT" --address "unix:$WORK/$PRIMARY.sock" --ping \
      >/dev/null 2>&1; then UP=1; break; fi
  kill -0 "$RESPAWN_PID" 2>/dev/null || fail "respawned $PRIMARY died"
  sleep 0.2
done
[ -n "$UP" ] || fail "respawned $PRIMARY never answered a ping"
RESPAWN_PID=
grep -q "engine ready in .*snapshot" "state/$PRIMARY.respawn.log" \
  || fail "respawned $PRIMARY cold-built instead of warm-starting"

"$CTL" clean cluster.spec --ruleset hosp --data dirty.csv \
  --journal wire4.csv > clean4.txt || fail "clean after primary respawn"
cmp -s cli_batch.csv wire4.csv \
  || fail "post-respawn journal differs from the in-process run"
grep -q " 0 failover(s)" clean4.txt \
  || fail "recovered primary should serve without failover"

"$CTL" stop cluster.spec --state-dir state || fail "unicleanctl stop"
for sock in "$WORK"/r*.sock; do
  [ -e "$sock" ] && fail "socket $sock survived stop"
done

echo "cluster_smoke_test: PASS (routed + failover + respawn journals" \
     "byte-identical, rolling reload served throughout, snapshot warm start)"
exit 0
