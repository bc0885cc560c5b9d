#!/usr/bin/env sh
# Local CI gate: build, test, lint, analyze, verify, and docs for the
# whole workspace. Usage: ./ci.sh
set -eu

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test -q (MPC_THREADS=1)"
MPC_THREADS=1 cargo test -q --workspace

echo "==> cargo test -q (MPC_THREADS=4)"
MPC_THREADS=4 cargo test -q --workspace

echo "==> benchmark crate builds and passes its own tests against crates/*"
# benchmark/ is a workspace of its own, so nothing above compiles it.
cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> mpc analyze (workspace lint engine, gated on analyze-baseline.json)"
# Fails deterministically on any finding whose (path, rule, message) key
# is not in the committed baseline. After fixing or mpc-allow-ing a
# finding, regenerate with:
#   cargo run -q --release -p mpc-analyze -- lint --write-baseline analyze-baseline.json
cargo run -q --release -p mpc-analyze -- lint --json --baseline analyze-baseline.json

echo "==> mpc partition --verify (invariant smoke on generated LUBM)"
CI_TMP=$(mktemp -d)
trap 'rm -rf "$CI_TMP"' EXIT
MPC=./target/release/mpc
"$MPC" generate --dataset lubm --scale 0.3 --seed 7 --out "$CI_TMP/lubm.nt"
"$MPC" partition --input "$CI_TMP/lubm.nt" --out "$CI_TMP/lubm.parts" \
    --method mpc --k 4 --verify
"$MPC" partition --input "$CI_TMP/lubm.nt" --out "$CI_TMP/hash.parts" \
    --method hash --k 4 --verify

echo "==> parallel determinism smoke (bit-identical output across thread counts, docs/PARALLELISM.md)"
MPC_THREADS=1 "$MPC" partition --input "$CI_TMP/lubm.nt" --out "$CI_TMP/t1.parts" \
    --method mpc --k 4
MPC_THREADS=4 "$MPC" partition --input "$CI_TMP/lubm.nt" --out "$CI_TMP/t4.parts" \
    --method mpc --k 4
cmp "$CI_TMP/t1.parts" "$CI_TMP/t4.parts"
echo 'SELECT ?x ?y WHERE { ?x <urn:p:8> ?y } LIMIT 50' > "$CI_TMP/qpar.rq"
par_query() {
    "$MPC" query --input "$CI_TMP/lubm.nt" --partitions "$CI_TMP/lubm.parts" \
        --query "$CI_TMP/qpar.rq" --threads "$1"
}
par_query 1 > "$CI_TMP/par.1"
par_query 4 > "$CI_TMP/par.4"
# The trailing stats line carries wall-clock timings; everything above it
# (the bindings) must match byte for byte.
grep -v 'QDT=' "$CI_TMP/par.1" > "$CI_TMP/par.1.rows"
grep -v 'QDT=' "$CI_TMP/par.4" > "$CI_TMP/par.4.rows"
cmp "$CI_TMP/par.1.rows" "$CI_TMP/par.4.rows"

echo "==> chaos smoke (deterministic fault-injection report, docs/FAULT_TOLERANCE.md)"
echo 'SELECT ?x ?y WHERE { ?x <urn:p:8> ?y } LIMIT 5' > "$CI_TMP/q.rq"
chaos_query() {
    "$MPC" query --input "$CI_TMP/lubm.nt" --partitions "$CI_TMP/lubm.parts" \
        --query "$CI_TMP/q.rq" --chaos "crash=0.2,slow=0.2,slow-factor=2" \
        --seed 7 --retries 2 --deadline-ms 50 --replicas 1 | grep '^chaos:'
}
chaos_query > "$CI_TMP/chaos.1"
chaos_query > "$CI_TMP/chaos.2"
cmp "$CI_TMP/chaos.1" "$CI_TMP/chaos.2"
cat "$CI_TMP/chaos.1"
# The anchored OPTIONAL of the serve workload below: under the same spec
# its arm runs as a seeded leaf, so the fault layer also covers the bind
# join. Everything but the wall-clock stats line must repeat exactly.
echo 'SELECT ?x ?o WHERE { ?x <urn:p:8> <urn:v:1175> OPTIONAL { ?x <urn:p:0> ?o } }' \
    > "$CI_TMP/qseed.rq"
seeded_chaos_query() {
    "$MPC" query --input "$CI_TMP/lubm.nt" --partitions "$CI_TMP/lubm.parts" \
        --query "$CI_TMP/qseed.rq" --chaos "crash=0.2,slow=0.2,slow-factor=2" \
        --seed 7 --retries 2 --deadline-ms 50 --replicas 1 | grep -v 'QDT='
}
seeded_chaos_query > "$CI_TMP/chaos.seed.1"
seeded_chaos_query > "$CI_TMP/chaos.seed.2"
cmp "$CI_TMP/chaos.seed.1" "$CI_TMP/chaos.seed.2"
grep '^chaos:' "$CI_TMP/chaos.seed.1"

echo "==> serve smoke (cached workload replay, deterministic + hitting, docs/SERVING.md)"
cat > "$CI_TMP/workload.txt" <<'EOF'
# two spellings of one BGP plus a distinct query, replayed — then the
# algebra operators (docs/QUERY.md): an OPTIONAL and its variable-renamed
# respelling, a bag UNION (repeated), an ORDER BY + LIMIT, and last an
# OPTIONAL behind a constant-anchored left side (3 rows in this graph)
# whose arm runs as a seeded leaf, so every digest comparison below also
# covers the bind join
SELECT ?x ?y WHERE { ?x <urn:p:8> ?y . ?y <urn:p:13> ?z }
SELECT ?a ?b WHERE { ?b <urn:p:13> ?c . ?a <urn:p:8> ?b }
SELECT ?x WHERE { ?x <urn:p:0> ?y }
SELECT ?x ?y WHERE { ?x <urn:p:8> ?y . ?y <urn:p:13> ?z }
SELECT ?x ?z WHERE { ?x <urn:p:8> ?y OPTIONAL { ?y <urn:p:13> ?z } }
SELECT ?a ?c WHERE { ?a <urn:p:8> ?b OPTIONAL { ?b <urn:p:13> ?c } }
SELECT ?x WHERE { { ?x <urn:p:8> ?y } UNION { ?x <urn:p:13> ?y } }
SELECT ?x ?y WHERE { ?x <urn:p:8> ?y } ORDER BY DESC(?y) LIMIT 4
SELECT ?x WHERE { { ?x <urn:p:8> ?y } UNION { ?x <urn:p:13> ?y } }
SELECT ?x ?o WHERE { ?x <urn:p:8> <urn:v:1175> OPTIONAL { ?x <urn:p:0> ?o } }
EOF
serve_replay() {
    "$MPC" serve --input "$CI_TMP/lubm.nt" --partitions "$CI_TMP/lubm.parts" \
        --queries "$CI_TMP/workload.txt" --cache-entries "$1" --limit 3 \
        | grep -v '^time:'
}
serve_replay 16 > "$CI_TMP/serve.1"
serve_replay 16 > "$CI_TMP/serve.2"
# Outside the wall-clock line, two replays are byte-identical…
cmp "$CI_TMP/serve.1" "$CI_TMP/serve.2"
# …the respelled BGP, the BGP repeat, the renamed OPTIONAL, and the
# UNION repeat all hit the result cache, and the canonicalization memo
# answers all of them but the reordered BGP.
grep '^serve:' "$CI_TMP/serve.1" | grep -q 'cache_hits=4'
grep '^serve:' "$CI_TMP/serve.1" | grep -q 'plan_hits=3 plan_misses=7'
grep '^serve:' "$CI_TMP/serve.1"
# With the result cache off, every answer is byte-identical to the cached
# replay's once the per-request cache tag is dropped; the memo still hits.
serve_replay 0 > "$CI_TMP/serve.0"
grep -v '^serve:' "$CI_TMP/serve.1" | sed 's/ cache=[a-z]*//' > "$CI_TMP/serve.1.rows"
grep -v '^serve:' "$CI_TMP/serve.0" | sed 's/ cache=[a-z]*//' > "$CI_TMP/serve.0.rows"
cmp "$CI_TMP/serve.1.rows" "$CI_TMP/serve.0.rows"
grep '^serve:' "$CI_TMP/serve.0" | grep -q 'plan_hits=3 .*entries=0/0'

echo "==> server smoke (concurrent TCP front end, byte-identical to mpc serve --digest, docs/SERVER.md)"
# Expected digests from the single-threaded serving path…
"$MPC" serve --input "$CI_TMP/lubm.nt" --partitions "$CI_TMP/lubm.parts" \
    --queries "$CI_TMP/workload.txt" --digest | grep '^\[' > "$CI_TMP/expect.digests"
# …must be reproduced by a 4-worker server under a 3-connection replay.
"$MPC" server --input "$CI_TMP/lubm.nt" --partitions "$CI_TMP/lubm.parts" \
    --listen 127.0.0.1:0 --workers 4 --queue-depth 32 \
    --port-file "$CI_TMP/port" > "$CI_TMP/server.log" &
SRV_PID=$!
tries=0
while [ ! -s "$CI_TMP/port" ] && [ "$tries" -lt 100 ]; do
    tries=$((tries + 1))
    sleep 0.1
done
[ -s "$CI_TMP/port" ] # the server came up and published its address
ADDR=$(cat "$CI_TMP/port")
"$MPC" client --connect "$ADDR" --queries "$CI_TMP/workload.txt" \
    --connections 3 | grep '^\[' > "$CI_TMP/client.digests"
cmp "$CI_TMP/expect.digests" "$CI_TMP/client.digests"
"$MPC" client --connect "$ADDR" --shutdown
wait "$SRV_PID"
grep '^server:' "$CI_TMP/server.log"

echo "==> snapshot smoke (save → load byte-identical, corruption fallback, docs/PERSISTENCE.md)"
# Save a snapshot generation at partition time, serve from it, and diff
# digests against the in-memory rebuild path.
"$MPC" partition --input "$CI_TMP/lubm.nt" --out "$CI_TMP/snap.parts" \
    --method mpc --k 4 --save "$CI_TMP/store"
"$MPC" serve --input "$CI_TMP/lubm.nt" --partitions "$CI_TMP/snap.parts" \
    --queries "$CI_TMP/workload.txt" --digest | grep '^\[' > "$CI_TMP/rebuild.digests"
"$MPC" serve --load "$CI_TMP/store" \
    --queries "$CI_TMP/workload.txt" --digest > "$CI_TMP/snap.out"
grep -q 'snapshot: loaded gen-0001' "$CI_TMP/snap.out"
grep '^\[' "$CI_TMP/snap.out" > "$CI_TMP/snap.digests"
cmp "$CI_TMP/rebuild.digests" "$CI_TMP/snap.digests"
# Commit a second generation, then corrupt it: the loader must detect
# the damage (checksums) and fall back to gen-0001, digests unchanged.
"$MPC" partition --input "$CI_TMP/lubm.nt" --out "$CI_TMP/snap.parts" \
    --method mpc --k 4 --save "$CI_TMP/store" | grep -q 'saved gen-0002'
corrupt_snapshot() {
    SNAP_SZ=$(wc -c < "$1")
    printf 'XXXX' | dd of="$1" bs=1 seek=$((SNAP_SZ / 2)) conv=notrunc 2>/dev/null
}
corrupt_snapshot "$CI_TMP/store/gen-0002/snapshot.bin"
"$MPC" serve --load "$CI_TMP/store" \
    --queries "$CI_TMP/workload.txt" --digest > "$CI_TMP/fallback.out"
grep -q 'snapshot: loaded gen-0001' "$CI_TMP/fallback.out"
grep '^\[' "$CI_TMP/fallback.out" > "$CI_TMP/fallback.digests"
cmp "$CI_TMP/rebuild.digests" "$CI_TMP/fallback.digests"
# Corrupt every generation: without raw inputs the load must fail with
# a typed error and a nonzero exit — never serve garbage.
corrupt_snapshot "$CI_TMP/store/gen-0001/snapshot.bin"
! "$MPC" serve --load "$CI_TMP/store" \
    --queries "$CI_TMP/workload.txt" --digest > "$CI_TMP/dead.out" 2>&1
# With raw inputs present the same situation rebuilds — loudly — and
# still produces the exact digests.
"$MPC" serve --load "$CI_TMP/store" --input "$CI_TMP/lubm.nt" \
    --partitions "$CI_TMP/snap.parts" \
    --queries "$CI_TMP/workload.txt" --digest > "$CI_TMP/rebuilt.out"
grep -q 'snapshot: load failed' "$CI_TMP/rebuilt.out"
grep '^\[' "$CI_TMP/rebuilt.out" > "$CI_TMP/rebuilt.digests"
cmp "$CI_TMP/rebuild.digests" "$CI_TMP/rebuilt.digests"

echo "==> update smoke (transactional commits: epoch flip, deterministic replay, snapshot cold-start, docs/UPDATES.md)"
# Queries interleaved with INSERT/DELETE DATA commits: the repeated
# query hits the cache before the commit, and the *same text* must
# re-execute after it (the epoch flip made the cached entry
# unaddressable) and see the new triples.
cat > "$CI_TMP/upd.txt" <<'EOF'
SELECT ?x ?y WHERE { ?x <urn:q:live> ?y }
SELECT ?x ?y WHERE { ?x <urn:q:live> ?y }
INSERT DATA { <urn:n:a> <urn:q:live> <urn:n:b> . <urn:n:b> <urn:q:live> <urn:n:c> }
SELECT ?x ?y WHERE { ?x <urn:q:live> ?y }
DELETE DATA { <urn:n:b> <urn:q:live> <urn:n:c> }
SELECT ?x ?y WHERE { ?x <urn:q:live> ?y }
EOF
upd_replay() {
    "$MPC" serve --input "$CI_TMP/lubm.nt" --partitions "$CI_TMP/lubm.parts" \
        --queries "$CI_TMP/upd.txt" --limit 5 | grep -v '^time:'
}
upd_replay > "$CI_TMP/upd.1"
upd_replay > "$CI_TMP/upd.2"
# Two runs byte-identical, commits included…
cmp "$CI_TMP/upd.1" "$CI_TMP/upd.2"
grep -q '^\[2\] rows=0 cache=hit' "$CI_TMP/upd.1"   # pre-commit repeat hits
grep -q '^\[3\] committed: +2 -0' "$CI_TMP/upd.1"   # the insert commit
grep -q '^\[4\] rows=2 cache=miss' "$CI_TMP/upd.1"  # epoch flipped: fresh answer
grep -q '^\[6\] rows=1 cache=miss' "$CI_TMP/upd.1"  # the delete is visible
grep '^serve:' "$CI_TMP/upd.1" | grep -q 'updates=2'
# The post-commit answers must be byte-identical to a store rebuilt with
# the updates: `mpc update --save` commits the same mutations and
# snapshots the result, and a cold start from that snapshot (a
# from-scratch engine over the committed dataset) serves the same
# digests the live session computed after its commits.
cat > "$CI_TMP/updq.txt" <<'EOF'
SELECT ?x ?y WHERE { ?x <urn:q:live> ?y }
SELECT ?x WHERE { ?x <urn:p:0> ?y }
EOF
cat "$CI_TMP/upd.txt" "$CI_TMP/updq.txt" > "$CI_TMP/updfull.txt"
"$MPC" serve --input "$CI_TMP/lubm.nt" --partitions "$CI_TMP/lubm.parts" \
    --queries "$CI_TMP/updfull.txt" --digest \
    | grep 'fp=' | tail -2 | sed 's/^\[[0-9]*\] //' > "$CI_TMP/live.digests"
"$MPC" update --input "$CI_TMP/lubm.nt" --partitions "$CI_TMP/lubm.parts" \
    --text 'INSERT DATA { <urn:n:a> <urn:q:live> <urn:n:b> . <urn:n:b> <urn:q:live> <urn:n:c> }' \
    --save "$CI_TMP/updstore" | grep -q '^committed: +2 -0'
"$MPC" update --load "$CI_TMP/updstore" \
    --text 'DELETE DATA { <urn:n:b> <urn:q:live> <urn:n:c> }' \
    --save "$CI_TMP/updstore" | grep -q '^committed: +0 -1'
"$MPC" serve --load "$CI_TMP/updstore" --queries "$CI_TMP/updq.txt" --digest \
    > "$CI_TMP/cold.out"
grep -q 'snapshot: loaded gen-0002' "$CI_TMP/cold.out"
grep 'fp=' "$CI_TMP/cold.out" | sed 's/^\[[0-9]*\] //' > "$CI_TMP/cold.digests"
cmp "$CI_TMP/live.digests" "$CI_TMP/cold.digests"

echo "==> cargo doc --no-deps"
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

echo "==> ci.sh: all green"
