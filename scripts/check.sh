#!/usr/bin/env bash
# Pre-merge gate: everything a change must pass before it lands.
#
#   1. Release build with -Werror -Wconversion -Wshadow (GORILLA_STRICT),
#      full test suite.
#   2. gorilla_lint over src/ plus its self-test fixtures (the lint.* ctest
#      label, run from the release tree).
#   3. ASan+UBSan build, full test suite again under instrumentation.
#   4. Fault-injection suite (ctest label "fault") re-run under ASan+UBSan:
#      the crash-safety paths — torn writes, CRC-failed loads, shard
#      retry/quarantine, checkpoint+prefix replay — exercise exactly the
#      error-handling branches sanitizers are best at auditing.
#   5. TSan build of the engine/thread-pool tests; the sharded executor's
#      worker-thread discipline (DESIGN.md §3d) is vetted under
#      ThreadSanitizer even on hosts where thread speedup is impossible.
#   6. Memory gate: fig03 at --scale 40, failing when its peak RSS
#      regresses >10% against the latest fig03 peak_rss_kb recorded in
#      BENCH_engine.json (scripts/bench.sh writes it). Skipped with a note
#      when no baseline exists yet.
#   7. Replay-backend gate: record fig03 at --scale 4, replay the artifact
#      through the detector+pcap sinks with gorilla_replay, re-run the same
#      study live (--live) and diff the two detector reports byte-for-byte
#      — the multi-backend replay determinism contract (DESIGN.md §3h).
#   8. Compaction gate: the same fig03 study recorded as GORCOLv3 and as
#      GORCOLv2 must land the v3 artifact at <=60% of the v2 bytes, with
#      v3 replay stdout byte-identical to the live run at --jobs 1 and 3
#      (DESIGN.md §3i). Then the artifact byte pin: fig03 --scale 400
#      --quick --record must write exactly the bytes whose sha256 is in
#      bench/golden/fig03_amplifier_counts.study.sha256, and both the live
#      run and the replay of those bytes must print
#      bench/golden/fig03_amplifier_counts.txt. Round trips alone would
#      pass a codec or CRC change that reads back only what it wrote. A
#      deliberate format change records both files again.
#   9. Version-probing gate: the four benches that send mode 6 READVAR
#      probes (tab02, fig04a, fig04c, fig10) must print exactly their
#      checked-in bench/golden/*.txt at --scale 400 --quick. World servers
#      render READVAR variables on demand from a recipe (DESIGN.md §3g);
#      this pins every rendered byte the figures depend on.
#
# Usage: scripts/check.sh [--fast]
#   --fast   skip the sanitizer passes (release build + tests + lint only)
set -euo pipefail

cd "$(dirname "$0")/.."

fast=0
if [[ "${1:-}" == "--fast" ]]; then
  fast=1
fi

jobs="$(nproc 2>/dev/null || echo 4)"

echo "== [1/6] Release build (strict warnings) + tests =="
cmake --preset release >/dev/null
cmake --build --preset release -j "$jobs"
ctest --preset release -j "$jobs"

echo "== [2/6] gorilla_lint (tree + self-test) =="
# Parallel analysis over the whole tree first — the summary line on stderr
# reports wall time, cache hits, and the job count; the DOT artifact and
# warm cache land in build/release for inspection. Then the ctest battery
# (self-test fixtures, layering mini-trees) on top.
./build/release/tools/gorilla_lint/gorilla_lint \
  --jobs "$jobs" \
  --cache build/release/gorilla_lint.cache \
  --dot build/release/include_graph.dot \
  src tools
ctest --test-dir build/release -L lint --output-on-failure

# The memory gate runs in --fast mode too: RSS regressions are exactly the
# kind of change a quick pre-merge pass should catch, and one fig03 run is
# cheap next to the sanitizer builds.
mem_gate() {
  echo "== [mem] fig03 --scale 40 peak-RSS gate =="
  local baseline_kb
  baseline_kb=$(python3 - <<'PY'
import json
best = 0
try:
    with open("BENCH_engine.json") as f:
        doc = json.load(f)
    for run in doc.get("runs", []):
        for e in run.get("entries", []):
            if e.get("bench") == "fig03_amplifier_counts" and e.get("peak_rss_kb"):
                best = e["peak_rss_kb"]  # latest run wins
except (FileNotFoundError, json.JSONDecodeError):
    pass
print(best)
PY
)
  if [[ "$baseline_kb" -eq 0 ]]; then
    echo "   no fig03 peak_rss_kb baseline in BENCH_engine.json — skipping"
    echo "   (run scripts/bench.sh once to record one)"
    return 0
  fi
  local rss_kb
  rss_kb=$(python3 - build/release/bench/fig03_amplifier_counts <<'PY'
import resource, subprocess, sys
rc = subprocess.run([sys.argv[1], "--scale", "40"],
                    stdout=subprocess.DEVNULL).returncode
if rc != 0:
    sys.exit(rc)
print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
PY
)
  local limit_kb=$((baseline_kb + baseline_kb / 10))
  echo "   peak RSS ${rss_kb} KB (baseline ${baseline_kb} KB, limit ${limit_kb} KB)"
  if [[ "$rss_kb" -gt "$limit_kb" ]]; then
    echo "check.sh: FAIL — fig03 peak RSS regressed >10% over the" \
         "BENCH_engine.json baseline" >&2
    exit 1
  fi
}

# Replay-backend gate (runs in --fast mode too — it is one small record +
# two replays): a recorded fig03 study replayed through the detector and
# pcap sinks must render the detector report byte-identically to the same
# sink riding the live bus, and the exported capture must be non-empty.
replay_gate() {
  echo "== [replay] fig03 --scale 4 record -> detector+pcap replay gate =="
  local work
  work="$(mktemp -d)"
  ./build/release/bench/fig03_amplifier_counts --quick --scale 4 \
    --record "$work/study.bin" >/dev/null
  ./build/release/tools/gorilla_replay/gorilla_replay \
    --artifact "$work/study.bin" \
    --sinks detector,pcap --out "$work/replayed" 2>"$work/replay.log"
  ./build/release/tools/gorilla_replay/gorilla_replay \
    --artifact "$work/study.bin" \
    --live --sinks detector --out "$work/live" 2>>"$work/replay.log"
  if ! cmp -s "$work/live/detector.txt" "$work/replayed/detector.txt"; then
    echo "check.sh: FAIL — replayed detector report differs from the live" \
         "bus (see $work)" >&2
    exit 1
  fi
  if [[ ! -s "$work/replayed/attacks.pcap" ]]; then
    echo "check.sh: FAIL — replay produced no pcap capture" >&2
    exit 1
  fi
  echo "   detector report byte-identical live vs replayed;" \
       "pcap $(wc -c <"$work/replayed/attacks.pcap") bytes"
  rm -rf "$work"
}

# Compaction gate (runs in --fast mode too): the same fig03 study recorded
# as GORCOLv3 (default) and as uncompressed GORCOLv2 must show the v3
# artifact at <=60% of the v2 bytes, and replaying the v3 artifact at
# --jobs 1 and --jobs 3 must reproduce the live stdout byte-for-byte —
# the format bump is pure compaction, never a semantic change
# (DESIGN.md §3i).
compaction_gate() {
  echo "== [compaction] fig03 --scale 4 GORCOLv3-vs-v2 size + replay gate =="
  local work
  work="$(mktemp -d)"
  ./build/release/bench/fig03_amplifier_counts --quick --scale 4 \
    --record "$work/v3.study" >"$work/live.txt"
  ./build/release/bench/fig03_amplifier_counts --quick --scale 4 \
    --artifact-version 2 --record "$work/v2.study" >/dev/null
  local v3_bytes v2_bytes limit_bytes
  v3_bytes=$(wc -c <"$work/v3.study")
  v2_bytes=$(wc -c <"$work/v2.study")
  limit_bytes=$((v2_bytes * 60 / 100))
  echo "   v3 ${v3_bytes} B vs v2 ${v2_bytes} B (limit ${limit_bytes} B)"
  if [[ "$v3_bytes" -gt "$limit_bytes" ]]; then
    echo "check.sh: FAIL — GORCOLv3 artifact exceeds 60% of the v2 size" >&2
    exit 1
  fi
  local j
  for j in 1 3; do
    ./build/release/bench/fig03_amplifier_counts --quick --scale 4 \
      --replay "$work/v3.study" --jobs "$j" >"$work/replay$j.txt"
    if ! cmp -s "$work/live.txt" "$work/replay$j.txt"; then
      echo "check.sh: FAIL — GORCOLv3 replay at --jobs $j differs from" \
           "the live stdout (see $work)" >&2
      exit 1
    fi
  done
  echo "   replay stdout byte-identical to live at --jobs 1 and 3"

  local golden=bench/golden/fig03_amplifier_counts
  ./build/release/bench/fig03_amplifier_counts --scale 400 --quick \
    --record "$work/pin.study" 2>/dev/null >"$work/pin_live.txt"
  local want got
  want=$(cut -d' ' -f1 "$golden.study.sha256")
  got=$(sha256sum "$work/pin.study" | cut -d' ' -f1)
  if [[ "$got" != "$want" ]]; then
    echo "check.sh: FAIL — fig03 --scale 400 --quick artifact sha256 $got," \
         "expected $want from $golden.study.sha256 (see $work)" >&2
    exit 1
  fi
  ./build/release/bench/fig03_amplifier_counts --scale 400 --quick \
    --replay "$work/pin.study" 2>/dev/null >"$work/pin_replay.txt"
  local out
  for out in pin_live pin_replay; do
    if ! diff -u "$golden.txt" "$work/$out.txt"; then
      echo "check.sh: FAIL — fig03 $out stdout differs from $golden.txt" >&2
      exit 1
    fi
  done
  echo "   artifact bytes match the pinned sha256; live and replayed stdout" \
       "match $golden.txt"
  rm -rf "$work"
}

# Version-probing gate (runs in --fast mode too: four benches at --scale
# 400 take about a second together).
readvar_gate() {
  echo "== [readvar] version-probing benches vs bench/golden =="
  local b
  for b in tab02_os_strings fig04a_bytes_returned fig04c_version_baf \
           fig10_remediation_compare; do
    if ! "./build/release/bench/$b" --scale 400 --quick 2>/dev/null |
        diff -u "bench/golden/$b.txt" -; then
      echo "check.sh: FAIL — $b stdout differs from bench/golden/$b.txt" >&2
      exit 1
    fi
  done
  echo "   tab02/fig04a/fig04c/fig10 byte-identical to bench/golden"
}

if [[ "$fast" -eq 1 ]]; then
  echo "== [3/6] skipped (--fast) =="
  echo "== [4/6] skipped (--fast) =="
  echo "== [5/6] skipped (--fast) =="
  mem_gate
  replay_gate
  compaction_gate
  readvar_gate
  echo "check.sh: OK (fast)"
  exit 0
fi

echo "== [3/6] ASan+UBSan build + tests =="
cmake --preset asan-ubsan >/dev/null
cmake --build --preset asan-ubsan -j "$jobs"
ctest --preset asan-ubsan -j "$jobs"

echo "== [4/6] fault-injection suite under ASan+UBSan =="
ctest --test-dir build/asan-ubsan -L fault --output-on-failure

echo "== [5/6] TSan build + engine/thread-pool tests =="
cmake --preset tsan >/dev/null
cmake --build --preset tsan -j "$jobs"
ctest --preset tsan -j "$jobs"

mem_gate
replay_gate
compaction_gate
readvar_gate
echo "check.sh: OK"
