#!/usr/bin/env bash
# CI entry point: build and test the default (RelWithDebInfo) tree and
# the ASan+UBSan tree, then the threaded tests under TSan and the
# goldens and the cell-formatter oracles under -march=x86-64-v3. The ASan
# pass is what keeps the wire-framing and transport robustness tests
# honest — a buffer overread or UB in the decode path fails the build
# here even when the plain run passes.
set -euo pipefail

cd "$(dirname "$0")/.."

jobs="$(nproc 2>/dev/null || echo 4)"

run_preset() {
    local preset="$1"
    local builddir="$2"
    echo "==== [$preset] configure ===="
    cmake --preset "$preset"
    echo "==== [$preset] build ===="
    cmake --build --preset "$preset" -j "$jobs"
    echo "==== [$preset] test ===="
    ctest --preset "$preset"

    # Batch determinism parity at explicit thread counts beyond the
    # default {1,2,8} matrix: ROSE_BATCH_JOBS adds counts so the
    # serial-vs-parallel bit-equality contract is exercised at both an
    # odd count and one well past this host's core count.
    echo "==== [$preset] batch parity (extra thread counts) ===="
    ROSE_BATCH_JOBS=3,16 "$builddir/tests/test_batch" \
        --gtest_filter='BatchParity.*'

    # Resilience layer, re-run explicitly: checkpoint/resume must stay
    # bit-identical to the goldens, and a multi-threaded batch with a
    # crashing slot must still return results for every other slot.
    echo "==== [$preset] resilience (checkpoint resume + batch isolation) ===="
    "$builddir/tests/test_checkpoint" \
        --gtest_filter='Checkpoint.ResumeMatchesGoldenTraces'
    "$builddir/tests/test_supervisor" \
        --gtest_filter='BatchIsolation.*:Supervisor.RecoversMissionThatAbortsUnsupervised'

    # Mission-frame caches: the byte render matches its libm oracle,
    # the pose scratch stays bit-identical to the fresh path, render,
    # decode and pose run allocation-free in steady state, and weights
    # and schedules are memoized. The allocation-counting assertions skip themselves
    # under the sanitizer preset.
    echo "==== [$preset] mission-frame caches (bit-identity + zero-alloc) ===="
    "$builddir/tests/test_hotpath"

    # Serve smoke: boot rosed on an ephemeral port, submit the golden
    # missions from 4 concurrent clients, and require every served
    # trajectory to hash bit-identically to a local run (the client's
    # `smoke` subcommand exits nonzero on any mismatch). Exercises the
    # whole daemon — listener, framing, admission, worker pool, drain
    # shutdown — under both presets, so ASan/UBSan covers the IO loop.
    echo "==== [$preset] serve smoke (rosed + 4 concurrent clients) ===="
    portfile="$(mktemp)"
    "$builddir/src/serve/rosed" --port 0 --jobs 2 \
        --port-file "$portfile" &
    rosed_pid=$!
    for _ in $(seq 1 100); do
        [ -s "$portfile" ] && break
        sleep 0.1
    done
    [ -s "$portfile" ] || { echo "rosed never published its port"; \
        kill "$rosed_pid" 2>/dev/null; exit 1; }
    "$builddir/src/serve/rose_client" --port "$(cat "$portfile")" \
        smoke --clients 4 --missions 8

    # Streaming smoke on the same daemon: one mission whose trajectory
    # CSV exceeds 8 MiB (larger than any single protocol frame, so its
    # binary records necessarily cross many ResultChunk frames),
    # fetched once; the CSV rendered from the reassembled samples is
    # hash-verified against a local run. Under ASan/UBSan this sweeps
    # the chunked tx path, the record quantizer, and the client-side
    # reassembler.
    echo "==== [$preset] serve streaming smoke (>8 MiB trajectory) ===="
    "$builddir/src/serve/rose_client" --port "$(cat "$portfile")" \
        stream-smoke 2> /dev/null
    "$builddir/src/serve/rose_client" --port "$(cat "$portfile")" \
        shutdown
    wait "$rosed_pid"
    rm -f "$portfile"

    # Chaos smoke: SIGKILL a journaled rosed mid-mission, restart it
    # on the same journal directory, and require idempotent-resubmit
    # dedup plus golden-hash parity of the recovered result. This is
    # the crash-safety acceptance gate, run under both presets so the
    # sanitizers sweep the journal replay and recovery paths too.
    echo "==== [$preset] chaos smoke (SIGKILL + journal recovery) ===="
    ci/chaos_smoke.sh "$builddir/src/serve/rose_client" \
        "$builddir/src/serve/rosed"
}

run_preset default build

# Syscall-count gate (default preset only): a fault-free TCP mission at
# 1 M-cycle sync reads each endpoint's socket once per period and finds
# it empty at most once, in the configure handshake (DESIGN.md 5b,
# "read discipline"). Counts, unlike timings, do not move with host
# noise, so the bounds are tight.
echo "==== [default] TCP read discipline (recv calls per period) ===="
build/examples/mission_runner --soc A --sync-granularity 1000000 --tcp \
    --stats --quiet |
    awk '$1 == "tcp.recvCallsPerPeriod" { per = $2 }
         $1 == "tcp.emptyReads" { empty = $2 }
         END {
             printf "recv calls per period %s, empty reads %s\n", per, empty
             if (per == "" || empty == "" || per + 0 > 2.01 || empty + 0 > 1)
                 exit 1
         }'

# Spec-flag rejection (default preset only, no daemon): a depth outside
# the ResNet zoo, a number with trailing characters and a misspelled
# key must each exit 2 before a mission runs, a daemon is dialed (port
# 1 has no listener, so a dial would exit 1 instead) or rosed binds.
echo "==== [default] CLIs reject bad mission specs (exit 2) ===="
expect_exit2() {
    local rc=0
    "$@" > /dev/null 2>&1 || rc=$?
    if [ "$rc" -ne 2 ]; then
        echo "expected exit 2, got $rc: $*"
        exit 1
    fi
}
expect_exit2 build/examples/mission_runner --depth 7
expect_exit2 build/examples/mission_runner --velocity 3x
expect_exit2 build/src/serve/rose_client --port 1 submit --velocty 3
# rosed's own numeric flags exit 2 before it binds, and the rover
# example's positional velocity is a text-form value too. Every rosed
# job runs supervised, so the retired bare-run flag is an unknown
# option.
expect_exit2 build/src/serve/rosed --jobs 2x
expect_exit2 build/src/serve/rosed --port abc
expect_exit2 build/src/serve/rosed --no-supervise
expect_exit2 build/examples/rover_navigation tunnel 3x

# glibc picks its libm variants at load time (ifunc); masking AVX2,
# FMA and AVX-512 makes it fall back to the non-FMA ones, which return
# different last bits for some log/sin/cos/atan2 inputs. The physics
# and the render's exact path call libm, so this pass pins that no
# golden trajectory depends on which variant glibc chose.
echo "==== [default] goldens under glibc's non-FMA libm ===="
GLIBC_TUNABLES=glibc.cpu.hwcaps=-AVX2,-FMA,-AVX512F \
    build/tests/test_golden

run_preset asan build-asan

# ThreadSanitizer pass over the tests that run missions on several
# threads: the batch runner, the supervisor, the shared caches and
# rosed's IO loop and worker pool. The preset builds and runs only
# these four binaries.
echo "==== [tsan] configure + build + test (batch, supervisor, hotpath, serve) ===="
cmake --preset tsan
cmake --build --preset tsan -j "$jobs"
ctest --preset tsan

# x86-64-v3 pass: the goldens and the batch parity must hash equal in a
# build that lets the compiler use AVX2 and FMA (-ffp-contract=off is
# what keeps a*b+c unfused), and the CSV cell formatter's exact fast
# path must still match its printf("%.6g")/strtod oracles there: its
# exactness argument needs a*10^k and s - trunc(s) to stay unfused.
# test_hotpath pins the byte render's binary32 lanes, eight to a
# register here, to its libm oracle and its kernels to their bounds.
# The preset builds and runs only test_golden, test_batch, test_util,
# test_serve and test_hotpath. A host without the ISA cannot run the
# binaries, so the step says why it skips instead.
echo "==== [x86-64-v3] configure + build + test (golden, batch, util, serve, hotpath) ===="
missing=""
for flag in avx2 fma bmi2 movbe; do
    grep -qw "$flag" /proc/cpuinfo 2>/dev/null || missing="$missing $flag"
done
if [ -n "$missing" ]; then
    echo "skipping the x86-64-v3 pass: this CPU lacks:$missing"
else
    cmake --preset x86-64-v3
    cmake --build --preset x86-64-v3 -j "$jobs"
    ctest --preset x86-64-v3
fi

# Perf smoke (default preset only): re-measure one mission frame —
# the 8-bit render, image decode and pose, end to end and per stage —
# as the median of 9 repetitions, and fail when a median regresses
# >2x against the recorded baseline's. The report (medians with their
# IQRs) goes under build/, so a CI run leaves the tracked
# BENCH_hotpath.json (a deliberate refresh) alone.
# Refresh the baseline with:
#   build/bench/bench_microbench --hotpath --write-baseline=ci/perf_baseline.txt
echo "==== [default] perf-smoke (hot-path regression gate) ===="
build/bench/bench_microbench --hotpath=build/BENCH_hotpath.json \
    --baseline=ci/perf_baseline.txt

echo "==== all presets passed ===="
