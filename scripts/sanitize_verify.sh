#!/usr/bin/env bash
# Tier-1 verify under sanitizers (CMake option NSE_SANITIZE).
#
#   scripts/sanitize_verify.sh [build-dir]          ASan+UBSan, full
#       test suite — the transfer engine's floating-point byte
#       accounting is exercised with memory and UB checking on.
#   scripts/sanitize_verify.sh thread [build-dir]   TSan over the
#       concurrency-bearing tests: the replay runner pool and the
#       decoded dispatch cache. The server event loop and the
#       edge-cache tier run on one thread; their suites stay in the
#       subset so that a thread added to either runs under TSan.
set -euo pipefail
cd "$(dirname "$0")/.."

MODE=address
if [ "${1:-}" = "thread" ] || [ "${1:-}" = "address" ]; then
    MODE="$1"
    shift
fi

if [ "$MODE" = "thread" ]; then
    BUILD_DIR="${1:-build-tsan}"
    cmake -B "$BUILD_DIR" -S . -DNSE_SANITIZE=thread \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build "$BUILD_DIR" -j -- runner_test server_test \
          decoded_test cache_tier_test
    ctest --test-dir "$BUILD_DIR" --output-on-failure \
          -R '^(runner_test|server_test|decoded_test|cache_tier_test)$' \
          -j
else
    BUILD_DIR="${1:-build-asan}"
    cmake -B "$BUILD_DIR" -S . -DNSE_SANITIZE=ON \
          -DCMAKE_BUILD_TYPE=RelWithDebInfo
    cmake --build "$BUILD_DIR" -j
    ctest --test-dir "$BUILD_DIR" --output-on-failure -j
fi
