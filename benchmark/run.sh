#!/usr/bin/env bash
# The distserv benchmark.
#
# Builds the library from source (tests, benches and examples off), installs
# it into build-benchmark/prefix, builds the standalone harness in this
# directory against the installed package (find_package(distserv)), then
# runs one workload:
#
#   bash benchmark/run.sh --workload paper-h2 --seed 1 --seconds 15 --trace 0
#
# The last line of standard output is one JSON object with the keys
# correct, attempted, failed and metrics (end-to-end metrics with --trace 0,
# per-layer metrics with --trace 1). The traced run also writes its spans to
# build-benchmark/trace-<workload>.jsonl.
#
#   bash benchmark/run.sh --smoke
#
# runs the self-tests of the quartile helpers and of compare.py's bound
# verdicts, then every workload at 1/50 scale with 2 reps. It checks each
# output against BENCHMARK.json and runs compare.py on two untraced outputs
# per workload.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
root="$(dirname "$here")"
out="$root/build-benchmark"
bin="$out/harness/distserv_benchmark"

build() {
  mkdir -p "$out/tmp"
  # Compiler temporaries stay inside the checkout.
  export TMPDIR="$out/tmp"
  local jobs gen=()
  jobs="$(nproc 2>/dev/null || echo 2)"
  if (( jobs > 4 )); then jobs=4; fi
  if command -v ninja >/dev/null 2>&1; then gen=(-G Ninja); fi
  # errexit does not apply inside an `||` list, hence the && chain.
  {
    cmake -S "$root" -B "$out/lib" "${gen[@]}" -DCMAKE_BUILD_TYPE=Release \
      -DDISTSERV_BUILD_TESTS=OFF -DDISTSERV_BUILD_BENCH=OFF \
      -DDISTSERV_BUILD_EXAMPLES=OFF -DCMAKE_INSTALL_PREFIX="$out/prefix" &&
      cmake --build "$out/lib" -j "$jobs" &&
      cmake --install "$out/lib" &&
      cmake -S "$here" -B "$out/harness" "${gen[@]}" \
        -DCMAKE_BUILD_TYPE=Release -DCMAKE_PREFIX_PATH="$out/prefix" &&
      cmake --build "$out/harness" -j "$jobs"
  } >"$out/build.log" 2>&1 || {
    tail -n 40 "$out/build.log" >&2
    echo "run.sh: build failed; full log in $out/build.log" >&2
    return 1
  }
}

smoke() {
  local dir="$out/smoke" w t pairs=()
  rm -rf "$dir"
  mkdir -p "$dir"
  "$out/harness/benchmark_selftest"
  python3 "$here/compare_selftest.py"
  for w in paper-h2 argmin-h1024 control-lossy stream-overload; do
    for t in 0 1; do
      "$bin" --workload "$w" --seed 1 --seconds 0 --trace "$t" \
        --scale 0.02 --min-reps 2 --trace-dir "$dir" >"$dir/$w-t$t-a.out"
    done
    "$bin" --workload "$w" --seed 1 --seconds 0 --trace 0 \
      --scale 0.02 --min-reps 2 --trace-dir "$dir" >"$dir/$w-t0-b.out"
    pairs+=("$dir/$w-t0-a.out" "$dir/$w-t0-b.out")
  done
  python3 "$here/compare.py" --check "$dir"/*.out
  python3 "$here/compare.py" "${pairs[@]}"
  echo "smoke: ok"
}

mkdir -p "$out"
# One build at a time per checkout; the runs themselves may overlap.
exec 9>"$out/.build.lock"
flock 9
build
exec 9>&-

if [[ "${1:-}" == "--smoke" ]]; then
  smoke
else
  exec "$bin" --trace-dir "$out" "$@"
fi
