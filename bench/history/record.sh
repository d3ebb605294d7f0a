#!/bin/sh
# Record the current build's bench artifacts into bench/history/<sha>/.
# Run from anywhere inside the repo after producing the BENCH_*.json files
# (all globbed from the current directory): BENCH_gemm.json and
# BENCH_kernels.json are the kernel tier, BENCH_fig2_*.json the end-to-end
# shared-memory curves (per-dtype variants carry _f32 series names
# inside; record them under distinct --out paths, e.g.
# BENCH_fig2_ge2bnd_f32.json), BENCH_fig3_*/BENCH_fig4_*.json the
# distributed-simulation scaling curves, and BENCH_batched.json the
# batched small-problem serving throughput (problems/sec across
# batch x threads x dtype, bench_batched). perfbench_parent.jsonl and
# perfbench_change.jsonl, the result sets `perfbench/run.py --record FILE`
# appends for the parent and the changed tree, are copied too.
set -eu

repo_root=$(git rev-parse --show-toplevel)
sha=$(git rev-parse --short HEAD)
if ! git diff --quiet || ! git diff --cached --quiet; then
  sha="${sha}-dirty"
fi
dest="${repo_root}/bench/history/${sha}"
mkdir -p "${dest}"

found=0
for f in BENCH_*.json perfbench_parent.jsonl perfbench_change.jsonl; do
  if [ -f "${f}" ]; then
    # Refuse to record artifacts with non-finite numbers: a bench that
    # produced NaN/Inf is broken, and history must stay trustworthy. The
    # pattern anchors on a value position (after : , or [) so field names
    # like "info" never match.
    if grep -Eiq '(:|,|\[)[[:space:]]*-?(nan|inf)' "${f}"; then
      echo "record.sh: ${f} contains NaN/Inf values; refusing to record" >&2
      exit 1
    fi
    cp "${f}" "${dest}/"
    found=1
  fi
done
if [ "${found}" -eq 0 ]; then
  echo "record.sh: no BENCH_*.json or perfbench_*.jsonl in $(pwd);" \
    "run the benches first" >&2
  exit 1
fi

{
  echo "date: $(date -u +%Y-%m-%dT%H:%M:%SZ)"
  echo "uname: $(uname -srm)"
  grep -m1 'model name' /proc/cpuinfo 2>/dev/null || true
} > "${dest}/meta.txt"

echo "recorded $(ls "${dest}" | tr '\n' ' ')-> ${dest}"
