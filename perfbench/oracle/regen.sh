#!/usr/bin/env bash
# Regenerates run_all_quick.sha256: the SHA-256 of `pimsim run all` stdout
# at quick scale under direct execution (-tracecache=off), the reference
# path every trace-cache, store and replay mode must reproduce byte for
# byte. Run from the repository root; it takes about 90 s on 2 cores.
set -euo pipefail
out=.bench_build/regen
mkdir -p "$out"
go build -o "$out/pimsim" ./cmd/pimsim
"$out/pimsim" -scale quick -tracecache=off run all | sha256sum | cut -d' ' -f1 > perfbench/oracle/run_all_quick.sha256
cat perfbench/oracle/run_all_quick.sha256
