#!/usr/bin/env bash
# Replay the CLI golden commands and check their output byte for byte
# against tests/data/cli_golden.sha256: scan at p = 2, 3, 5, selftest
# with the default cap and with no oracle, the formula-only scan of the
# scale groups, the order-256 and order-512 oracles, the order-4096
# permutation closure, the order-65536 product backing, two metacyclic
# groups, the case ii witness, and the text reports of D8wrC2 and S3 at
# p = 2 without their timing line.
#
#   bash tests/replay_goldens.sh [OUTDIR]
#
# The outputs are written to OUTDIR, a fresh temporary directory when it
# is not given.  Exits nonzero on the first failing command or mismatch.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
out="${1:-$(mktemp -d)}"
cd "$root"
export PYTHONPATH="src${PYTHONPATH:+:$PYTHONPATH}"
lienilp() { python -m lienilp.cli "$@"; }

for p in 2 3 5; do lienilp scan --prime $p --json > "$out/scan_p$p.json"; done
lienilp selftest --json > "$out/selftest.json"
lienilp selftest --cap 0 --json > "$out/selftest_cap0.json"
lienilp scan --prime 2 --no-oracle --json --catalog tests/data/scale.jsonl > "$out/scale.json"
lienilp analyze D8wrC2xC2 --prime 2 --catalog tests/data/oracle256.jsonl --json > "$out/oracle256.json"
lienilp analyze D8wrC2xC4 --prime 2 --oracle --catalog tests/data/oracle512.jsonl --json > "$out/oracle512.json"
lienilp analyze D8wrC2xC4 --prime 2 --catalog tests/data/oracle512.jsonl --json > "$out/oracle512_default_cap.json"
lienilp analyze Syl2S16o4096 --prime 2 --catalog tests/data/table4096.jsonl --json > "$out/table4096.json"
lienilp analyze C512xC128 --prime 2 --catalog tests/data/product65536.jsonl --json > "$out/product65536.json"
lienilp analyze C16sdC4 --prime 2 --catalog tests/data/metacyclic.jsonl --json > "$out/metacyclic_C16sdC4.json"
lienilp analyze C27sdC3 --prime 3 --catalog tests/data/metacyclic.jsonl --json > "$out/metacyclic_C27sdC3.json"
lienilp analyze W64ii --prime 2 --catalog tests/data/case_ii.jsonl --json > "$out/case_ii.json"
lienilp analyze D8wrC2 --prime 2 | grep -v '^  timing' > "$out/analyze_D8wrC2.txt"
lienilp analyze S3 --prime 2 | grep -v '^  timing' > "$out/analyze_S3.txt"
cd "$out" && sha256sum -c "$root/tests/data/cli_golden.sha256"
