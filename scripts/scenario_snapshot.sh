#!/usr/bin/env bash
# Cross-scenario accuracy snapshot: runs `repro scenarios` and writes its
# SignAcc/MAE per (scenario family, model family) cell to a dated JSON
# file, so the accuracy table is diffable across changes. Speed is
# measured by `perfbench`, not here.
#
#   scripts/scenario_snapshot.sh            # writes BENCH_YYYY-MM-DD_scenarios.json
#   scripts/scenario_snapshot.sh out.json   # explicit output path
#
# The parsed line format (`scenario <family> model=<m> sign_acc=.. mae=..
# n=..`) is pinned by crates/bench/tests/scenario_smoke.rs.
set -euo pipefail
cd "$(dirname "$0")/.."

out="${1:-BENCH_$(date +%F)_scenarios.json}"
tmp="$(mktemp -d)"
trap 'rm -rf "$tmp"' EXIT

echo "== cargo run -p rpf-bench -- scenarios ==" >&2
cargo run -q --release -p rpf-bench --offline -- scenarios \
  >"$tmp/scenarios.out" 2>"$tmp/scenarios.err"

scen_json=$(awk -v q='"' '
  /^scenario / {
    family = $2
    model = $3; sub(/^model=/, "", model)
    sa = $4;   sub(/^sign_acc=/, "", sa)
    mae = $5;  sub(/^mae=/, "", mae)
    n = $6;    sub(/^n=/, "", n)
    if (c++) printf ",\n"
    printf "    {%sscenario%s: %s%s%s, %smodel%s: %s%s%s, %ssign_acc%s: %.4f, %smae%s: %.4f, %sn%s: %d}", \
      q, q, q, family, q, q, q, q, model, q, q, q, sa + 0, q, q, mae + 0, q, q, n + 0
  }
  END { if (c) printf "\n" }
' "$tmp/scenarios.out")

# Drift guard: a snapshot is meaningless unless every scenario family
# reported. A missing family means the output format or the family
# enumeration drifted.
for want in IndyCar TyreStrategy CautionRegime WetDry; do
  if ! printf '%s' "$scen_json" | grep -q "\"scenario\": \"$want\""; then
    echo "error: repro scenarios emitted no $want cells; raw output in $tmp kept" >&2
    trap - EXIT
    exit 1
  fi
done

{
  echo "{"
  echo "  \"date\": \"$(date +%F)\","
  echo "  \"git\": \"$(git rev-parse --short HEAD 2>/dev/null || echo unknown)\","
  echo "  \"scenarios\": ["
  printf '%s\n' "$scen_json"
  echo "  ]"
  echo "}"
} >"$out"
echo "wrote $out" >&2
