#!/usr/bin/env bash
# Regenerates EXPERIMENTS.md and runs three checks, each whatever the
# others return, failing if any fails:
#   1. the experiments binary's own gates: it checks every gated cell on
#      the rows it has just computed, names each failed gate on stderr
#      and exits 1;
#   2. the rot diff: every count, verdict, route, width and B&B node
#      count is seeded and deterministic, and only timing cells (plus
#      E15's cpus column and E20's volatile counters) vary by machine,
#      so those are masked on both sides before diffing against the
#      committed copy;
#   3. EXPERIMENTS_HISTORY.md mentions the newest experiment, so a
#      change that adds a table cannot skip its history line.
set -uo pipefail
cd "$(dirname "$0")/.."

regen="$(mktemp)"
trap 'rm -f "$regen"' EXIT
status=0

if ! cargo run -q -p cqcs-bench --release --bin experiments > "$regen"; then
  echo "The experiments binary failed (failed gates are named above)." >&2
  status=1
fi

mask() {
  sed -E 's/[0-9]+\.[0-9]+/<float>/g; s/cpus=[0-9]+/cpus=<n>/g;
          s/(ok|err|retries|reconnects|panics|crashes|accept_faults|client_retries|stale_dropped|faults)=[0-9]+/\1=<n>/g' "$1"
}
if ! diff -u <(mask EXPERIMENTS.md) <(mask "$regen"); then
  echo >&2
  echo "EXPERIMENTS.md is stale. Regenerate it with:" >&2
  echo "  cargo run -p cqcs-bench --release --bin experiments > EXPERIMENTS.md" >&2
  status=1
fi

newest="$(grep -oE '^## E[0-9]+' "$regen" | sed 's/^## //' | sort -V | tail -1)"
if [ -z "$newest" ] || ! grep -q "$newest" EXPERIMENTS_HISTORY.md; then
  echo "EXPERIMENTS_HISTORY.md does not track the ${newest:-newest} timing columns." >&2
  status=1
fi

exit "$status"
