#!/usr/bin/env bash
# Link-checks the repo's hand-written docs: every relative markdown link
# (`](path)` / `](path#anchor)`) must point at a file or directory that
# exists, resolved against the linking document's own directory. External
# (http/https/mailto) and pure-anchor (#…) links are skipped. Backticked
# `Type::name` code references must resolve too (see below). Exits
# non-zero listing every broken link and reference. Run from anywhere; CI
# runs it as the docs job's last step.
set -u
cd "$(dirname "$0")/.."

DOCS="README.md ARCHITECTURE.md docs/PROTOCOL.md CHANGES.md ROADMAP.md vendor/README.md"
status=0
checked=0

for doc in $DOCS; do
  if [ ! -f "$doc" ]; then
    echo "MISSING DOC: $doc"
    status=1
    continue
  fi
  dir=$(dirname "$doc")
  # Pull out `](target)` occurrences; strip the wrapper and any #anchor.
  # Pure-anchor links (`](#…)`) never match because the target must start
  # with a non-# character.
  targets=$(grep -oE '\]\([^)#][^)]*\)' "$doc" | sed -E 's/^\]\(([^)#]+)(#[^)]*)?\)$/\1/' | sort -u)
  for target in $targets; do
    case "$target" in
      http://*|https://*|mailto:*) continue ;;
    esac
    checked=$((checked + 1))
    if [ ! -e "$dir/$target" ]; then
      echo "$doc: broken relative link -> $target"
      status=1
    fi
  done
done

# Code references: every backticked `Type::name` (optionally path-prefixed,
# optionally called, as in `Store::get()`) in the docs that describe the
# current code — the three below and the crate docs in `src/lib.rs` and
# `crates/*/src/lib.rs` — must name a `fn name`, or a `pub name:` field, in
# the crate that defines `Type` (a workspace crate under crates/, or a
# vendor/ shim). CHANGES.md and ROADMAP.md are history and may name code
# that has since gone.
refs=0
for ref in $(grep -ohE '`([a-z_]+::)*[A-Z][A-Za-z0-9_]*::[a-z_][a-z0-9_]*(\(|`)' \
    README.md ARCHITECTURE.md docs/PROTOCOL.md src/lib.rs crates/*/src/lib.rs \
    | sed -E 's/^`([a-z_]+::)*//; s/[(`]$//' | sort -u); do
  ty=${ref%%::*}
  name=${ref#*::}
  refs=$((refs + 1))
  srcs=$(grep -rlE "(struct|enum|trait|type) $ty\b" crates/*/src vendor/*/src | sed -E 's#(/src)/.*#\1#' | sort -u)
  if [ -z "$srcs" ] || ! grep -rqE "fn $name\b|pub $name:" $srcs; then
    echo "docs: \`$ref\` names no fn or field in the crate defining $ty"
    status=1
  fi
done

if [ "$status" -eq 0 ]; then
  echo "ok: $checked relative link(s) and $refs code reference(s) across docs all resolve"
else
  echo "FAIL: broken links or code references found"
fi
exit $status
