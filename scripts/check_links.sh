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
# current code — the three below and every `//!` / `///` line under
# `crates/*/src` and `src/` — must name a `fn name`, or a field `name:` of
# either visibility, in the crate that defines `Type` (a workspace crate
# under crates/, or a vendor/ shim). `Self::name` resolves against the file
# whose doc comment names it. CHANGES.md and ROADMAP.md are history and may
# name code that has since gone.
code_refs() {
  grep -ohE '`([a-z_]+::)*[A-Z][A-Za-z0-9_]*::[a-z_][a-z0-9_]*(\(|`)' \
    | sed -E 's/^`([a-z_]+::)*//; s/[(`]$//'
}
# One line per distinct reference: "<file> Self::name" for a `Self::` one,
# "- Type::name" for the rest.
ref_list=$(
  {
    cat README.md ARCHITECTURE.md docs/PROTOCOL.md | code_refs | sed 's/^/- /'
    for f in $(grep -rlE '^\s*//[/!]' --include='*.rs' crates/*/src src); do
      grep -E '^\s*//[/!]' "$f" | code_refs | sed -E "s#^Self::#$f Self::#; t; s/^/- /"
    done
  } | sort -u
)
defines() { # defines <name> <path>...: a fn or a field `name` in the paths
  local name=$1
  shift
  grep -rqE "fn $name\b|^\s*(pub(\([^)]*\))?\s+)?$name\s*:([^:]|$)" "$@"
}
refs=0
selfs=0
while read -r where ref; do
  ty=${ref%%::*}
  name=${ref#*::}
  refs=$((refs + 1))
  if [ "$ty" = Self ]; then
    selfs=$((selfs + 1))
    if ! defines "$name" "$where"; then
      echo "$where: \`$ref\` names no fn or field in this file"
      status=1
    fi
    continue
  fi
  srcs=$(grep -rlE "(struct|enum|trait|type) $ty\b" crates/*/src vendor/*/src | sed -E 's#(/src)/.*#\1#' | sort -u)
  if [ -z "$srcs" ] || ! defines "$name" $srcs; then
    echo "docs: \`$ref\` names no fn or field in the crate defining $ty"
    status=1
  fi
done <<< "$ref_list"

if [ "$status" -eq 0 ]; then
  echo "ok: $checked relative link(s) and $refs code reference(s) ($selfs of them Self::) across docs all resolve"
else
  echo "FAIL: broken links or code references found"
fi
exit $status
