#!/usr/bin/env bash
# Docs lint, run by the docs-lint CI job, over every tracked *.md:
#   1. every intra-repo markdown link ([text](path) where path is not a
#      URL or #anchor) resolves to a real file,
#   2. every CMake option() declared at the top level appears in
#      README.md's build-options table,
#   3. every opening code fence carries a language tag (```sh, ```cpp,
#      ```text, ...) so renderers highlight consistently,
#   4. every backticked repo path (`src/...`, `scripts/...`, ...)
#      resolves to a real file, directory, or non-empty glob — stale
#      file references die here instead of in a reader's shell, and
#   5. "N tests" claims agree across the docs, and with the real
#      `ctest -N` total when a configured build directory is given.
#
#   scripts/check_docs.sh [repo-root] [build-dir]
set -euo pipefail

ROOT="$(cd "${1:-$(dirname "${BASH_SOURCE[0]}")/..}" && pwd)"
BUILD_DIR="${2:-}"
fail=0

# The doc set: tracked markdown only (git when available, else a pruned
# find), so build trees and editor droppings never enter the lint.
# SNIPPETS.md is machine-retrieved exemplar material (quoted verbatim
# from other repos) and .claude/ is tooling config — neither is repo
# prose, so neither is linted.  A tracked file deleted from the working
# tree is skipped: the lint reads the tree as it is.
docs() {
  if git -C "$ROOT" rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    git -C "$ROOT" ls-files '*.md' | grep -v -e '^\.claude/' -e '^SNIPPETS\.md$' \
      | sed "s|^|$ROOT/|" | while IFS= read -r doc; do
          if [ -e "$doc" ]; then printf '%s\n' "$doc"; fi
        done
  else
    find "$ROOT" -name '*.md' \
      -not -path '*/build*/*' -not -path '*/.git/*' -not -path '*/.claude/*' \
      -not -name 'SNIPPETS.md'
  fi
}

# --- 1. intra-repo markdown links -----------------------------------------
while IFS= read -r doc; do
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|"#"*|"") continue ;;
    esac
    path="${target%%#*}"
    [ -z "$path" ] && continue
    base="$(dirname "$doc")"
    if [ ! -e "$base/$path" ] && [ ! -e "$ROOT/$path" ]; then
      echo "FAIL broken link in ${doc#"$ROOT"/}: $target" >&2
      fail=1
    fi
  done < <(grep -oE '\]\([^)]+\)' "$doc" | sed -E 's/^\]\(//; s/\)$//; s/ .*//')
done < <(docs)

# --- 2. CMake options documented in README --------------------------------
while IFS= read -r opt; do
  if ! grep -q "$opt" "$ROOT/README.md"; then
    echo "FAIL CMake option $opt not documented in README.md" >&2
    fail=1
  fi
done < <(grep -oE '^option\(BUFQ_[A-Z_]+' "$ROOT/CMakeLists.txt" | sed 's/^option(//')

# --- 3. code fences carry a language tag ----------------------------------
while IFS= read -r doc; do
  while IFS= read -r line_no; do
    echo "FAIL untagged code fence in ${doc#"$ROOT"/}:$line_no (use \`\`\`sh, \`\`\`cpp, \`\`\`text, ...)" >&2
    fail=1
  done < <(awk '
    /^[[:space:]]*```/ {
      if (!open) { if ($0 ~ /^[[:space:]]*```[[:space:]]*$/) print NR; open = 1 }
      else open = 0
      next
    }' "$doc")
done < <(docs)

# --- 4. backticked repo paths exist ---------------------------------------
# Tokens in backticks that look like repo-anchored paths must resolve.
# Globs (*) must match something; tokens with placeholders (<>, {})
# are prose, not paths, and are skipped.
while IFS= read -r doc; do
  while IFS= read -r token; do
    case "$token" in
      *'<'*|*'{'*|*'$'*) continue ;;
    esac
    if [[ "$token" == *'*'* ]]; then
      if ! compgen -G "$ROOT/$token" >/dev/null; then
        echo "FAIL stale path glob in ${doc#"$ROOT"/}: $token matches nothing" >&2
        fail=1
      fi
    # `examples/foo` names the binary built from examples/foo.cpp, so a
    # token also resolves if adding .cpp finds its source.
    elif [ ! -e "$ROOT/$token" ] && [ ! -e "$ROOT/$token.cpp" ]; then
      echo "FAIL stale path in ${doc#"$ROOT"/}: $token does not exist" >&2
      fail=1
    fi
  done < <(grep -oE '`(src|tests|scripts|tools|bench|examples|results)/[A-Za-z0-9_.*{}<>/$-]*`' "$doc" \
           | sed 's/^`//; s/`$//')
done < <(docs)

# --- 5. "N tests" claims are consistent (and real, given a build) ---------
# CHANGES.md is excluded: its per-PR lines record the count *at that PR*
# by design.
# The boundary guard ([^0-9-]) keeps "tier-1 tests" from reading as a
# claim of 1 test.
claims="$(docs | grep -v '/CHANGES\.md$' \
  | xargs grep -hoE '(^|[^0-9-])[0-9]+ tests' 2>/dev/null \
  | grep -oE '[0-9]+' | sort -u)"
if [ "$(echo "$claims" | grep -c . || true)" -gt 1 ]; then
  echo "FAIL docs disagree on the test count: $(echo "$claims" | tr '\n' ' ')" >&2
  fail=1
fi
if [ -n "$BUILD_DIR" ] && [ -n "$claims" ]; then
  actual="$(ctest --test-dir "$BUILD_DIR" -N 2>/dev/null \
    | grep -oE 'Total Tests: [0-9]+' | grep -oE '[0-9]+' || true)"
  if [ -z "$actual" ]; then
    # A build dir was explicitly given, so an unusable one is a failure,
    # not a skip — otherwise CI would silently stop checking the count.
    echo "FAIL build dir '$BUILD_DIR' unusable: ctest -N reported no test total" >&2
    fail=1
  elif [ "$claims" != "$actual" ]; then
    echo "FAIL stale test count: docs say $claims, ctest -N says $actual" >&2
    fail=1
  fi
fi

if [ "$fail" -ne 0 ]; then
  echo "docs lint failed" >&2
  exit 1
fi
echo "docs lint ok"
