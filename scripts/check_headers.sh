#!/usr/bin/env bash
# Compiles every public header under src/ and tools/ as a standalone
# translation unit, so a header that silently leans on its includer's
# #includes fails here instead of in the next refactor.  Headers are
# auto-discovered — a new directory or tool is covered the moment it
# lands, with no list to update.  Run from anywhere; exits non-zero and
# lists the offending headers if any are not self-sufficient.
#
# The same loop also fails any src/ header that nothing outside tests/
# and its own .cpp includes: library code no shipped path reaches
# belongs in tests/support/ (a test-only oracle) or nowhere.  Includers
# are searched in src/, bench/, examples/, perfbench/ and tools/.
#
# Usage: scripts/check_headers.sh [compiler]   (default: c++)
set -u

repo_root="$(cd "$(dirname "$0")/.." && pwd)"
cxx="${1:-c++}"
std="-std=c++20"

failed=()
unreached=()
checked=0
shim="$(mktemp --suffix=.cpp)"
errlog="$(mktemp)"
trap 'rm -f "$shim" "$errlog"' EXIT

while IFS= read -r header; do
  checked=$((checked + 1))
  # A shim TU, not the header itself, so `#pragma once in main file` does
  # not fire.  Strip the include root (src/ headers are included as
  # "sim/foo.h", tools/ headers as "bufq_lint/lint.h").
  rel="${header#"$repo_root"/src/}"
  rel="${rel#"$repo_root"/tools/}"
  printf '#include "%s"\n' "$rel" > "$shim"
  if ! "$cxx" $std -I "$repo_root/src" -I "$repo_root/tools" \
       -Wall -Wextra -Wshadow -Wconversion -Werror \
       -fsyntax-only "$shim" 2>"$errlog"; then
    failed+=("$header")
    echo "FAIL: ${header#"$repo_root"/}"
    sed 's/^/    /' "$errlog"
  fi
  case "$header" in
    "$repo_root"/src/*)
      own_cpp="${header%.h}.cpp"
      if ! grep -rlF --include='*.h' --include='*.cpp' "#include \"$rel\"" \
           "$repo_root/src" "$repo_root/bench" "$repo_root/examples" \
           "$repo_root/perfbench" "$repo_root/tools" 2>/dev/null |
           grep -qvxF "$own_cpp"; then
        unreached+=("$header")
        echo "UNREACHED: ${header#"$repo_root"/} has no includer outside tests/ and its own .cpp"
      fi
      ;;
  esac
done < <(find "$repo_root/src" "$repo_root/tools" -name '*.h' | sort)

status=0
if [ "${#failed[@]}" -ne 0 ]; then
  echo "${#failed[@]} of $checked headers are not self-sufficient."
  status=1
fi
if [ "${#unreached[@]}" -ne 0 ]; then
  echo "${#unreached[@]} src/ headers are reached only from tests/ or their own .cpp."
  status=1
fi
[ "$status" -eq 0 ] || exit 1
echo "All $checked headers compile standalone; every src/ header has a shipped includer."
