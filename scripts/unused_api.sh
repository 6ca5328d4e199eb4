#!/usr/bin/env bash
# Public API nobody calls: every `pub` / `pub(crate)` fn, struct, enum,
# const or type declared in the non-test part of crates/*/src whose name
# appears nowhere but on its own definition line and in its own file's
# `#[cfg(test)]` module. The search covers every `.rs` file in the
# repository outside vendor/ (crates with their tests and benches, tests/,
# examples/, src/ and benchmark/), comments and strings included. A
# definition line of any item of the same name is not a use. Prints
# `file: name` per offender and exits 1 if there is any.
#
# The match is by name, in one pass over the tree. A name that another
# item's test or caller shares (a `new`, a `len`) counts as used, so some
# dead items hide behind a namesake, but an item with a caller is never
# flagged.
#
#   scripts/unused_api.sh
set -euo pipefail
cd "$(dirname "$0")/.."

# An empty listing (outside a git checkout, say) would pass vacuously.
listing=$(git ls-files --cached --others --exclude-standard -- '*.rs' ':!:vendor/' 2>/dev/null) &&
  [ -n "$listing" ] || { echo "unused_api.sh: git ls-files listed no .rs files (not a git checkout?)" >&2; exit 1; }
mapfile -t files <<< "$listing"
awk '
    FNR == 1 { src = FILENAME ~ /^crates\/[^\/]+\/src\//; test = 0 }
    src && /^[ \t]*#\[cfg\(test\)\]/ { test = 1 }
    {
      def = ""
      if (src && !test && match($0, /^[ \t]*pub(\(crate\))?[ \t]+((const|async|unsafe)[ \t]+)*(fn|struct|enum|const|type)[ \t]+[A-Za-z_][A-Za-z0-9_]*/)) {
        def = substr($0, RSTART, RLENGTH)
        sub(/.*[ \t]/, "", def)
        defs[FILENAME, def] = 1
      }
      line = $0
      gsub(/[^A-Za-z0-9_]+/, " ", line)
      n = split(line, w, " ")
      for (i = 1; i <= n; i++) {
        seen[w[i]]++
        if (w[i] == def) ondef[def]++
        else if (test) intest[FILENAME, w[i]]++
      }
    }
    END {
      for (k in defs) {
        split(k, p, SUBSEP)
        if (seen[p[2]] == ondef[p[2]] + intest[k]) { print p[1] ": " p[2]; bad = 1 }
      }
      exit bad
    }' "${files[@]}" | LC_ALL=C sort
