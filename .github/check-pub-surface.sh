#!/bin/sh
# Public-surface ratchet. For each crate, count the lines above each source
# file's first #[cfg(test)] that declare a public item, and compare the
# count with the crate's line in .github/pub-surface.txt. Any difference
# fails: a count that grows means an item went public without a user outside
# its crate; one that shrinks means the file should be lowered to match.
# Run from the repository root.
status=0
for dir in crates/*/; do
  crate=$(basename "$dir")
  want=$(awk -v c="$crate" '$1 == c { print $2 }' .github/pub-surface.txt)
  have=0
  for f in $(find "$dir/src" -name '*.rs' | sort); do
    n=$(sed '/#\[cfg(test)\]/,$d' "$f" | grep -cE '^\s*pub\s+(fn|struct|enum|trait|const|static|type|mod|use)\b' || true)
    have=$((have + n))
  done
  if [ -z "$want" ]; then
    echo "crates/$crate: $have public declarations, no line in .github/pub-surface.txt"
    status=1
  elif [ "$have" -ne "$want" ]; then
    echo "crates/$crate: $have public declarations, .github/pub-surface.txt says $want"
    status=1
  fi
done
exit $status
