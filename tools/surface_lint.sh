#!/bin/sh
# Exported-surface lint: every `val` declared in lib/**/*.mli must be
# named in some .ml outside its own module (under lib bin bench test
# examples benchmark), or be listed in tools/surface_allowlist.txt as a
# `path value reason` line. The match is by name only, so a value passes
# when some outside .ml mentions its name for another reason.
#
# Run from anywhere:  sh tools/surface_lint.sh
# Exits 1 and lists the offending values, or the allowlist entries that
# no longer hold, if any are found.
set -eu
cd "$(dirname "$0")/.."
allow=tools/surface_allowlist.txt
[ -f "$allow" ] || allow=/dev/null
status=0
flagged=0

# called_outside VALUE OWN_ML: some .ml other than OWN_ML names VALUE.
called_outside() {
  grep -rlw --include='*.ml' -e "$1" lib bin bench test examples benchmark \
    | grep -qvxF "$2"
}

for mli in $(find lib -name '*.mli' | sort); do
  names=$(sed -nE "s/^[[:space:]]*val[[:space:]]+([a-z_][A-Za-z0-9_']*).*/\1/p" "$mli" | sort -u)
  for v in $names; do
    if called_outside "$v" "${mli%.mli}.ml" || grep -qE "^$mli $v " "$allow"; then
      continue
    fi
    echo "$mli: val $v is named in no .ml outside its module" >&2
    flagged=$((flagged + 1))
    status=1
  done
done

# An allowlist entry must give a reason, name a val that still exists,
# and still lack an outside caller, so the list cannot rot.
while read -r path v reason; do
  case "$path" in ''|'#'*) continue ;; esac
  if [ -z "$reason" ]; then
    echo "$allow: entry '$path $v' has no reason" >&2
    status=1
  fi
  if ! grep -qE "^[[:space:]]*val[[:space:]]+$v([[:space:]]|:)" "$path" 2>/dev/null; then
    echo "$allow: '$path $v' is not a val of $path" >&2
    status=1
  elif called_outside "$v" "${path%.mli}.ml"; then
    echo "$allow: '$path $v' has an outside caller; drop the entry" >&2
    status=1
  fi
done < "$allow"

if [ "$flagged" -gt 0 ]; then
  echo "$flagged exported value(s) without an outside caller: use it," \
    "drop it from the .mli, delete it, or allowlist it with a reason" >&2
fi
exit "$status"
