#!/bin/sh
# Exported-surface lint: every `val` declared in lib/**/*.mli must be
# used by some module other than its own (under lib bin bench test
# examples benchmark), or be listed in tools/surface_allowlist.txt as a
# `path value reason` line. Uses are resolved exactly, from the typed
# trees (.cmt) that `dune build @check` writes: a value passes only when
# some other module refers to that very value, not to one of the same
# name (see tools/surface_lint.ml).
#
# Run from anywhere:  sh tools/surface_lint.sh
# Prints the values that only tests use (allowed) on stdout. Exits 1
# and lists the offending values, or the allowlist entries that no
# longer hold, if any are found.
set -eu
cd "$(dirname "$0")/.."
dune build @check ./tools/surface_lint.exe
exec ./_build/default/tools/surface_lint.exe
