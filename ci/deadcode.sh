#!/usr/bin/env bash
# Reachability gate for dead code under internal/.
#
# The Go linker knows exactly which functions a program can reach, and
# -ldflags=-dumpdep prints its reachability graph as "caller -> callee"
# edges. This script links, with inlining off (so inlined callees still
# show up as edges) and the dump on:
#
#   - every main package under cmd/, examples/ and ci/ (ci/facaderoot
#     calls every export of package dias, so code that only the library
#     API reaches counts as live);
#   - benchmark/, which is its own module.
#
# It unions the dumps, strips generic type arguments and closure and
# method-value suffixes, and fails on
#   - a function or method declared in a non-test file under internal/
#     that no program reaches and ci/unused-allowlist.txt does not name;
#   - an allowlist entry naming a function or method that is reached, or
#     no longer declared, and an entry without a reason;
#   - an export of package dias that ci/facaderoot does not use.
# The allowlist is shared with TestEveryInternalExportHasACaller
# (exports_test.go), which judges its entries that name exported types,
# vars and consts; functions and methods are this script's alone.
#
# Usage: ci/deadcode.sh   (or: make deadcode)
set -euo pipefail

cd "$(dirname "$0")/.."
GO=${GO:-go}
allow=ci/unused-allowlist.txt
root=ci/facaderoot/main.go
mod=$(awk '$1 == "module" { print $2; exit }' go.mod)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
fail=0

# 1. The facade root calls every exported function and method of package
# dias and names every other export: a blank assignment compiles to
# nothing, so only a call keeps the API's code live.
$GO doc -all . | awk '
	/^(const|var) \($/ { group = 1; next }
	group && /^\)/ { group = 0; next }
	group && /^\t[A-Z]/ { split(substr($0, 2), f, /[ =,]/); print f[1], "dias\\." f[1] "\\b"; next }
	/^(const|var|type) [A-Z]/ { split($2, f, /[[ =,]/); print f[1], "dias\\." f[1] "\\b" }
	/^func [A-Z]/ { n = $2; sub(/[[(].*/, "", n); print n, "dias\\." n "\\(" }
	/^func \(/ { n = $0; sub(/^func \([^)]*\) /, "", n); sub(/[[(].*/, "", n); print n, "\\." n "\\(" }
' | sort -u > "$tmp/facade"
while read -r name use; do
	if ! grep -qE -- "$use" "$root"; then
		echo "$root: dias.$name is exported but not used here: call it (behind the run-time guard)"
		fail=1
	fi
done < "$tmp/facade"

# 2. Link every program with the reachability dump on. The linker writes
# the dump to stderr, so a failed build shows its own output instead.
dump="-gcflags=all=-l -ldflags=-dumpdep -o $tmp/bin"
link() {
	if ! "$@" 2> "$tmp/one"; then
		cat "$tmp/one" >&2
		exit 1
	fi
	cat "$tmp/one" >> "$tmp/dump"
}
for pkg in $($GO list -f '{{if eq .Name "main"}}{{.ImportPath}}{{end}}' ./cmd/... ./examples/... ./ci/...); do
	link $GO build $dump "$pkg"
done
link env GOFLAGS=-mod=mod $GO -C benchmark build $dump .

# Every symbol on either side of an edge is reached. Drop generic type
# arguments (innermost brackets first) so an instantiation names its
# declaration, and closure, method-value and go/defer wrapper suffixes so
# they name the function they belong to; keep this module's internal
# symbols.
sed -n 's/ -> /\n/p' "$tmp/dump" |
	sed -E ':a; s/\[[^][]*\]//g; ta' |
	sed -E 's/(\.(func|gowrap|deferwrap)[0-9]+(\.[0-9]+)*|-fm)$//' |
	grep -F "$mod/internal/" | sort -u > "$tmp/reached"

# 3. Every function and method declared in a non-test file under
# internal/, as the linker names it, with its allowlist key and position:
#   func F(           -> dias/internal/pkg.F          pkg.F
#   func (x *T[P]) M( -> dias/internal/pkg.(*T).M     pkg.(*T).M
#   func (x T) M(     -> dias/internal/pkg.T.M        pkg.T.M
id='[A-Za-z0-9_]+'
find internal -name '*.go' -not -name '*_test.go' -not -path '*/testdata/*' -print0 |
	xargs -0 grep -HnE '^func ' | sed -nE \
		-e "s#^((internal/[^:]*)/[^/:]+):([0-9]+):func \(($id )?\*($id)(\[[^]]*\])?\) ($id).*#$mod/\2.(*\5).\7 \1:\3#p" \
		-e "s#^((internal/[^:]*)/[^/:]+):([0-9]+):func \(($id )?($id)(\[[^]]*\])?\) ($id).*#$mod/\2.\5.\7 \1:\3#p" \
		-e "s#^((internal/[^:]*)/[^/:]+):([0-9]+):func ($id).*#$mod/\2.\4 \1:\3#p" |
	grep -v '\.init ' |
	awk '{ key = $1; sub(/^.*\//, "", key); print $1, key, $2 }' | sort > "$tmp/declared"

grep -vE '^[[:space:]]*(#|$)' "$allow" > "$tmp/entries" || true
awk -v f="$allow" 'NF < 2 { print f ": " $1 " has no reason"; bad = 1 } END { exit bad }' "$tmp/entries" || fail=1
awk '{ print $1 }' "$tmp/entries" | sort -u > "$tmp/allowed"

# 4. Unreached declarations must be allowlisted; allowlisted functions and
# methods must be declared and unreached. A plain exported name that is
# not a function (a type, var or const) is the syntactic test's to judge.
unreached=0 allowlisted=0
while read -r sym key where; do
	reached=no
	grep -qxF -- "$sym" "$tmp/reached" && reached=yes
	allowed=no
	grep -qxF -- "$key" "$tmp/allowed" && allowed=yes
	case $reached$allowed in
	noyes)
		unreached=$((unreached + 1))
		allowlisted=$((allowlisted + 1))
		;;
	nono)
		unreached=$((unreached + 1))
		echo "$where: $key is reached by no program: delete it, or add it to $allow with a reason"
		fail=1
		;;
	yesyes)
		echo "$allow: $key is reached now: drop the entry"
		fail=1
		;;
	esac
done < "$tmp/declared"
while read -r key; do
	if ! awk -v k="$key" '$2 == k { found = 1 } END { exit !found }' "$tmp/declared"; then
		case $key in
		*.*.* | *.[a-z_]*)
			echo "$allow: $key is not declared any more: drop the entry"
			fail=1
			;;
		esac
	fi
done < "$tmp/allowed"

echo "deadcode: $(wc -l < "$tmp/declared") functions and methods under internal/, $unreached unreached, $allowlisted of them allowlisted"
exit $fail
