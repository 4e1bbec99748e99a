#!/usr/bin/env bash
# Fusion gate for the model path.
#
# Where the target has a fused multiply-add (arm64, ppc64le, s390x, riscv64),
# the Go compiler may compile x*y + z into one instruction that rounds once
# where the expression as written rounds twice, so a figure computed on the
# model path would differ by platform. The model path wraps every product
# that feeds an add or a subtraction in an explicit float64(…) conversion,
# which forbids the fusion. This script compiles the model packages for
# arm64 and fails on any fused instruction the compiler attributes to a
# line of this repository (inlined standard-library code is not ours to
# pin).
#
# Usage: ci/nofma.sh   (or: make nofma)
set -euo pipefail

cd "$(dirname "$0")/.."
GO=${GO:-go}
pkgs=(./internal/phdist ./internal/model ./internal/queueing)

if ! asm=$(GOARCH=arm64 $GO build -gcflags=-S "${pkgs[@]}" 2>&1); then
	echo "$asm" >&2
	exit 1
fi
# An instruction line reads: offset, decimal offset, (file:line), mnemonic.
# A repo file is named by its absolute path, or by its module path under
# -trimpath. A listing with no repo line at all would pass vacuously.
mod=$(awk '$1 == "module" { print $2; exit }' go.mod)
ours=$(awk -v root="($PWD/" -v mod="($mod/" '
	index($3, root) == 1 || index($3, mod) == 1 {
		p = index($3, root) == 1 ? root : mod
		print substr($3, length(p) + 1, length($3) - length(p) - 1) ": " $4
	}' <<< "$asm")
if [ -z "$ours" ]; then
	echo "nofma: the arm64 listing attributes no instruction to this repo: nothing was checked" >&2
	exit 1
fi
fused=$(grep -E ': (FMADDD|FMSUBD|FNMADDD|FNMSUBD)$' <<< "$ours" | sort -u || true)
if [ -n "$fused" ]; then
	echo "$fused"
	echo "nofma: fused multiply-add on the model path: wrap the product in float64(…)"
	exit 1
fi
echo "nofma: no fused multiply-add in ${pkgs[*]}"
