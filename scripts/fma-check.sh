#!/usr/bin/env bash
# fma-check.sh — no fused multiply-add in any vulfi function, on any
# target that could fuse one.
#
# The Go specification lets a compiler fuse x*y + z into one fused
# multiply-add, which rounds once where amd64 rounds twice. Go does so
# on arm64, ppc64le, s390x and riscv64, so a fused product in input
# generation or statistics would make a benchmark input or a study
# statistic depend on the host architecture. An explicit conversion
# (float32(x*y), float64(x*y)) forces the rounding and stops the
# fusion; math.FMA is the way to ask for a fused operation on purpose.
#
# The script cross-compiles ./cmd/... and the test binary of every
# package of the root module (go test -c, one package at a time; the
# bench/ module is not scanned) for each of those targets (the
# toolchain needs no download for it), disassembles the binaries with
# `go tool objdump`, and lists every vulfi/ function holding a fused
# multiply-add instruction. A test that computes an expected value with
# a fused product and compares it exactly with the program's twice-
# rounded one would fail on those hosts, so test code is held to the
# same rule. It exits 1 when it finds any.
#
#   scripts/fma-check.sh     (binaries go to a temporary directory)
set -euo pipefail
cd "$(dirname "$0")/.."
outdir=$(mktemp -d)
trap 'rm -rf "$outdir"' EXIT

# Fused multiply-add mnemonics as go tool objdump prints them:
# FMADD/FMSUB/FNMADD/FNMSUB with an optional S/D suffix (arm64,
# ppc64le, riscv64, s390x) and s390x's vector forms (WFMADB, VFMA, ...).
fused='[[:space:]](FN?M(ADD|SUB)[SD]?|[VW]FN?M[AS][A-Z]*)[[:space:]]'

found=0
for arch in arm64 ppc64le s390x riscv64; do
  mkdir -p "$outdir/$arch"
  GOOS=linux GOARCH=$arch go build -o "$outdir/$arch/" ./cmd/...
  for pkg in $(go list -f '{{if or .TestGoFiles .XTestGoFiles}}{{.ImportPath}}{{end}}' ./...); do
    GOOS=linux GOARCH=$arch go test -c -o "$outdir/$arch/${pkg//\//_}.test" "$pkg"
  done
  hits=$(for bin in "$outdir/$arch"/*; do go tool objdump "$bin"; done | awk -v re="$fused" '
    /^TEXT / { fn = $2 }
    fn ~ /^vulfi\// && $0 ~ re { print fn "  " $1 }' | sort -u)
  rm -rf "${outdir:?}/$arch"
  if [ -n "$hits" ]; then
    found=1
    echo "$arch:"
    echo "$hits" | sed 's/^/  /'
  fi
done
if [ "$found" = 1 ]; then
  echo "fused multiply-add in vulfi code: round the product explicitly (float64(x*y) + z)" >&2
  exit 1
fi
echo "no fused multiply-add in vulfi code on arm64, ppc64le, s390x or riscv64"
