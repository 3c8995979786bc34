#!/bin/sh
# ci.sh — the pre-PR gate (see README.md "Install and run").
#
# Runs the whole verification ladder and stops at the first failure:
# formatting, vet, build, race-enabled tests, the determinism-contract
# lint (cmd/pmlint) and a build of every cmd/* binary. Every golden
# under testdata/ — the pmfault, pmstat, pmtraffic and pmtrace outputs,
# on the sequential and the parallel engine — is checked by `go test`
# (cmd/*/main_test.go), which runs the commands in process with the
# pinned arguments. A clean exit means the tree is safe to ship.
set -eu

cd "$(dirname "$0")"

echo "== gofmt =="
unformatted=$(gofmt -l .)
if [ -n "$unformatted" ]; then
    echo "gofmt needed on:" >&2
    echo "$unformatted" >&2
    exit 1
fi

echo "== go vet =="
go vet ./...

echo "== go build =="
go build ./...

echo "== go test -race =="
go test -race ./...

echo "== pmlint =="
go run ./cmd/pmlint ./...

echo "== pmlint shard-safety report =="
# The audit that gates the parallel simulation engine: every internal/
# package classified, byte-identical across runs, pinned as a golden.
# Regenerate deliberately with:
#   go run ./cmd/pmlint --report ./... > internal/analysis/testdata/pmlint_report.golden
reportout=$(mktemp)
go run ./cmd/pmlint --report ./... > "$reportout"
if ! cmp -s internal/analysis/testdata/pmlint_report.golden "$reportout"; then
    echo "pmlint --report diverged from internal/analysis/testdata/pmlint_report.golden:" >&2
    diff internal/analysis/testdata/pmlint_report.golden "$reportout" >&2 || true
    rm -f "$reportout"
    exit 1
fi
rm -f "$reportout"

echo "== build cmd binaries =="
bindir=$(mktemp -d)
trap 'rm -rf "$bindir"' EXIT
for d in cmd/*/; do
    go build -o "$bindir/$(basename "$d")" "./$d"
done

echo "ci: all checks passed"
