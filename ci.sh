#!/bin/sh
# ci.sh — the pre-PR gate (see README.md "Install and run").
#
# Runs the whole verification ladder and stops at the first failure:
# formatting, vet, build, race-enabled tests, the determinism-contract
# lint (cmd/pmlint), a build of every cmd/* binary, and pmtrace smoke
# exports pinned against golden timelines on both engines. The pmfault,
# pmstat and pmtraffic goldens — every pinned campaign, sweep and
# telemetry table, on the sequential and the parallel engine — are
# checked by `go test` (cmd/*/main_test.go), which runs the commands in
# process with the same arguments. A clean exit means the tree is safe
# to ship.
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

echo "== analysis race tests =="
go test -race ./internal/analysis/...

echo "== build cmd binaries =="
bindir=$(mktemp -d)
trap 'rm -rf "$bindir"' EXIT
for d in cmd/*/; do
    go build -o "$bindir/$(basename "$d")" "./$d"
done

echo "== parallel-engine trace equivalence =="
# The psim contract for timelines: --engine par must reproduce the
# sequential campaign export byte for byte.
"$bindir/pmtrace" --campaign link-cut --seed 1 --messages 60 --engine par > "$bindir/pmtrace.out"
if ! cmp -s testdata/pmtrace_link-cut_seed1.golden "$bindir/pmtrace.out"; then
    echo "pmtrace --engine par timeline diverged from testdata/pmtrace_link-cut_seed1.golden" >&2
    exit 1
fi

echo "== pmtrace smoke exports =="
# A comm workload and a fault campaign, traced with a fixed seed; the
# Chrome trace_event exports must match the goldens byte for byte (the
# timeline half of the determinism contract).
"$bindir/pmtrace" --run pingpong --seed 1 > "$bindir/pmtrace.out"
if ! cmp -s "testdata/pmtrace_pingpong_seed1.golden" "$bindir/pmtrace.out"; then
    echo "pmtrace pingpong output diverged from testdata/pmtrace_pingpong_seed1.golden" >&2
    exit 1
fi
"$bindir/pmtrace" --campaign link-cut --seed 1 --messages 60 > "$bindir/pmtrace.out"
if ! cmp -s "testdata/pmtrace_link-cut_seed1.golden" "$bindir/pmtrace.out"; then
    echo "pmtrace link-cut output diverged from testdata/pmtrace_link-cut_seed1.golden" >&2
    exit 1
fi

echo "== pmtrace analytics =="
# The analysis formats share the determinism contract with the exports:
# a utilization series and a two-seed diff, pinned byte for byte.
"$bindir/pmtrace" --run pingpong --format utilization --seed 1 > "$bindir/pmtrace.out"
if ! cmp -s testdata/pmtrace_pingpong_utilization_seed1.golden "$bindir/pmtrace.out"; then
    echo "pmtrace utilization output diverged from testdata/pmtrace_pingpong_utilization_seed1.golden" >&2
    diff testdata/pmtrace_pingpong_utilization_seed1.golden "$bindir/pmtrace.out" >&2 || true
    exit 1
fi
"$bindir/pmtrace" --run pingpong --format diff --seed 1 --seed2 2 > "$bindir/pmtrace.out"
if ! cmp -s testdata/pmtrace_pingpong_diff_seed1_seed2.golden "$bindir/pmtrace.out"; then
    echo "pmtrace diff output diverged from testdata/pmtrace_pingpong_diff_seed1_seed2.golden" >&2
    diff testdata/pmtrace_pingpong_diff_seed1_seed2.golden "$bindir/pmtrace.out" >&2 || true
    exit 1
fi
# A same-seed diff must report a clean alignment.
"$bindir/pmtrace" --run pingpong --format diff --seed 1 --seed2 1 > "$bindir/pmtrace.out"
if ! grep -q "timelines identical" "$bindir/pmtrace.out"; then
    echo "pmtrace same-seed diff reported divergence:" >&2
    cat "$bindir/pmtrace.out" >&2
    exit 1
fi

echo "ci: all checks passed"
