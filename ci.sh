#!/bin/sh
# CI entry point. The gate itself is `make check` (Makefile), which prints
# hoyanlint's findings through `make lint`; this script adds the fuzz
# smoke and the advisory vulnerability scan.
set -eu

make check fuzz-smoke
# govulncheck is advisory when present: the container has no module
# network access, so absence or failure must not gate the build.
if command -v govulncheck >/dev/null 2>&1; then
	govulncheck ./... || echo "govulncheck: advisory, ignoring failure"
else
	echo "govulncheck: not installed, skipping (advisory)"
fi
