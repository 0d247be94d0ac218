#!/usr/bin/env bash
# loc.sh — the net line count: non-test Go lines outside benchmark/, in
# total and per package (directory), over the files git tracks. Prints a
# Markdown table, so CI can append it to the job summary. Reports only;
# it never fails on a count.
#
#   bash scripts/loc.sh
set -euo pipefail
cd "$(git rev-parse --show-toplevel)"

git ls-files -z -- '*.go' ':!:*_test.go' ':!:benchmark/**' |
	xargs -0 wc -l |
	awk '$2 != "total" { pkg = $2; if (!sub(/\/[^\/]*$/, "", pkg)) pkg = "."; n[pkg] += $1 }
		END { for (p in n) print p, n[p] }' |
	sort |
	awk 'BEGIN { print "| package | non-test Go lines |"; print "|---|---:|" }
		{ printf "| %s | %d |\n", $1, $2; sum += $2 }
		END { printf "| **total** (outside benchmark/) | **%d** |\n", sum }'
