#!/usr/bin/env bash
# Checks that every `go test … -run '<A|B|…>' <packages>` selector in a
# workflow file still names tests: each alternative must match at least one
# test that `go test -list` finds in the selector's packages. A test that is
# renamed, merged or deleted otherwise drops out of its CI step silently,
# and the step stays green while running less.
#
# Usage (from the repository root): .github/check-run-selectors.sh [workflow.yml]
set -euo pipefail

workflow=${1:-.github/workflows/ci.yml}
failed=0
while IFS= read -r line; do
	selector=$(sed -E "s/.*-run '([^']*)'.*/\1/" <<<"$line")
	[ "$selector" = '^$' ] && continue
	rest=${line#*"-run '$selector'"}
	pkgs=$(tr ' ' '\n' <<<"$rest" | grep -E '^\.(/|$)' || true)
	if [ -z "$pkgs" ]; then
		echo "no packages after -run '$selector': $line"
		failed=1
		continue
	fi
	IFS='|' read -ra alts <<<"$selector"
	for alt in "${alts[@]}"; do
		# shellcheck disable=SC2086 # one word per package
		listed=$(go test -list "$alt" $pkgs)
		if ! grep -qE '^(Test|Benchmark|Fuzz|Example)' <<<"$listed"; then
			echo "-run alternative '$alt' names no test in" $pkgs
			failed=1
		fi
	done
done < <(grep -E "go test .*-run '" "$workflow")
exit $failed
