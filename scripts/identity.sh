#!/usr/bin/env bash
# identity.sh BASE compares the outputs of the working tree with those of
# the commit BASE. It extracts BASE with git archive, builds djvmbench,
# djvmrun and tcmviz in both trees and runs the same commands with each:
#
#   - djvmbench -all -scale 16, as text and as -csv, without the
#     "-- regenerated" wall-clock lines;
#   - the twelve djvmrun runs of EXPERIMENTS.md's options audit;
#   - the bytes a djvmrun -profile-out run writes, and tcmviz -profile on
#     that file.
#
# The working tree is built as it stands, uncommitted edits included. The
# script exits 1 at the first difference and names the run; 0 when every
# output is byte-identical. Run it as: make identity BASE=<rev>
set -euo pipefail

base=${1:?usage: identity.sh BASE}
root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir -p "$tmp/src" "$tmp/base" "$tmp/head"
git -C "$root" archive "$base" | tar -x -C "$tmp/src"
for cmd in djvmbench djvmrun tcmviz; do
	(cd "$tmp/src" && go build -o "$tmp/base/$cmd" "./cmd/$cmd")
	(cd "$root" && go build -o "$tmp/head/$cmd" "./cmd/$cmd")
done

# same NAME CMD ARGS... runs ./CMD ARGS inside each tree's output
# directory, so relative file names print the same, and compares stdout
# and exit status.
same() {
	local name=$1
	shift
	for tree in base head; do
		local status=0
		(cd "$tmp/$tree" && "./$1" "${@:2}") > "$tmp/$tree.raw" || status=$?
		{ grep -v '^-- regenerated' "$tmp/$tree.raw" || true; echo "exit status $status"; } > "$tmp/$tree.out"
	done
	if ! cmp -s "$tmp/base.out" "$tmp/head.out"; then
		echo "identity: $name differs from $base:"
		diff -u "$tmp/base.out" "$tmp/head.out" | head -n 40
		exit 1
	fi
	echo "identity: $name ok"
}

same "djvmbench -all -scale 16" djvmbench -all -scale 16
same "djvmbench -all -scale 16 -csv" djvmbench -all -scale 16 -csv

while read -r args; do
	# shellcheck disable=SC2086 # args is a list of flags
	same "djvmrun $args" djvmrun $args
done <<'RUNS'
-app kv -scenario phased -policy rebalance -epochs 8 -tcm=false
-app kv -nodes 4 -scenario crash,flaky -recover -policy rebalance -epochs 8 -tcm=false
-app serve -nodes 4 -scenario burst -policy rebalance -epoch 125ms -tcm=false
-app kv -scenario phased -policy rebalance -epoch 10ms -tcm=false -profile-out kv.j2pf
-app kv -scenario phased -policy warmstart -epoch 10ms -tcm=false -profile-in kv.j2pf
-app serve -scenario flaky+burst -protect shed -nodes 4 -rate off -tcm=false
-app serve -scenario crash+burst -recover -nodes 4 -threads 8 -rate off -tcm=false
-app serve -nodes 4 -scenario diurnal -policy rebalance -epoch 125ms -tcm=false
-app bh -threads 16 -rate 4 -stack -footprint -plan
-app sor -threads 8 -rate 4 -seeds 4
-app water -adaptive
-app serve -scenario flaky,burst -protect full -nodes 4 -rate off -tcm=false
RUNS

if ! cmp -s "$tmp/base/kv.j2pf" "$tmp/head/kv.j2pf"; then
	echo "identity: djvmrun -profile-out kv.j2pf bytes differ from $base"
	exit 1
fi
echo "identity: djvmrun -profile-out kv.j2pf bytes ok"
same "tcmviz -profile kv.j2pf" tcmviz -profile kv.j2pf
echo "identity: every output matches $base"
