#!/bin/sh
# Tier-1 gate: build everything, run the full test suite, then a
# bench smoke (tiny sizes/quotas) so bench code cannot bit-rot.
# The T9 line additionally gates the observability layer: it fails if a
# disabled run records anything, if the disabled-mode A/A delta exceeds
# 10% (min-of-5 interleaved estimates per side; see EXPERIMENTS.md on
# why tighter bars sit below the smoke-budget noise floor on shared CI
# hosts), or if the exported trace JSON does not validate.
# The T10 line gates the compiled-query cache: it fails if a cache-on
# page render differs from cache-off, if a warm re-compile records zero
# cache hits, or if the warm speedup drops below 5x.
# The T11 line gates the streaming pipeline: it fails if streaming and
# eager evaluation disagree on any benchmark query, if fewer than two
# early-exit queries clear the speedup bar, or if streaming regresses a
# full-materialisation workload by more than 10%.
# The T12 line gates the value indexes and the join planner: it fails
# if the hash-join or indexed result differs from the nested-loop
# oracle, if the obs counters do not show the accelerated plans
# executing, if too few workloads clear the speedup bar, or if an A/A
# workload (which the planner and index cannot help) regresses by more
# than 10%.
# The T13 line gates the closure compiler: it fails if compiled and
# interpreted evaluation disagree on any benchmark query, if the
# compile counters do not show closure code executing, if fewer than
# two full-materialisation queries clear the speedup bar, or if an
# opaque-fallback workload (which both modes run through the
# tree-walker) regresses by more than 10%.
# The T14 line gates incremental recomputation: it fails if the
# incremental page diverges from the full-recompute oracle (pure and
# updating listeners), if the pure-aggregate speedup or the skip/rerun
# ratio drops below the bar, or if an A/A full-footprint workload
# (where every mutation touches every listener, so nothing can be
# skipped) regresses by more than 20%.
# The T15 line gates the fleet simulator: it fails if two fleets run
# from the same seed diverge in any report field, if a burst arrival
# against a shed threshold sheds nothing or lets the queue depth exceed
# the threshold, or if the migrated workload's p99 is not strictly
# below the server-rendered p99 at the largest fleet.
# The T16 line gates name interning: it fails if the interned and
# ablated modes disagree on any scan result, if re-parsing a document
# grows the global intern table, if no long-name scan clears the
# speedup bar, or if an always-miss dispatch (which exercises only the
# symbol-keyed machinery both modes share) shifts by more than 10%.
# The dom-order line runs the DOM cache differential at its long count
# (50x): it fails if, after any step of a random stream of every DOM
# mutator (detached subtrees mutated and re-inserted included), a
# maintained cache — document-order labels, id and name buckets,
# attribute and text value buckets, block render memos — answers
# differently from a from-scratch rebuild or a fresh render.
# The perfbench line runs the end-to-end benchmark's own tests: it fails
# if one seed does not give the same inputs and the same traced counts
# twice, if a deliberately wrong expectation does not fail ops, or if
# the percentile code misses its known answers.
set -eu
cd "$(dirname "$0")"
dune build @all
dune runtest
dune exec bench/main.exe -- --smoke > /dev/null
dune exec bench/main.exe -- --smoke --only t9 --check --trace /tmp/xqib_trace.json > /dev/null
dune exec bench/main.exe -- --smoke --only t10 --check > /dev/null
dune exec bench/main.exe -- --smoke --only t11 --check > /dev/null
dune exec bench/main.exe -- --smoke --only t12 --check > /dev/null
dune exec bench/main.exe -- --smoke --only t13 --check > /dev/null
dune exec bench/main.exe -- --smoke --only t14 --check > /dev/null
dune exec bench/main.exe -- --smoke --only t15 --check > /dev/null
dune exec bench/main.exe -- --smoke --only t16 --check > /dev/null
QCHECK_LONG=1 dune exec test/test_main.exe -- test dom-order > /dev/null
python3 perfbench/test_perfbench.py > /dev/null
