#!/bin/sh
# Tier-1 gate: build everything, run the full test suite, then a
# bench smoke (tiny sizes/quotas) so bench code cannot bit-rot.
# The runtest line also holds the §6.1 allocation gate (test_appserver):
# it fails if one request of the Reference 2.0 page, rendered by
# App_server.render_page over a 100-article and a 400-article archive,
# allocates more than 640 words per article at either size, or if the
# 400-article figure exceeds 1.1x the 100-article one (minor words plus
# blocks allocated straight in the major heap, counted exactly, so it
# holds whatever the machine's load).
# The runtest line also holds the aggregate allocation gate
# (test_compile): it fails if one warm run of max(//ref/@year),
# let $r := //ref return max($r/@year), sum(//ref/@year) or
# avg(//ref/@year) over 10 000 <ref year="..."> elements allocates more
# than half the minor words per ref that materialising the path and
# boxing each value took (16.5 for the max forms, 20 for sum and avg),
# or more than 1.1x its figure at 1 000 refs (exact Gc.minor_words).
# The runtest line also holds the soak suite (test_soak): it fails if
# the live words after a full major collection grow more than 1.2x from
# a query building 10 000 computed element names to one building
# 100 000, from 1 000 to 10 000 events of a listener building fresh
# names, or from 1 000 to 10 000 page loads of fresh element and
# attribute names into one tab, so no process-global table may grow
# with the names a long-running browser reads.
# The T8 line gates the DOM acceleration layer: it fails if an
# accelerated result differs from the naive one on any workload, or if
# doc-order (sorted and reversed), following and preceding do not all
# clear the speedup bar (1.5x at the n = 64 smoke size, 5x at n = 10 000).
# The T9 line additionally gates the observability layer: it fails if an
# untraced run records a span, if 10^5 increments of a registry counter
# allocate any minor word (counting is always on, so it must cost no
# allocation), if the untraced A/A delta exceeds 10% (min-of-5
# interleaved estimates per side; see EXPERIMENTS.md on why tighter bars
# sit below the smoke-budget noise floor on shared CI hosts), or if the
# exported trace JSON does not validate. The A/A rows of T11-T14 are
# gated on the same min-of-5 interleaved statistic (Table.min_of_five,
# which T9's gate calls too), with up to three tries.
# The T10 line gates the compiled-query cache: it fails if a cache-on
# page render differs from cache-off, if a warm re-compile records zero
# cache hits, or if the warm speedup drops below 5x.
# The T11 line gates streaming, production's cursor emission: it fails
# if production and the eager reference evaluator disagree on any
# benchmark query, if fewer than two early-exit queries clear the
# speedup bar over the reference, or if production regresses a
# full-materialisation workload by more than 10% against it.
# The T12 line gates the value indexes and the join planner: it fails
# if the hash-join or indexed result differs from the nested-loop
# oracle, if the obs counters do not show the accelerated plans
# executing, if too few workloads clear the speedup bar, or if an A/A
# workload (which the planner and index cannot help) regresses by more
# than 10%.
# The T13 line gates the closure compiler: it fails if production and
# the tree-walking reference disagree on any benchmark query, if the
# compile counters do not show closure code executing, if fewer than
# two full-materialisation queries clear the speedup bar, or if the
# order-by workload (whose cost is the sort both evaluators share)
# regresses by more than 10%.
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
# The dom-order line runs the DOM cache differential at its long count
# (50x): it fails if, after any step of a random stream of every DOM
# mutator (detached subtrees mutated and re-inserted included, and
# children taken out, written and put back where they were), a
# maintained cache — document-order labels, id and name buckets,
# attribute and text value buckets, block render memos patched after
# writes — answers differently from a from-scratch rebuild or a fresh
# render, or if a write the DOM refuses changes any tree.
# The dom-contract line runs the JavaScript/XQuery differential at its
# long count (20x): it fails if, after any op of a random edit script
# (append a new element or move a node, move a node before itself,
# insert before, remove, replace, set an attribute, rename, set text)
# run over a random page once as JavaScript DOM calls and once as
# XQuery updates, the two documents serialize differently, the DOM
# refused the op in one language only, or a refused op changed the
# document.
# The compile line runs the evaluator differential at its long count
# (20x): it fails if, on any generated query — top-level updates and
# transforms, sequential functions with declare/set/while/break/
# continue/exit with, typeswitch, planner hash joins, two-key order-by
# with empty greatest/least, paths (over several nodes out of document
# order, with duplicates, on a reverse axis, or over an atomic),
# predicates, FLWORs, constructor content mixing attributes, atomics,
# text and elements across parts, counts of ranges, and min, max, sum
# and avg of paths over untyped numerals (NaN, INF, both zeros, bad and
# out-of-range ones, read from attributes, child elements and text,
# from one node, a variable holding duplicates or nodes out of
# document order, or a lhs under a focus proven sorted, such as
# $d/sum(.//*/descendant::text()), alone or mixed with numeric, anyURI
# and string atomics) — production and the reference evaluator differ in value,
# error code or the document left behind.
# The xmlb line runs the parser differential at its long count (50x):
# it fails if, on any generated document or byte mutation of a real
# page (the perfbench page-load and click pages, the scenario and
# examples/ pages), under either uppercase_tags setting, the parser and
# the line-and-column-tracking oracle it replaced differ in the tree
# (QName prefix, URI and local name, attribute order, text) or in the
# Parse_error's line, column and message.
# The parse-build line runs the parser's DOM builder differential at
# its long count (50x): it fails if, on any generated document or byte
# mutation of the pages the xmlb line uses, under either uppercase_tags
# setting, Dom.of_string and Dom.of_tree of Xml_parser.parse differ in
# node kinds, names (prefix, URI, local name), attribute order or text,
# or in the Parse_error one of them raises; or if, right after the
# build, the labels the builder gave do not increase in document order
# or compare_order disagrees with compare_order_naive. The same suite
# fails if the densest inputs (boolean attributes, runs of empty
# elements, one-entity texts, empty CDATA sections) push a label out of
# range, if a parsed tree's first probe builds labels, or if going from
# source bytes to a probed DOM allocates more than 4.8 minor words per
# byte or more than 1.2x at 2 000 items its figure at 200.
# The serialize line runs the node serializer differential at its long
# count (50x): it fails if, on any random DOM (default, prefixed and
# redeclared namespaces, script and style elements, comments and PIs,
# standalone attributes, documents with several children), indented or
# not, Dom.serialize and the tree serializer it replaced
# (test/xml_serializer_oracle.ml) write different bytes; or if
# serializing a page allocates more than one minor word per output
# byte.
# The renderer line runs the renderer's tests with the vocabulary
# property at its long count (50x): it fails if, on any generated page
# over every tag the renderer knows (mixed-case names, inputs of each
# type, buttons with nested markup and newlines, images, links, tables,
# pre, rules, breaks and the skipped elements) with hidden styles,
# words longer than the width and tabs, CRs and form feeds in text, at
# a random width (0 included) and show_hidden, with a list long enough
# to be kept in chunks, render or the text of render_cached's frame
# differs from the from-scratch oracle — after each run of writes (new
# blocks inserted first or before a block sibling among them, and
# children of the list written while out of the tree or under another
# parent, then put back), so patched memos and reused one-leaf blocks
# are both checked — or a frame taken before a run of writes no longer
# reads the oracle's text of the document it was taken from, or a
# render with no write between returns another frame; or if a cold
# render of a 2 000-item page allocates more than 35 minor words per
# element or more than 1.2x its figure at 200 items; or if a buy-shaped
# write and render at a 5 000-item cart costs more than 1.2x the
# elements rendered, the minor words or the words allocated in all
# (minor words and words allocated straight in the major heap, where
# a page-sized string would land) of one at a 500-item cart, or the
# text of its last frame copies out more than 1.2x the leaves.
# The data-model line runs the data model's properties at their long
# count (20x): it fails if a cast at any target type, castable, an
# arithmetic operator, negate, a value comparison, an effective boolean
# value, a singleton helper, union/intersect/except or fn:number's
# reading, on values from an edge pool (empty and special strings, both
# zeros, the int range's ends, NaN, huge durations, invalid dates,
# nodes mixed with atomics), raises anything but an Xq_error.Error with
# a data-model code; or if a string of digits, signs, dots, e, x, _,
# INF, NaN and blanks casts to xs:integer, xs:decimal or xs:double
# other than exactly when it matches that type's XML Schema 1.0 regular
# expression; or if, on a numeral with 1-15, 16-18 or 19 and more
# significant digits, leading and trailing zeros, an exponent from -400
# to +400, a sign and blanks (or one with a character changed), the
# one-pass numeral scanner and the two-pass reader it replaced
# (test/numeral_oracle.ml) differ in which strings each form accepts,
# in the double's bits or in the integer's value or FOCA0003.
# The prolog line runs the page-prolog tests with the broken-scripts
# property at its long count (20x): it fails if a page drawn from
# scripts that each declare a function and an alerting global (some
# ending in a syntax error after their declarations, some importing a
# library module from a host that is up or down, some declaring first
# a global whose initializer raises) and the same page
# without its failing scripts differ in the alerts (each initializer
# once, in order), the final body or the page context's static-context
# fingerprint, or if any but the failing scripts record an error.
# The catch-all line fails if an .ml file under lib/ has an exception
# handler that catches every exception: a `_` case of `try … with` or
# an `exception _` case of a `match`, or a case binding every exception
# to a variable (`with e ->`, `exception e ->`) whose body does not
# re-raise it (tools/catch_all.ml reads the parse tree, so a `_` case of
# a match over a value passes).
# The CLI lines run xqib on a one-element page, once without flags and
# once with each of its five --no-* flags, and read the *-enabled
# attributes browser:stats() writes for the six fields of the ablation
# record (lib/xmlb/ablation.ml): they fail unless the run without flags
# reads every field on and each flag turns off exactly its own field.
# The --metrics line fails unless `xqib eval --metrics` prints the
# counter registry as JSON with at least one counted eval.steps.
# The perfbench line runs the end-to-end benchmark's own tests: it fails
# if one seed does not give the same inputs and the same traced counts
# twice, if a deliberately wrong expectation does not fail ops, or if
# the percentile code misses its known answers.
# Temporary files (T9's trace, the CLI lines' page) go in a directory
# of their own, made by mktemp -d and removed on exit, so runs on one
# host do not collide.
set -eu
cd "$(dirname "$0")"
tmpdir=$(mktemp -d)
trap 'rm -rf "$tmpdir"' EXIT
trap 'exit 1' INT TERM
dune build @all
dune runtest
dune exec bench/main.exe -- --smoke > /dev/null
dune exec bench/main.exe -- --smoke --only t8 --check > /dev/null
dune exec bench/main.exe -- --smoke --only t9 --check --trace "$tmpdir/trace.json" > /dev/null
dune exec bench/main.exe -- --smoke --only t10 --check > /dev/null
dune exec bench/main.exe -- --smoke --only t11 --check > /dev/null
dune exec bench/main.exe -- --smoke --only t12 --check > /dev/null
dune exec bench/main.exe -- --smoke --only t13 --check > /dev/null
dune exec bench/main.exe -- --smoke --only t14 --check > /dev/null
dune exec bench/main.exe -- --smoke --only t15 --check > /dev/null
QCHECK_LONG=1 dune exec test/test_main.exe -- test dom-order > /dev/null
QCHECK_LONG=1 dune exec test/test_main.exe -- test dom-contract > /dev/null
QCHECK_LONG=1 dune exec test/test_main.exe -- test compile > /dev/null
QCHECK_LONG=1 dune exec test/test_main.exe -- test xmlb > /dev/null
QCHECK_LONG=1 dune exec test/test_main.exe -- test parse-build > /dev/null
QCHECK_LONG=1 dune exec test/test_main.exe -- test serialize > /dev/null
QCHECK_LONG=1 dune exec test/test_main.exe -- test renderer > /dev/null
QCHECK_LONG=1 dune exec test/test_main.exe -- test data-model > /dev/null
QCHECK_LONG=1 dune exec test/test_main.exe -- test prolog > /dev/null
dune exec tools/catch_all.exe -- lib/*/*.ml
printf '<html/>' > "$tmpdir/page.html"
ablation_fields() {
  dune exec bin/xqib_cli.exe -- page "$tmpdir/page.html" "$@" --query \
    "for \$a in browser:stats()/@*[ends-with(local-name(), '-enabled')]
     where local-name(\$a) ne 'trace-enabled'
     return concat(local-name(\$a), '=', \$a)" | grep -e '-enabled=' | tr '\n' ' '
}
all_on="acceleration-enabled=true value-index-enabled=true \
join-planning-enabled=true compiled-eval-enabled=true query-cache-enabled=true \
incremental-enabled=true "
got=$(ablation_fields)
[ "$got" = "$all_on" ] || { echo "CLI FAIL: no flags: got '$got'" >&2; exit 1; }
for pair in no-query-cache:query-cache no-value-index:value-index \
  no-join-planner:join-planning no-compiled-eval:compiled-eval \
  no-incremental:incremental; do
  flag=${pair%%:*}
  field=${pair#*:}
  want=$(printf '%s' "$all_on" | sed "s/ $field-enabled=true / $field-enabled=false /")
  got=$(ablation_fields "--$flag")
  [ "$got" = "$want" ] || { echo "CLI FAIL: --$flag: got '$got'" >&2; exit 1; }
done
dune exec bin/xqib_cli.exe -- eval --metrics 'count(<a><b/></a>/b)' 2>/dev/null | tail -n 1 |
  python3 -m json.tool | python3 -c 'import json, sys; assert json.load(sys.stdin)["counters"]["eval.steps"] >= 1' ||
  { echo "CLI FAIL: --metrics" >&2; exit 1; }
python3 perfbench/test_perfbench.py > /dev/null
