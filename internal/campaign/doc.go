// Package campaign is the experiment-campaign engine behind the full
// evaluation matrix: it expands a declarative Spec (schemes x benchmarks x
// seeds x budget) into independent jobs, executes them on a fixed set of
// workers that claim jobs one at a time, with per-job panic recovery and
// wall-time capture, journals every
// completed job to an append-only JSONL file so an interrupted campaign can
// be resumed without re-running finished work, and folds the journal back
// into the report matrices that render the paper's figures.
//
// Determinism: each job derives its simulation seed from the campaign seed
// and the benchmark name alone (not the scheme), so every scheme column of
// a benchmark row replays the same access stream — the paired-comparison
// methodology the paper's normalized figures assume — and the aggregated
// matrix is bit-identical regardless of worker count or completion order,
// because aggregation places results by job index, never by arrival.
package campaign
