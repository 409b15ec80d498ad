// Package stats provides streaming latency/throughput statistics for NoC
// measurements: per-connection summaries, histograms and percentile
// queries. Everything is deterministic and allocation-light so it can run
// inside cycle loops.
//
// A Histogram is the exact multiset of its samples, stored as ascending
// (value, count) runs: a TDM connection's latency takes a handful of
// values, so memory is 16 bytes per distinct value plus a 2 KiB staging
// buffer, whatever the run length, and Add allocates nothing once the
// values have been met. The worst case, no two samples equal, takes what
// keeping every sample and a sorted copy would. Percentiles are
// nearest-rank and exact. Adding costs one merge pass over the runs per
// 256 samples, so millions of samples that are all distinct are the one
// shape a sort at query time would serve better.
//
// core's per-connection reports and the guarantee auditor both draw
// their latency summaries from these accumulators, so measured numbers
// agree across reporting paths by construction.
package stats
