package core

import (
	"fmt"
	"strings"
	"time"
)

// This file is the single renderer of Stats for humans. `qfix` (both
// the default and -v output), the dist worker's per-job log lines, and
// anything else that wants to narrate a diagnosis all format through
// here, so the same statistic never prints two different ways.

// Format renders the stats as report lines (no prefix, no trailing
// newline; the CLI adds its "-- " marker). Non-verbose output includes
// only the lines a casual run cares about — impact-cache wins,
// partition/remote shape; verbose adds solver totals, model sizes, the
// per-phase time split, and per-partition breakdowns.
func (s Stats) Format(verbose bool) []string {
	var out []string
	if s.ImpactCacheHits > 0 {
		out = append(out, fmt.Sprintf("impact cache: %d hits (%d incremental extends)",
			s.ImpactCacheHits, s.ImpactCacheExtends))
	}
	if verbose {
		out = append(out,
			fmt.Sprintf("solver: %d nodes, %d LP iterations, %d refactorizations, %d presolved rows, LP exits: %d numerical failures, %d iteration limits; limit stops: %d node, %d time",
				s.Nodes, s.LPIters, s.Refactorizations, s.PresolvedRows, s.LPNumFails, s.LPIterLimits,
				s.NodeLimitStops, s.TimeLimitStops),
			fmt.Sprintf("model: %d rows, %d vars (%d binary); %d batches tried",
				s.Rows, s.Vars, s.Binaries, s.BatchesTried),
			fmt.Sprintf("phases: plan %v (impact %v), encode %v, solve %v, verify %v (%d full replays), merge %v",
				fmtDur(s.PlanTime), fmtDur(s.ImpactTime),
				fmtDur(s.EncodeTime), fmtDur(s.SolveTime),
				fmtDur(s.VerifyTime), s.Replays, fmtDur(s.MergeTime)))
	}
	if s.Partitions > 0 {
		out = append(out, fmt.Sprintf("partitions: %d (fallback to joint solve: %v)",
			s.Partitions, s.PartitionFallback))
	}
	if verbose {
		for _, p := range s.PartitionStats {
			line := fmt.Sprintf("partition[%d]: complaints=%d candidates=%d queue=%v solve=%v status=%s",
				p.Index, p.Complaints, p.Candidates, fmtDur(p.QueueWait), fmtDur(p.Solve), orDash(p.Status))
			if p.Remote || p.Attempts > 0 {
				line += fmt.Sprintf(" worker=%s attempts=%d", orDash(p.Worker), p.Attempts)
			}
			out = append(out, line)
		}
	}
	if s.RemoteJobs > 0 || s.StreamedResults > 0 || s.WorkerCacheHits > 0 {
		out = append(out, fmt.Sprintf("remote jobs: %d of %d partitions (%d streamed over mux; rest solved locally; worker cache hits: %d)",
			s.RemoteJobs, s.Partitions, s.StreamedResults, s.WorkerCacheHits))
	}
	return out
}

// Brief renders the stats as one key=value line — the form the dist
// worker appends to its per-job log entries.
func (s Stats) Brief() string {
	parts := []string{
		fmt.Sprintf("status=%s", orDash(s.LastStatus)),
		fmt.Sprintf("nodes=%d", s.Nodes),
		fmt.Sprintf("lp=%d", s.LPIters),
		fmt.Sprintf("plan=%v", fmtDur(s.PlanTime)),
		fmt.Sprintf("encode=%v", fmtDur(s.EncodeTime)),
		fmt.Sprintf("solve=%v", fmtDur(s.SolveTime)),
		fmt.Sprintf("verify=%v", fmtDur(s.VerifyTime)),
		fmt.Sprintf("replays=%d", s.Replays),
	}
	if s.ImpactCacheHits > 0 {
		parts = append(parts, fmt.Sprintf("impacthits=%d", s.ImpactCacheHits))
	}
	return strings.Join(parts, " ")
}

// fmtDur rounds for humans: sub-millisecond values keep microseconds,
// everything else rounds to milliseconds.
func fmtDur(d time.Duration) time.Duration {
	if d < time.Millisecond {
		return d.Round(time.Microsecond)
	}
	return d.Round(time.Millisecond)
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
