package core

import (
	"fmt"
	"strings"
	"time"
)

// This file is the single renderer of Stats for humans: Format for the
// qfix CLI's report (its only caller), Brief for the dist worker's
// per-job log lines.

// Format renders the stats of a local diagnosis as report lines (no
// prefix, no trailing newline; the CLI adds its "-- " marker).
// Non-verbose output carries only the partition shape; verbose adds
// solver totals, model sizes, the per-phase time split, and
// per-partition breakdowns.
func (s Stats) Format(verbose bool) []string {
	var out []string
	if verbose {
		// Locally only the planning replay is full; each remote worker
		// adds its own planning replay to Replays.
		verify := fmt.Sprintf("%d verified tuple-wise against the one full replay", max(s.Replays-1, 0))
		if s.RemoteJobs > 0 {
			verify = fmt.Sprintf("%d replays and tuple-wise verifications, the workers' included", s.Replays)
		}
		out = append(out,
			fmt.Sprintf("solver: %d nodes, %d LP iterations, %d refactorizations, %d presolved rows, LP exits: %d numerical failures, %d iteration limits; limit stops: %d node, %d time",
				s.Nodes, s.LPIters, s.Refactorizations, s.PresolvedRows, s.LPNumFails, s.LPIterLimits,
				s.NodeLimitStops, s.TimeLimitStops),
			fmt.Sprintf("model: %d rows, %d vars (%d binary); %d batches tried",
				s.Rows, s.Vars, s.Binaries, s.BatchesTried),
			fmt.Sprintf("phases: plan %v (impact %v), encode %v, solve %v, verify %v (%s), merge %v",
				fmtDur(s.PlanTime), fmtDur(s.ImpactTime),
				fmtDur(s.EncodeTime), fmtDur(s.SolveTime),
				fmtDur(s.VerifyTime), verify, fmtDur(s.MergeTime)))
	}
	if s.Partitions > 0 {
		out = append(out, fmt.Sprintf("partitions: %d (fallback to joint solve: %v)",
			s.Partitions, s.PartitionFallback))
	}
	if verbose {
		for _, p := range s.PartitionStats {
			out = append(out, fmt.Sprintf("partition[%d]: complaints=%d candidates=%d queue=%v solve=%v status=%s",
				p.Index, p.Complaints, p.Candidates, fmtDur(p.QueueWait), fmtDur(p.Solve), orDash(p.Status)))
		}
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
