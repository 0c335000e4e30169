package core

import (
	"repro/internal/query"
	"repro/internal/relation"
)

// Verifier runs the verification a diagnosis runs on its candidate
// repairs, against the dirty replay of its log.
type Verifier struct{ d *diagnoser }

// NewVerifier replays log from d0 as Diagnose does, for complaints.
func NewVerifier(d0 *relation.Table, log []query.Query, complaints []Complaint) (*Verifier, error) {
	d := &diagnoser{d0: d0, log: log, complaints: complaints, plan: &plan{hist: new(query.History)}}
	var err error
	d.dirtyFinal, err = d.hist.Replay(log, d0)
	return &Verifier{d}, err
}

// DirtyFinal is the final state of the dirty replay.
func (v *Verifier) DirtyFinal() *relation.Table { return v.d.dirtyFinal }

// Verified is one candidate's verification.
type Verified struct {
	OK   bool             // the candidate replays
	Rows []relation.Tuple // its rows that differ from the dirty final state
	Diff []relation.Diff  // dirty final state -> its final state
	v    verified
	d    *diagnoser
}

// Verify verifies a candidate repair. Calls may run concurrently.
func (v *Verifier) Verify(repaired []query.Query) Verified {
	var st Stats
	got := v.d.verify(repaired, &st, nil)
	return Verified{OK: got.ok, Rows: got.rows, Diff: got.diff, v: got, d: v.d}
}

// Resolved is finish's verdict on the complaints.
func (r Verified) Resolved() bool { return r.d.finish(r.v).Resolved }

// Bound is the refinement's domain bound over the candidate.
func (r Verified) Bound() float64 { return r.d.boundOf(r.v) }

// Final looks a row up in the candidate's final state.
func (r Verified) Final(id int64) (relation.Tuple, bool) { return r.v.lookup(r.d.dirtyFinal, id) }
