package query

import "repro/internal/relation"

// ReplayIndexed is Replay with every attribute indexed whatever the
// log's size, so that tests reach the indexed paths on tiny inputs.
func ReplayIndexed(log []Query, d0 *relation.Table) (*relation.Table, error) {
	x := newExecutor(log, d0)
	for a := range x.index {
		x.index[a].want = true
	}
	return x.run(log)
}

// IndexedAttrs lists the attributes Replay would index for this log.
func IndexedAttrs(log []Query, d0 *relation.Table) []int {
	var attrs []int
	for a, ix := range newExecutor(log, d0).index {
		if ix.want {
			attrs = append(attrs, a)
		}
	}
	return attrs
}
