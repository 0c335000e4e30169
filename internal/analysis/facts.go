package analysis

// A FactSet is one package's exported analysis facts: properties of its
// declarations that downstream packages' passes consume. It is the
// suite's (much smaller) analogue of x/tools analysis facts.
type FactSet struct {
	// OrderDependent maps function keys ("Name" for package functions,
	// "Recv.Name" for methods) to a short note explaining why the
	// function's result depends on map iteration order. detmap exports
	// these and flags unsorted uses of such results at call sites in
	// other packages.
	OrderDependent map[string]string
}

// A FactStore holds the fact sets visible to one analysis run: the
// facts of every already-analyzed package, the one being analyzed
// included. One store is shared across a whole load, which works
// because go list -deps lists dependencies before their dependents.
type FactStore struct {
	byPath map[string]*FactSet
}

// NewFactStore returns an empty store.
func NewFactStore() *FactStore {
	return &FactStore{byPath: map[string]*FactSet{}}
}

// Package returns the fact set recorded for the import path, or an
// empty set; the result is read-only for consumers.
func (s *FactStore) Package(path string) *FactSet {
	if s == nil {
		return &FactSet{}
	}
	if fs, ok := s.byPath[path]; ok {
		return fs
	}
	return &FactSet{}
}

// exporting returns the mutable fact set under construction for path,
// creating it on first use. Passes reach it via Pass.ExportOrderFact.
func (s *FactStore) exporting(path string) *FactSet {
	if fs, ok := s.byPath[path]; ok {
		return fs
	}
	fs := &FactSet{}
	s.byPath[path] = fs
	return fs
}
