// Package relation implements the minimal in-memory relational substrate
// that QFix operates on: a single-table store with numeric attributes,
// stable tuple identities, state snapshots, and tuple-wise diffing.
//
// The paper (§3.1) assumes a single relation with numeric attributes
// A1..Am; database states D0..Dn are produced by replaying the query log.
// Only D0 and Dn need to be materialized by callers, but tables are cheap
// to clone so intermediate states can be kept when useful (tests do).
//
// A Table is flat: all rows' values in one row-major []float64, their IDs
// in one []int64. IDs ascend strictly in storage order (an insert takes
// the counter, above every live ID; a delete keeps order), so a row is
// found by ID with no map, two states diff in one merge, and Clone is two
// copies. Rows, Update, UpdateRow and Insert hand out views of that
// storage (see Tuple for how long one stays valid); Get and At copy.
package relation

import (
	"fmt"
	"strings"
)

// Schema describes the attributes of a table. Attribute positions are the
// canonical identity used throughout the system; names exist for parsing
// and display. An optional primary-key attribute supports the paper's
// "Point predicate on a key" query class.
type Schema struct {
	name  string
	attrs []string
	key   int // index of key attribute, or -1
	index map[string]int
}

// NewSchema builds a schema for table name with the given attribute
// names. key is the name of the primary-key attribute, or "" for none.
func NewSchema(name string, attrs []string, key string) (*Schema, error) {
	if len(attrs) == 0 {
		return nil, fmt.Errorf("relation: schema %q needs at least one attribute", name)
	}
	s := &Schema{name: name, attrs: append([]string(nil), attrs...), key: -1,
		index: make(map[string]int, len(attrs))}
	for i, a := range attrs {
		if a == "" {
			return nil, fmt.Errorf("relation: schema %q has empty attribute name at position %d", name, i)
		}
		if _, dup := s.index[a]; dup {
			return nil, fmt.Errorf("relation: schema %q has duplicate attribute %q", name, a)
		}
		s.index[a] = i
	}
	if key != "" {
		i, ok := s.index[key]
		if !ok {
			return nil, fmt.Errorf("relation: key attribute %q not in schema %q", key, name)
		}
		s.key = i
	}
	return s, nil
}

// MustSchema is NewSchema that panics on error; intended for tests,
// examples and generators with statically known inputs.
func MustSchema(name string, attrs []string, key string) *Schema {
	s, err := NewSchema(name, attrs, key)
	if err != nil {
		panic(err)
	}
	return s
}

// Name returns the table name.
func (s *Schema) Name() string { return s.name }

// Width returns the number of attributes.
func (s *Schema) Width() int { return len(s.attrs) }

// Attr returns the name of the attribute at position i.
func (s *Schema) Attr(i int) string { return s.attrs[i] }

// Attrs returns a copy of the attribute name list.
func (s *Schema) Attrs() []string { return append([]string(nil), s.attrs...) }

// Index returns the position of the named attribute.
func (s *Schema) Index(name string) (int, bool) {
	i, ok := s.index[name]
	return i, ok
}

// Key returns the position of the primary-key attribute, or -1.
func (s *Schema) Key() int { return s.key }

// String renders the schema as "name(a1, a2, ...)".
func (s *Schema) String() string {
	return s.name + "(" + strings.Join(s.attrs, ", ") + ")"
}
