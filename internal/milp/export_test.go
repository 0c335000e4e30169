package milp

import "repro/internal/simplex"

// ModelProblem and ModelIsInt hand the external tests what a model has
// built: its rows, bounds and objective, and its integrality flags.
func ModelProblem(m *Model) *simplex.Problem { return m.prob }
func ModelIsInt(m *Model) []bool             { return m.isInt }
func ModelObjConst(m *Model) float64         { return m.objConst }
