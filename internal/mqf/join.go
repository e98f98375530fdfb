package mqf

import (
	"nalix/internal/obs"
	"nalix/internal/xmldb"
)

// structuralPairs counts the related pairs emitted by RelatedPairs — the
// output cardinality of the holistic join, the number the planner's
// cardinality estimates are ultimately judged against.
var structuralPairs = obs.NewCounter("mqf_structural_pairs")

// Pair is one meaningfully-related node pair produced by RelatedPairs:
// A carries the first label of the join, B the second.
type Pair struct {
	A, B *xmldb.Node
}

// RelatedPairs produces every meaningfully-related (a, b) pair for two
// label streams in one pass over the Pre-sorted label indexes, sorted by
// (A.Pre, B.Pre). It is the holistic structural join underlying Groups:
// instead of testing |A|·|B| combinations pairwise, each a-node resolves
// its MLCA window with one indexed depth probe and classifies only the
// B-nodes inside it (see appendWindow).
//
// Two distinct nodes with the same label are never related, so a
// same-label join is empty and returns nil.
func (c *Checker) RelatedPairs(labelA, labelB string) []Pair {
	if labelA == labelB {
		return nil
	}
	lidB := c.LabelID(labelB)
	as := c.doc.NodesByLabel(labelA)
	if len(as) == 0 || lidB < 0 {
		return nil
	}
	var out []Pair
	var bs []*xmldb.Node
	for _, a := range as {
		bs = c.appendWindow(bs[:0], a, lidB)
		for _, b := range bs {
			out = append(out, Pair{a, b})
		}
	}
	structuralPairs.Add(int64(len(out)))
	return out
}
