// Package ordercontract is a fixture for the ordercontract pass. Node
// mirrors the shape of xmldb.Node (the loader cannot resolve
// module-internal imports in fixtures, so the pass matches by type
// name).
package ordercontract

// Node is the lookalike document-node type.
type Node struct {
	Pre      int
	Children []*Node
}

// Tree is a container of nodes.
type Tree struct {
	nodes []*Node
}

// All returns every node.
func (t *Tree) All() []*Node { // want ordercontract "does not state the result order"
	return t.nodes
}

// Leaves returns the leaf nodes, in document order.
func (t *Tree) Leaves() []*Node {
	var out []*Node
	for _, n := range t.nodes {
		if len(n.Children) == 0 {
			out = append(out, n)
		}
	}
	return out
}

// Shuffle returns the nodes; the result order is unspecified.
func (t *Tree) Shuffle() []*Node {
	return t.nodes
}

// Sample returns some nodes.
func Sample(t *Tree) []Node { // want ordercontract "does not state the result order"
	out := make([]Node, 0, len(t.nodes))
	for _, n := range t.nodes {
		out = append(out, *n)
	}
	return out
}

// Count returns the number of nodes: not a slice, no order contract
// needed.
func Count(t *Tree) int {
	return len(t.nodes)
}

// Names returns label strings — not nodes, so the pass stays silent
// even though nothing here mentions how they come back.
func Names(t *Tree) []string {
	return nil
}

// pick is unexported: the order invariant is visible from the
// implementation, so no contract is demanded.
func pick(t *Tree) []*Node {
	return t.nodes
}

// MergeByPre merges Pre-sorted streams into one Pre-sorted slice — the
// k-way merge shape: variadic node-slice input, node-slice output.
func MergeByPre(streams ...[]*Node) []*Node {
	var out []*Node
	for _, s := range streams {
		out = append(out, s...)
	}
	return out
}

// Gather concatenates per-partition results.
func Gather(parts [][]*Node) []*Node { // want ordercontract "does not state the result order"
	var out []*Node
	for _, p := range parts {
		out = append(out, p...)
	}
	return out
}

// Window returns the nodes with lo <= Pre <= hi; the input order is
// preserved.
func Window(nodes []*Node, lo, hi int) []*Node {
	var out []*Node
	for _, n := range nodes {
		if n.Pre >= lo && n.Pre <= hi {
			out = append(out, n)
		}
	}
	return out
}

// Ranges describes a partition of [0, maxPre] — int pairs, not nodes,
// so no contract is demanded even without order wording.
func Ranges(n, maxPre int) [][2]int {
	return make([][2]int, n)
}
