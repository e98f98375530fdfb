// Package mqf implements the Meaningful Query Focus machinery of
// Schema-Free XQuery (Li, Yang, Jagadish, VLDB 2004), which NaLIX uses as
// the target of natural-language query translation. The central predicate
// is *meaningful relatedness* via Meaningful Lowest Common Ancestors
// (MLCA): nodes u and v, with labels A and B, are meaningfully related iff
// their LCA is as deep as the deepest LCA that v forms with any A-node and
// that u forms with any B-node — i.e. u and v are mutually nearest for
// their labels. This is what makes mqf(director, title) pick the title of a
// movie rather than the title of a book in the paper's Section 2 example.
package mqf

import (
	"slices"
	"sync"

	"nalix/internal/obs"
	"nalix/internal/xmldb"
)

// Always-on process counters: the mqf memo cache dominates join cost, so
// its hit rate is a first-class telemetry signal. Counter handles are
// hoisted to package init, and — because these sit in the innermost join
// loops, where even one atomic add per event is measurable (and under the
// race detector costs more than the join work itself) — events are
// accumulated locally and flushed to the counters in batches.
var (
	cacheHits     = obs.NewCounter("mqf_cache_hits")
	cacheMisses   = obs.NewCounter("mqf_cache_misses")
	pairsChecked  = obs.NewCounter("mqf_pairs_checked")
	relatedChecks = obs.NewCounter("mqf_related_checks")
)

// statsFlush is the local-accumulation batch size: a Checker publishes its
// pending cache-hit/miss counts once their sum reaches this many events.
// Totals therefore trail reality by at most statsFlush-1 events per
// Checker — irrelevant against the millions a study run produces.
const statsFlush = 1 << 12

// Checker answers meaningful-relatedness queries against one document. It
// memoizes mlca-depth lookups, which dominate the cost of evaluating
// where-clauses containing mqf() over large variable domains. Checkers
// are safe for concurrent use: the memo is the only mutable state and mu
// guards it.
type Checker struct {
	doc *xmldb.Document
	// labelIDs assigns each document label a dense id so the memo keys
	// below hash two machine words instead of a string per probe (the
	// memo lookups sit in the evaluator's innermost loops). Built once in
	// NewChecker and read-only afterwards.
	labelIDs map[string]int32

	mu    sync.Mutex
	cache map[memoKey]int
	// cands memoizes candidate streams, guarded by mu. Cached slices are
	// shared with callers and must be treated as read-only.
	cands map[memoKey][]*xmldb.Node
	// Pending cache-hit/miss counts, guarded by mu and flushed to the
	// package counters in statsFlush-sized batches (see statsFlush).
	hits   int64
	misses int64
}

// memoKey keys the depth and candidate memos by (node id, dense label
// id).
type memoKey struct {
	node int32
	lid  int32
}

// NewChecker returns a Checker for the given document.
func NewChecker(doc *xmldb.Document) *Checker {
	labels := doc.Labels()
	ids := make(map[string]int32, len(labels))
	for i, l := range labels {
		ids[l] = int32(i)
	}
	return &Checker{
		doc:      doc,
		labelIDs: ids,
		cache:    make(map[memoKey]int),
		cands:    make(map[memoKey][]*xmldb.Node),
	}
}

// LabelID returns the checker's dense id for a document label, or -1
// when the label does not occur in the document. Resolving the id once
// and calling the *ByID variants keeps string hashing out of per-tuple
// loops.
func (c *Checker) LabelID(label string) int32 {
	if id, ok := c.labelIDs[label]; ok {
		return id
	}
	return -1
}

// labelName returns the label for a valid dense id.
func (c *Checker) labelName(lid int32) string { return c.doc.Labels()[lid] }

// FlushStats publishes any locally-batched cache hit/miss counts that have
// not yet reached the statsFlush threshold. Without it, a Checker
// abandoned below the threshold (a short-lived engine, a document
// reload) silently drops its pending counts and the process-wide mqf
// cache telemetry under-reports. Engine teardown and document replacement
// call it; it is safe to call at any time and from any goroutine.
func (c *Checker) FlushStats() {
	c.mu.Lock()
	h, m := c.hits, c.misses
	c.hits, c.misses = 0, 0
	c.mu.Unlock()
	cacheHits.Add(h)
	cacheMisses.Add(m)
}

// MLCADepth returns the depth of the deepest ancestor-or-self of n whose
// subtree contains a node labelled label other than n itself, or -1 when no
// such ancestor exists (label absent from the document).
func (c *Checker) MLCADepth(n *xmldb.Node, label string) int {
	lid := c.LabelID(label)
	if lid < 0 {
		return -1
	}
	return c.MLCADepthByID(n, lid)
}

// MLCADepthByID is MLCADepth with a pre-resolved label id (see LabelID);
// lid must be valid.
func (c *Checker) MLCADepthByID(n *xmldb.Node, lid int32) int {
	key := memoKey{int32(n.ID), lid}
	c.mu.Lock()
	d, ok := c.cache[key]
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	if c.hits+c.misses >= statsFlush {
		cacheHits.Add(c.hits)
		cacheMisses.Add(c.misses)
		c.hits, c.misses = 0, 0
	}
	c.mu.Unlock()
	if ok {
		return d
	}
	// Compute outside the lock — the document is immutable and a racing
	// duplicate computation writes the same value.
	depth := mlcaDepthIndexed(c.doc, n, c.labelName(lid))
	c.mu.Lock()
	c.cache[key] = depth
	c.mu.Unlock()
	return depth
}

// mlcaDepthIndexed computes the MLCA depth from the Pre-sorted label
// index: the deepest common ancestor n forms with any member of a label
// stream is always formed with one of its two document-order neighbors in
// that stream (the LCA of a pre-order range equals the LCA of its
// endpoints, so moving further away in document order can only raise the
// meeting point). One binary search plus two O(depth) ancestor walks
// replace the per-ancestor subtree scans of the naive computation.
func mlcaDepthIndexed(doc *xmldb.Document, n *xmldb.Node, label string) int {
	before, after := doc.LabelNeighbors(label, n.Pre)
	depth := -1
	if before != nil {
		if d := lcaDepth(n, before); d > depth {
			depth = d
		}
	}
	if after != nil {
		if d := lcaDepth(n, after); d > depth {
			depth = d
		}
	}
	return depth
}

// lcaDepth returns the depth of the lowest common ancestor of a and b
// (-1 when they share no ancestor, which cannot happen within one
// document).
func lcaDepth(a, b *xmldb.Node) int {
	for !a.IsAncestorOrSelf(b) {
		a = a.Parent
		if a == nil {
			return -1
		}
	}
	return a.Depth
}

// Related reports whether u and v are meaningfully related: their LCA is a
// mutually-nearest meeting point for their labels. Two distinct nodes with
// the same label are never meaningfully related directly (they are peers,
// not partners); a node is trivially related to itself.
func (c *Checker) Related(u, v *xmldb.Node) bool {
	if u == v {
		return true
	}
	if u.Label == v.Label {
		return false
	}
	l := xmldb.LCA(u, v)
	if l == nil {
		return false
	}
	// One node being the ancestor of the other is always meaningful
	// (e.g. movie and its title).
	if l == u || l == v {
		return true
	}
	// A pairing that only meets at the top of a large collection is not
	// meaningful: when neither side has any closer partner, mutual
	// nearness would otherwise relate an editor-only book to every
	// article author in the corpus just because both reach the root.
	if c.isCollectionTop(l) {
		return false
	}
	return l.Depth == c.MLCADepth(u, v.Label) && l.Depth == c.MLCADepth(v, u.Label)
}

// isCollectionTop reports whether a node is the document node or a
// collection container at the top of the document (the root element of a
// corpus holding many sibling entries).
func (c *Checker) isCollectionTop(l *xmldb.Node) bool {
	if l.Kind == xmldb.DocumentNode {
		return true
	}
	if l.Parent == nil || l.Parent.Kind != xmldb.DocumentNode {
		return false
	}
	elems := 0
	for _, ch := range l.Children {
		if ch.Kind == xmldb.ElementNode {
			elems++
			if elems > 3 {
				return true
			}
		}
	}
	return false
}

// RelatedAll reports whether every pair in nodes is meaningfully related.
// This is the predicate semantics of mqf($v1, $v2, ...) in a where clause:
// the bound combination survives iff the nodes form a meaningful group.
// mqf of fewer than two nodes is trivially true.
func (c *Checker) RelatedAll(nodes []*xmldb.Node) bool {
	ok, _ := c.RelatedAllCounted(nodes)
	return ok
}

// RelatedAllCounted is RelatedAll plus the number of pairs actually
// examined before the verdict (the check short-circuits on the first
// unrelated pair), feeding the mqf_pairs_checked telemetry.
func (c *Checker) RelatedAllCounted(nodes []*xmldb.Node) (bool, int64) {
	var pairs int64
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			pairs++
			if !c.Related(nodes[i], nodes[j]) {
				pairsChecked.Add(pairs)
				relatedChecks.Add(pairs)
				return false, pairs
			}
		}
	}
	pairsChecked.Add(pairs)
	relatedChecks.Add(pairs)
	return true, pairs
}

// RelatedCandidates returns the nodes with the given label that are
// meaningfully related to u, in document (Pre) order. This is the pruning
// primitive of the structural-join optimizer in the XQuery evaluator:
// instead of scanning every label-node and filtering, candidates come
// from the subtree of the deepest ancestor of u that contains the label
// at all. Results are memoized per (node, label); the returned slice is
// shared and must not be modified.
func (c *Checker) RelatedCandidates(u *xmldb.Node, label string) []*xmldb.Node {
	lid := c.LabelID(label)
	if lid < 0 {
		return nil
	}
	return c.RelatedCandidatesByID(u, lid)
}

// RelatedCandidatesByID is RelatedCandidates with a pre-resolved label id
// (see LabelID); lid must be valid. The returned slice is Pre-sorted,
// shared and must not be modified.
func (c *Checker) RelatedCandidatesByID(u *xmldb.Node, lid int32) []*xmldb.Node {
	key := memoKey{int32(u.ID), lid}
	c.mu.Lock()
	out, ok := c.cands[key]
	c.mu.Unlock()
	if ok {
		return out
	}
	if u.Label == c.labelName(lid) {
		out = []*xmldb.Node{u}
	} else {
		out = c.appendWindow(nil, u, lid)
	}
	c.mu.Lock()
	c.cands[key] = out
	c.mu.Unlock()
	return out
}

// appendWindow appends the nodes labelled lid that are meaningfully
// related to u (whose own label differs) to out, in document order. It is
// the one window routine behind RelatedCandidates and RelatedPairs.
//
// Let d be u's MLCA depth for the label and w its ancestor-or-self at
// depth d, the window root. No label node lies strictly between w and u
// or below u unless w == u: its LCA with u would be deeper than d. So the
// related nodes are:
//
//   - u's label ancestors at or above w: ancestor pairs are always
//     related, and they precede w's subtree in document order;
//   - when w == u, every label descendant of u, for the same reason;
//   - otherwise, the window nodes v (label descendants of w) whose own
//     MLCA depth for u's label equals w.Depth. Every such v meets u at
//     exactly w: no deeper, since d is the deepest LCA u forms with any
//     label node, and no shallower, since both lie below w. So Related's
//     LCA walk and its probe on u's side are both settled, and one
//     memoized probe on v's side decides. A window rooted at a collection
//     top relates nothing, because Related refuses pairs that meet only
//     there, so it is never scanned.
func (c *Checker) appendWindow(out []*xmldb.Node, u *xmldb.Node, lid int32) []*xmldb.Node {
	w := u.AncestorAtDepth(c.MLCADepthByID(u, lid))
	if w == nil {
		return out
	}
	label := c.labelName(lid)
	first := len(out)
	for p := w; p != nil; p = p.Parent {
		if p.Label == label {
			out = append(out, p)
		}
	}
	slices.Reverse(out[first:])
	if w == u {
		return append(out, c.doc.Descendants(w, label)...)
	}
	ulid := c.LabelID(u.Label)
	if ulid < 0 || c.isCollectionTop(w) {
		return out
	}
	win := c.doc.Descendants(w, label)
	relatedChecks.Add(int64(len(win)))
	for _, v := range win {
		if c.MLCADepthByID(v, ulid) == w.Depth {
			out = append(out, v)
		}
	}
	return out
}

// Group is one meaningful combination found by Groups: one node per
// requested label, plus the LCA ("focus") of the combination.
type Group struct {
	// Nodes holds one node per requested label, in request order.
	Nodes []*xmldb.Node
	// Focus is the lowest common ancestor of Nodes.
	Focus *xmldb.Node
}

// Groups enumerates all meaningful combinations of nodes for the given
// labels: the MLCAS (Meaningful LCA Structure) of the label sets. It is
// used by the standalone schema-free query API and by tests; the XQuery
// evaluator instead draws each binding domain from the RelatedCandidates
// streams of the variable's already-bound mqf partners.
//
// The first two labels are joined holistically with RelatedPairs (one
// pass over the Pre-sorted label streams); further labels extend each
// pair through the memoized RelatedCandidates partner sets, filtered
// pairwise against the nodes already chosen. Groups are produced in
// lexicographic document order of their node tuples.
func (c *Checker) Groups(labels ...string) []Group {
	if len(labels) == 0 {
		return nil
	}
	for _, l := range labels {
		if c.doc.LabelCount(l) == 0 {
			return nil
		}
	}
	var out []Group
	emit := func(chosen []*xmldb.Node) {
		nodes := make([]*xmldb.Node, len(chosen))
		copy(nodes, chosen)
		focus := nodes[0]
		for _, n := range nodes[1:] {
			focus = xmldb.LCA(focus, n)
		}
		out = append(out, Group{Nodes: nodes, Focus: focus})
	}
	first := c.doc.NodesByLabel(labels[0])
	if len(labels) == 1 {
		for _, n := range first {
			emit([]*xmldb.Node{n})
		}
		return out
	}
	var pairs []Pair
	if labels[0] == labels[1] {
		// Distinct same-label nodes are never related; only the
		// degenerate self-pairs survive.
		for _, n := range first {
			pairs = append(pairs, Pair{n, n})
		}
	} else {
		pairs = c.RelatedPairs(labels[0], labels[1])
	}
	var checks int64
	chosen := make([]*xmldb.Node, 0, len(labels))
	var rec func(i int)
	rec = func(i int) {
		if i == len(labels) {
			emit(chosen)
			return
		}
	next:
		for _, cand := range c.RelatedCandidates(chosen[0], labels[i]) {
			for _, prev := range chosen[1:] {
				checks++
				if !c.Related(prev, cand) {
					continue next
				}
			}
			chosen = append(chosen, cand)
			rec(i + 1)
			chosen = chosen[:len(chosen)-1]
		}
	}
	for _, p := range pairs {
		chosen = append(chosen[:0], p.A, p.B)
		rec(2)
	}
	relatedChecks.Add(checks)
	return out
}
