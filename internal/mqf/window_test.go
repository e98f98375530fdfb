package mqf

import (
	"testing"

	"nalix/internal/dataset"
	"nalix/internal/obs"
	"nalix/internal/xmldb"
)

// windowDoc is a collection of four entries under <lib>: an editor-only
// book, and three articles with one author each. The first article also
// holds a nested <lib>, so a lib-labelled node lies inside the
// collection-top window of the editor.
const windowDoc = `<lib>` +
	`<book><editor>E</editor></book>` +
	`<article><author>A1</author><lib>nested</lib></article>` +
	`<article><author>A2</author></article>` +
	`<article><author>A3</author></article>` +
	`</lib>`

func relatedChecksValue() int64 { return obs.Default.Counter("mqf_related_checks").Value() }

// TestRelatedCandidatesCollectionTopWindow checks that a node whose MLCA
// window root is the collection top gets only its label ancestors, and
// that the window itself is never scanned.
func TestRelatedCandidatesCollectionTopWindow(t *testing.T) {
	doc, err := xmldb.ParseString("lib.xml", windowDoc)
	if err != nil {
		t.Fatal(err)
	}
	c := NewChecker(doc)
	editor := doc.NodesByLabel("editor")[0]
	root := doc.RootElement()
	before := relatedChecksValue()
	if got := c.RelatedCandidates(editor, "author"); len(got) != 0 {
		t.Errorf("editor ~ author = %d nodes, want none: the pairs meet only at the collection top", len(got))
	}
	if got := c.RelatedCandidates(editor, "lib"); len(got) != 1 || got[0] != root {
		t.Errorf("editor ~ lib = %d nodes, want only the root lib", len(got))
	}
	if d := relatedChecksValue() - before; d != 0 {
		t.Errorf("collection-top windows cost %d related checks, want 0", d)
	}
}

// TestRelatedCandidatesRootGetsAllDescendants checks that the root
// element, whose window is itself, is related to every label descendant.
func TestRelatedCandidatesRootGetsAllDescendants(t *testing.T) {
	doc, err := xmldb.ParseString("lib.xml", windowDoc)
	if err != nil {
		t.Fatal(err)
	}
	c := NewChecker(doc)
	got := c.RelatedCandidates(doc.RootElement(), "author")
	want := doc.NodesByLabel("author")
	if len(got) != len(want) {
		t.Fatalf("root ~ author = %d nodes, want all %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("candidate %d: pre %d, want %d", i, got[i].Pre, want[i].Pre)
		}
	}
}

// TestRelatedCandidatesScaling guards the cold candidate cost against a
// quadratic regression by counting work, not timing it: doubling the
// corpus may at most triple the related checks that cold candidate
// streams for every author against books, articles and titles perform.
// An author meets the other kind of entry only at the <dblp> collection
// top, and a scan of every such window grows with the square of the
// corpus (16x from scale 1 to 4); titles share the author's entry, so
// their windows are scanned and keep the count above zero. The counter
// is process-wide, so this test must not run in parallel with others.
func TestRelatedCandidatesScaling(t *testing.T) {
	checks := func(scale int) int64 {
		doc := dataset.Generate(scale)
		c := NewChecker(doc)
		before := relatedChecksValue()
		for _, a := range doc.NodesByLabel("author") {
			for _, label := range []string{"book", "article", "title"} {
				c.RelatedCandidates(a, label)
			}
		}
		return relatedChecksValue() - before
	}
	small, large := checks(1), checks(2)
	t.Logf("related checks: scale 1 %d, scale 2 %d", small, large)
	if small == 0 {
		t.Fatal("no related checks at scale 1: the test no longer measures the window scan")
	}
	if large > 3*small {
		t.Errorf("related checks grew %.1fx from scale 1 to 2 (%d -> %d), want at most 3x",
			float64(large)/float64(small), small, large)
	}
}
