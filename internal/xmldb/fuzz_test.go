package xmldb

import (
	"bytes"
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"testing"
)

// fuzzSeeds are the seed inputs of the XML fuzz targets.
var fuzzSeeds = []string{
	`<bib><book year="1994"><title>TCP/IP Illustrated</title></book></bib>`,
	`<movies><movie><title>Traffic</title><director>Steven Soderbergh</director></movie>2000</movies>`,
	`<a><b attr="x&amp;y">text</b><b/></a>`,
	`<root>plain text</root>`,
	`<a><b><c><d>deep</d></c></b></a>`,
	`<x y="1" z="2"/>`,
	`not xml at all`,
	`<unclosed>`,
	`<a></b>`,
	``,
	`<a>&#65;&lt;&gt;</a>`,
	`<ns:tag xmlns:ns="http://example.com">qualified</ns:tag>`,
}

// FuzzParseXML drives the XML parser with arbitrary bytes: it must
// either return an error or produce a document whose serialization
// round-trips through the parser without panicking.
func FuzzParseXML(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		doc, err := ParseString("fuzz.xml", src)
		if err != nil {
			return
		}
		if doc.Root == nil {
			t.Fatal("nil root on accepted document")
		}
		// The accepted tree must serialize and re-parse.
		out := SerializeString(doc.Root)
		if _, err := ParseString("fuzz2.xml", out); err != nil {
			t.Fatalf("serialized form does not re-parse: %v\ninput: %q\nserialized: %q", err, src, out)
		}
		// Index invariants must hold on whatever was accepted.
		for _, n := range doc.Nodes() {
			if n.Post < n.Pre {
				t.Fatalf("node %q has Post %d < Pre %d", n.Label, n.Post, n.Pre)
			}
		}
		_ = strings.TrimSpace(doc.Root.Value())
	})
}

// FuzzSerialize checks that the append-style serializer writes exactly
// the bytes of the fmt/encoding/xml reference writer below, for parsed
// documents and for text and attribute values holding arbitrary bytes
// (which the parser would refuse, so escaping of control characters and
// invalid UTF-8 is exercised too).
func FuzzSerialize(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Add("tab\tnl\ncr\r quote\" apos' \x00 \xff \uFFFD \uFFFE")
	f.Fuzz(func(t *testing.T, src string) {
		built := NewBuilder("built.xml").Open("a", "k", src).Leaf("b", src).Text(src).Close().Document()
		check := func(n *Node) {
			var ref bytes.Buffer
			if err := referenceSerialize(&ref, n); err != nil {
				t.Fatalf("reference writer: %v", err)
			}
			if got := SerializeString(n); got != ref.String() {
				t.Fatalf("SerializeString differs from the reference\ngot:  %q\nwant: %q", got, ref.String())
			}
			var w bytes.Buffer
			if err := Serialize(&w, n); err != nil || w.String() != ref.String() {
				t.Fatalf("Serialize = %q, %v; want %q", w.String(), err, ref.String())
			}
			if got := string(AppendXML([]byte("prefix"), n)); got != "prefix"+ref.String() {
				t.Fatalf("AppendXML after a prefix = %q, want %q", got, "prefix"+ref.String())
			}
		}
		for _, n := range built.Nodes() {
			check(n)
		}
		doc, err := ParseString("fuzz.xml", src)
		if err != nil {
			return
		}
		check(doc.Root)
		if doc.Size() <= 256 {
			for _, n := range doc.Nodes() {
				check(n)
			}
		}
	})
}

// referenceSerialize is the original Serialize, one fmt.Fprintf per tag
// and xml.EscapeText per text node, kept as FuzzSerialize's oracle.
func referenceSerialize(w io.Writer, n *Node) error {
	var write func(n *Node) error
	write = func(n *Node) error {
		switch n.Kind {
		case DocumentNode:
			for _, c := range n.Children {
				if err := write(c); err != nil {
					return err
				}
			}
			return nil
		case TextNode:
			return xml.EscapeText(w, []byte(n.Data))
		case AttributeNode:
			if _, err := fmt.Fprintf(w, "<%s>", n.Label); err != nil {
				return err
			}
			if err := xml.EscapeText(w, []byte(n.Data)); err != nil {
				return err
			}
			_, err := fmt.Fprintf(w, "</%s>", n.Label)
			return err
		default:
			// ElementNode: the full open/attrs/content/close form below.
		}
		if _, err := fmt.Fprintf(w, "<%s", n.Label); err != nil {
			return err
		}
		for _, c := range n.Children {
			if c.Kind == AttributeNode {
				if _, err := fmt.Fprintf(w, " %s=\"", c.Label); err != nil {
					return err
				}
				if err := xml.EscapeText(w, []byte(c.Data)); err != nil {
					return err
				}
				if _, err := io.WriteString(w, "\""); err != nil {
					return err
				}
			}
		}
		hasContent := false
		for _, c := range n.Children {
			if c.Kind != AttributeNode {
				hasContent = true
			}
		}
		if !hasContent {
			_, err := io.WriteString(w, "/>")
			return err
		}
		if _, err := io.WriteString(w, ">"); err != nil {
			return err
		}
		for _, c := range n.Children {
			if c.Kind == AttributeNode {
				continue
			}
			if err := write(c); err != nil {
				return err
			}
		}
		_, err := fmt.Fprintf(w, "</%s>", n.Label)
		return err
	}
	return write(n)
}
