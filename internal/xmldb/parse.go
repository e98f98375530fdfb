package xmldb

import (
	"encoding/xml"
	"fmt"
	"io"
	"strings"
	"unicode/utf8"
)

// Parse reads an XML document from r and builds an indexed Document with
// the given logical name. Whitespace-only text between elements is
// discarded; attributes become AttributeNode children; namespaces are
// flattened to local names (the NaLIX evaluation corpus is namespace-free).
func Parse(name string, r io.Reader) (*Document, error) {
	dec := xml.NewDecoder(r)
	root := &Node{Kind: DocumentNode}
	stack := []*Node{root}
	for {
		tok, err := dec.Token()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("xmldb: parse %s: %w", name, err)
		}
		top := stack[len(stack)-1]
		switch t := tok.(type) {
		case xml.StartElement:
			el := &Node{Kind: ElementNode, Label: t.Name.Local}
			for _, a := range t.Attr {
				if a.Name.Space == "xmlns" || a.Name.Local == "xmlns" {
					continue
				}
				el.Children = append(el.Children, &Node{
					Kind:  AttributeNode,
					Label: a.Name.Local,
					Data:  a.Value,
				})
			}
			top.Children = append(top.Children, el)
			stack = append(stack, el)
		case xml.EndElement:
			if len(stack) == 1 {
				return nil, fmt.Errorf("xmldb: parse %s: unbalanced end element %s", name, t.Name.Local)
			}
			stack = stack[:len(stack)-1]
		case xml.CharData:
			s := string(t)
			if strings.TrimSpace(s) == "" {
				continue
			}
			top.Children = append(top.Children, &Node{Kind: TextNode, Data: s})
		}
	}
	if len(stack) != 1 {
		return nil, fmt.Errorf("xmldb: parse %s: unexpected end of input inside element <%s>", name, stack[len(stack)-1].Label)
	}
	if len(root.Children) == 0 {
		return nil, fmt.Errorf("xmldb: parse %s: empty document", name)
	}
	doc := &Document{Name: name, Root: root}
	doc.finalize()
	return doc, nil
}

// ParseString is a convenience wrapper around Parse for in-memory XML.
func ParseString(name, s string) (*Document, error) {
	return Parse(name, strings.NewReader(s))
}

// Builder constructs a Document programmatically. It is used by the
// synthetic dataset generators, which would otherwise have to print and
// re-parse megabytes of XML.
type Builder struct {
	doc   *Document
	stack []*Node
}

// NewBuilder returns a Builder for a document with the given logical name.
func NewBuilder(name string) *Builder {
	root := &Node{Kind: DocumentNode}
	return &Builder{
		doc:   &Document{Name: name, Root: root},
		stack: []*Node{root},
	}
}

// Open starts a new element with the given label (and optional attribute
// name/value pairs) and makes it the current element.
func (b *Builder) Open(label string, attrs ...string) *Builder {
	el := &Node{Kind: ElementNode, Label: label}
	for i := 0; i+1 < len(attrs); i += 2 {
		el.Children = append(el.Children, &Node{
			Kind:  AttributeNode,
			Label: attrs[i],
			Data:  attrs[i+1],
		})
	}
	top := b.stack[len(b.stack)-1]
	top.Children = append(top.Children, el)
	b.stack = append(b.stack, el)
	return b
}

// Text appends a text child to the current element.
func (b *Builder) Text(s string) *Builder {
	top := b.stack[len(b.stack)-1]
	top.Children = append(top.Children, &Node{Kind: TextNode, Data: s})
	return b
}

// Leaf appends <label>text</label> under the current element.
func (b *Builder) Leaf(label, text string) *Builder {
	return b.Open(label).Text(text).Close()
}

// Close ends the current element.
func (b *Builder) Close() *Builder {
	if len(b.stack) > 1 {
		b.stack = b.stack[:len(b.stack)-1]
	}
	return b
}

// Document finishes construction, builds the indexes and returns the
// document. The Builder must not be used afterwards.
func (b *Builder) Document() *Document {
	b.doc.finalize()
	return b.doc
}

// Serialize writes the subtree rooted at n as XML. Text is escaped;
// attribute children are emitted as attributes.
func Serialize(w io.Writer, n *Node) error {
	s := serializer{w: w}
	s.node(n)
	s.flush()
	return s.err
}

// SerializeString returns the subtree rooted at n as an XML string.
func SerializeString(n *Node) string {
	// Sized from the subtree's text and node count, so a typical entry
	// is rendered without regrowing the buffer.
	return string(AppendXML(make([]byte, 0, len(n.value)+16*(n.Post-n.Pre+1)), n))
}

// AppendXML appends the serialization of the subtree rooted at n to dst
// and returns the extended buffer, so a caller rendering many nodes can
// reuse one buffer. The bytes are exactly those Serialize writes.
func AppendXML(dst []byte, n *Node) []byte {
	s := serializer{buf: dst}
	s.node(n)
	return s.buf
}

// serializer appends XML to buf. With a writer set, every node written
// in full is handed to it at once, so write errors surface where they
// happen; the first one sticks and ends the walk.
type serializer struct {
	buf []byte
	w   io.Writer
	err error
}

func (s *serializer) flush() {
	if s.w == nil || s.err != nil {
		return
	}
	_, s.err = s.w.Write(s.buf)
	s.buf = s.buf[:0]
}

func (s *serializer) node(n *Node) {
	if s.err != nil {
		return
	}
	switch n.Kind {
	case DocumentNode:
		for _, c := range n.Children {
			s.node(c)
		}
		return
	case TextNode:
		s.buf = appendEscaped(s.buf, n.Data)
	case AttributeNode:
		// A bare attribute serializes like an element so results
		// that project attributes remain well-formed XML.
		s.buf = append(append(append(s.buf, '<'), n.Label...), '>')
		s.buf = appendEscaped(s.buf, n.Data)
		s.buf = append(append(append(s.buf, "</"...), n.Label...), '>')
	default:
		s.element(n)
	}
	s.flush()
}

// element appends an element: its open tag with the attribute children,
// then its content and close tag, or "/>" when it has no content.
func (s *serializer) element(n *Node) {
	s.buf = append(append(s.buf, '<'), n.Label...)
	hasContent := false
	for _, c := range n.Children {
		if c.Kind != AttributeNode {
			hasContent = true
			continue
		}
		s.buf = append(append(append(s.buf, ' '), c.Label...), `="`...)
		s.buf = append(appendEscaped(s.buf, c.Data), '"')
	}
	if !hasContent {
		s.buf = append(s.buf, "/>"...)
		return
	}
	s.buf = append(s.buf, '>')
	for _, c := range n.Children {
		if c.Kind != AttributeNode {
			s.node(c)
		}
	}
	s.buf = append(append(append(s.buf, "</"...), n.Label...), '>')
}

// appendEscaped appends s to dst escaped exactly as encoding/xml.EscapeText
// escapes it: the five markup characters, tab, newline and carriage
// return as character references, and every invalid UTF-8 byte or rune
// outside the XML character range as U+FFFD.
func appendEscaped(dst []byte, s string) []byte {
	last := 0
	for i := 0; i < len(s); {
		var esc string
		c := s[i]
		width := 1
		if c < utf8.RuneSelf {
			switch c {
			case '"':
				esc = "&#34;"
			case '\'':
				esc = "&#39;"
			case '&':
				esc = "&amp;"
			case '<':
				esc = "&lt;"
			case '>':
				esc = "&gt;"
			case '\t':
				esc = "&#x9;"
			case '\n':
				esc = "&#xA;"
			case '\r':
				esc = "&#xD;"
			default:
				if c < 0x20 {
					esc = "\uFFFD"
				}
			}
		} else {
			var r rune
			r, width = utf8.DecodeRuneInString(s[i:])
			if r == utf8.RuneError && width == 1 || !inCharRange(r) {
				esc = "\uFFFD"
			}
		}
		if esc != "" {
			dst = append(append(dst, s[last:i]...), esc...)
			last = i + width
		}
		i += width
	}
	return append(dst, s[last:]...)
}

// inCharRange reports whether a non-ASCII rune is an XML Char.
func inCharRange(r rune) bool {
	return r <= 0xD7FF || r >= 0xE000 && r <= 0xFFFD || r >= 0x10000 && r <= 0x10FFFF
}
