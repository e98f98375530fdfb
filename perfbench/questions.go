package main

import (
	"encoding/json"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"nalix/internal/cache"
	"nalix/internal/server"
	"nalix/internal/xmldb"
	"nalix/internal/xmp"
)

// request is one benchmark request: what is sent, the key its answer
// digest is stored under, and its shape (the unit warmup covers).
type request struct {
	Endpoint string // "ask", "keyword" or "query"
	Text     string // Question for ask and keyword, Query for query
	Key      string // digest key; variants of one question share it
	Shape    string
}

// body is the request's wire form.
func (r request) body() []byte {
	req := server.Request{Question: r.Text}
	if r.Endpoint == "query" {
		req = server.Request{Query: r.Text}
	}
	b, err := json.Marshal(req)
	if err != nil {
		panic(err) // a struct of strings always marshals
	}
	return b
}

// hotSet is the paper's study traffic: the 60 XMP phrasings of all four
// kinds (/ask), the 18 keyword-baseline formulations (/keyword) and the 9
// gold XQueries (/query).
func hotSet() (asks, keywords, queries []request) {
	for _, t := range xmp.Tasks() {
		for i, p := range t.Phrasings {
			asks = append(asks, request{"ask", p.Text, fmt.Sprintf("ask|%s#%d", t.ID, i), "ask:" + t.ID})
		}
		for i, k := range t.Keyword {
			keywords = append(keywords, request{"keyword", k, fmt.Sprintf("keyword|%s#%d", t.ID, i), "keyword:" + t.ID})
		}
		queries = append(queries, request{"query", t.Gold, "query|" + t.ID, "query:" + t.ID})
	}
	return asks, keywords, queries
}

// variant rewrites an /ask question in ways the result-cache
// canonicalizer folds (whitespace, quote style, first-word case,
// trailing punctuation). Each rewrite is kept only when it leaves
// cache.CanonicalQuery unchanged, so a variant always names the same
// question.
func variant(rng *rand.Rand, s string) string {
	want := cache.CanonicalQuery(s)
	try := func(v string) {
		if cache.CanonicalQuery(v) == want {
			s = v
		}
	}
	if rng.Intn(2) == 0 { // widen one gap between words
		if gaps := strings.Count(s, " "); gaps > 0 {
			k := rng.Intn(gaps)
			i := -1
			for ; k >= 0; k-- {
				i += 1 + strings.IndexByte(s[i+1:], ' ')
			}
			try(s[:i] + []string{"  ", "\t", "   "}[rng.Intn(3)] + s[i+1:])
		}
	}
	if rng.Intn(3) == 0 {
		try(" " + s + " ")
	}
	if rng.Intn(2) == 0 && strings.Count(s, `"`)%2 == 0 { // curly quotes
		var b strings.Builder
		open := true
		for _, r := range s {
			if r == '"' {
				r = map[bool]rune{true: '“', false: '”'}[open]
				open = !open
			}
			b.WriteRune(r)
		}
		try(b.String())
	}
	if rng.Intn(2) == 0 { // first-word case
		if i := strings.IndexByte(s, ' '); i > 0 {
			w := s[:i]
			if strings.ToLower(w) == w {
				w = strings.ToUpper(w[:1]) + w[1:]
			} else {
				w = strings.ToLower(w)
			}
			try(w + s[i:])
		}
	}
	if rng.Intn(2) == 0 { // trailing punctuation
		t := strings.TrimRight(s, ".?! \t")
		try(t + []string{"", ".", "?", "!", " .", "..."}[rng.Intn(6)])
	}
	return s
}

// studyReplay is a seeded replay of n study requests: exactly 90% /ask
// spread evenly over the 60 phrasings (each sent as a fresh variant), 5%
// /keyword over the 18 formulations and the rest /query over the 9 gold
// queries, in seeded order. Without baselines every request is an /ask.
func studyReplay(rng *rand.Rand, n int, baselines bool) []request {
	asks, keywords, queries := hotSet()
	nKw, nQ := n*5/100, n*5/100
	if !baselines {
		nKw, nQ = 0, 0
	}
	out := make([]request, 0, n)
	for i := 0; i < n-nKw-nQ; i++ {
		r := asks[i%len(asks)]
		r.Text = variant(rng, r.Text)
		out = append(out, r)
	}
	for i := 0; i < nKw; i++ {
		out = append(out, keywords[i%len(keywords)])
	}
	for i := 0; i < nQ; i++ {
		out = append(out, queries[i%len(queries)])
	}
	rng.Shuffle(len(out), func(i, j int) { out[i], out[j] = out[j], out[i] })
	return out
}

// vocab holds the constants the corpus generator draws from, read back
// out of a generated document so questions name values that exist.
type vocab struct {
	Publishers, Journals, Affiliations, Years, Names, Words []string
}

// vocabFrom collects the generator vocabularies from a dblp corpus.
// Names are author names and their first and last parts; words are the
// alphabetic title words of five or more letters and the pairs of
// adjacent alphabetic title words, each kept when it occurs in at most
// a tenth of the titles, so title-word answers stay selective.
func vocabFrom(doc *xmldb.Document) vocab {
	set := func(label string, split bool) map[string]int {
		m := map[string]int{}
		for _, n := range doc.NodesByLabel(label) {
			if !split {
				m[n.Value()]++
				continue
			}
			seen := map[string]bool{}
			add := func(w string) {
				if !seen[w] {
					seen[w] = true
					m[w]++
				}
			}
			ws := strings.Fields(n.Value())
			for i, w := range ws {
				if isWord(w, 5) || label == "author" && isWord(w, 3) {
					add(w)
				}
				if i > 0 && isWord(ws[i-1], 3) && isWord(w, 3) {
					add(ws[i-1] + " " + w)
				}
			}
		}
		return m
	}
	keys := func(m map[string]int, keep func(string, int) bool) []string {
		var out []string
		for k, c := range m {
			if keep == nil || keep(k, c) {
				out = append(out, k)
			}
		}
		sort.Strings(out)
		return out
	}
	titles := doc.LabelCount("title")
	return vocab{
		Publishers:   keys(set("publisher", false), nil),
		Journals:     keys(set("journal", false), nil),
		Affiliations: keys(set("affiliation", false), nil),
		Years:        keys(set("year", false), nil),
		Names:        keys(set("author", true), nil),
		Words: keys(set("title", true), func(_ string, c int) bool {
			return c*10 <= titles
		}),
	}
}

// isWord reports whether w is at least min ASCII letters long and
// letters only.
func isWord(w string, min int) bool {
	if len(w) < min {
		return false
	}
	for _, r := range w {
		if !(r >= 'a' && r <= 'z' || r >= 'A' && r <= 'Z') {
			return false
		}
	}
	return true
}

// template is one constant-bearing question shape.
type template struct {
	ID       string // f… for /ask (the XMP task number follows), k… /keyword, g… /query
	Endpoint string
	Format   string // fmt verbs %[1]s, %[2]s take the constants in order
	Pool     string // constant pool, see pools
	Rejected bool   // an Invalid phrasing: validation rejects it
}

// freshTemplates are the constant-bearing XMP task shapes and their
// Invalid phrasings (/ask), the traffic of fresh-1M.
var freshTemplates = []template{
	{"f1", "ask", `Return the year and title of books published by "%[1]s" after %[2]s.`, "publisher-year", false},
	{"f1w", "ask", `Show the year and title of books where the publisher is "%[1]s" and the year is after %[2]s.`, "publisher-year", false},
	{"f7", "ask", `Return the title and year of books published by "%[1]s" after %[2]s, sorted by title.`, "publisher-year", false},
	{"f8b", "ask", `Find the titles of books whose author contains "%[1]s".`, "name", false},
	{"f8a", "ask", `Find the titles of articles whose author contains "%[1]s".`, "name", false},
	{"f9", "ask", `Find every title that contains "%[1]s".`, "word", false},
	{"f11", "ask", `Return the title and the affiliation of books with an editor whose affiliation is "%[1]s" after %[2]s.`, "affiliation-year", false},
	{"fj", "ask", `Return the title of articles published in "%[1]s" after %[2]s.`, "journal-year", false},
	{"f1x", "ask", `Which books has "%[1]s" published subsequent to %[2]s?`, "publisher-year", true},
	{"f7x", "ask", `Alphabetize the titles and years of "%[1]s" books after %[2]s.`, "publisher-year", true},
	{"f8x", "ask", `Which books involve "%[1]s" either as author or as editor?`, "name", true},
	{"f9x", "ask", `Grep all titles for "%[1]s".`, "word", true},
}

// probeTemplates extend the traced run's decomposition to the /keyword
// and /query layers with fresh constants; they are not load traffic.
var probeTemplates = []template{
	{"k1", "keyword", `book publisher "%[1]s" %[2]s`, "publisher-year", false},
	{"k8", "keyword", `"%[1]s" book`, "name", false},
	{"g1", "query", `for $b in doc("dblp.xml")//book where $b/publisher = "%[1]s" and $b/year > %[2]s return ($b/year, $b/title)`, "publisher-year", false},
	{"g8", "query", `for $b in doc("dblp.xml")//book where contains($b/author, "%[1]s") or contains($b/editor, "%[1]s") return $b/title`, "name", false},
	{"g9", "query", `for $t in doc("dblp.xml")//title where contains($t, "%[1]s") return $t`, "word", false},
}

// pools lists every constant tuple of each pool.
func (v vocab) pools() map[string][][]string {
	cross := func(a, b []string) [][]string {
		var out [][]string
		for _, x := range a {
			for _, y := range b {
				out = append(out, []string{x, y})
			}
		}
		return out
	}
	single := func(a []string) [][]string {
		var out [][]string
		for _, x := range a {
			out = append(out, []string{x})
		}
		return out
	}
	return map[string][][]string{
		"publisher-year":   spread(cross(v.Publishers, v.Years)),
		"journal-year":     spread(cross(v.Journals, v.Years)),
		"affiliation-year": spread(cross(v.Affiliations, v.Years)),
		"name":             spread(single(v.Names)),
		"word":             spread(single(v.Words)),
	}
}

// poolCap bounds every constant pool, and so the number of digests a
// tier commits. arrivals-73k, the hungriest workload, draws about 70
// constants per template in a 10-second run.
const poolCap = 128

// spread keeps poolCap evenly spaced entries of a longer pool.
func spread(pool [][]string) [][]string {
	if len(pool) <= poolCap {
		return pool
	}
	out := make([][]string, poolCap)
	for i := range out {
		out[i] = pool[i*len(pool)/poolCap]
	}
	return out
}

// instantiate fills a template with one constant tuple.
func (t template) instantiate(consts []string) request {
	args := make([]any, len(consts))
	for i, c := range consts {
		args[i] = c
	}
	return request{
		Endpoint: t.Endpoint,
		Text:     fmt.Sprintf(t.Format, args...),
		Key:      t.Endpoint + "|" + t.ID + "|" + strings.Join(consts, "|"),
		Shape:    t.Endpoint + ":" + t.ID,
	}
}

// universe lists every request the templates can produce over a
// vocabulary: the set record mode digests.
func universe(v vocab, tmpls []template) []request {
	pools := v.pools()
	var out []request
	for _, t := range tmpls {
		for _, c := range pools[t.Pool] {
			out = append(out, t.instantiate(c))
		}
	}
	return out
}

// freshGen draws never-repeating questions from the templates: each
// template walks its own seeded order of its constant pool, so no
// two draws of one run share a question. The first constant of every
// pool is reserved for warmup, so every seed warms up on the same
// questions.
type freshGen struct {
	pools map[string][][]string
	order map[string][]int // template ID → permutation of its pool
	next  map[string]int
	rng   *rand.Rand
	seen  map[string]bool // endpoint + canonical text of every draw
}

func newFreshGen(rng *rand.Rand, v vocab, tmpls []template) *freshGen {
	g := &freshGen{pools: v.pools(), order: map[string][]int{}, next: map[string]int{}, rng: rng, seen: map[string]bool{}}
	for _, t := range tmpls {
		// Indexes 1..len-1: index 0 is reserved for warmup.
		order := rng.Perm(max(len(g.pools[t.Pool])-1, 0))
		for i := range order {
			order[i]++
		}
		g.order[t.ID] = order
	}
	return g
}

// warm returns each template's reserved warmup question.
func (g *freshGen) warm(tmpls []template) ([]request, error) {
	var out []request
	for _, t := range tmpls {
		r := t.instantiate(g.pools[t.Pool][0])
		if err := g.claim(r); err != nil {
			return nil, err
		}
		out = append(out, r)
	}
	return out, nil
}

// take draws the next unused question of a template.
func (g *freshGen) take(t template) (request, error) {
	i := g.next[t.ID]
	if i >= len(g.order[t.ID]) {
		return request{}, fmt.Errorf("template %s: all %d constants used", t.ID, i)
	}
	g.next[t.ID] = i + 1
	r := t.instantiate(g.pools[t.Pool][g.order[t.ID][i]])
	return r, g.claim(r)
}

// claim records a drawn question, failing on a repeat.
func (g *freshGen) claim(r request) error {
	canon := r.Endpoint + "|" + cache.CanonicalQuery(r.Text)
	if g.seen[canon] {
		return fmt.Errorf("%q repeats an earlier question", r.Text)
	}
	g.seen[canon] = true
	return nil
}

// stream draws n questions stratified over the templates: every round
// of len(tmpls) requests uses each template once, in seeded order.
func (g *freshGen) stream(tmpls []template, n int) ([]request, error) {
	out := make([]request, 0, n)
	for len(out) < n {
		for _, i := range g.rng.Perm(len(tmpls)) {
			if len(out) == n {
				break
			}
			r, err := g.take(tmpls[i])
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// each draws k questions of every template, in template order.
func (g *freshGen) each(tmpls []template, k int) ([]request, error) {
	var out []request
	for _, t := range tmpls {
		for j := 0; j < k; j++ {
			r, err := g.take(t)
			if err != nil {
				return nil, err
			}
			out = append(out, r)
		}
	}
	return out, nil
}

// interleave merges two request lists in seeded order, keeping each
// list's own order: the arrivals mix of hot-set and fresh requests.
func interleave(rng *rand.Rand, a, b []request) []request {
	out := make([]request, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		if j == len(b) || (i < len(a) && rng.Intn(len(a)+len(b)-i-j) < len(a)-i) {
			out = append(out, a[i])
			i++
		} else {
			out = append(out, b[j])
			j++
		}
	}
	return out
}

// repeatShare is the share of requests whose question (up to
// canonicalization) was asked earlier in the list.
func repeatShare(reqs []request) float64 {
	seen := map[string]bool{}
	rep := 0
	for _, r := range reqs {
		if seen[r.Key] {
			rep++
		}
		seen[r.Key] = true
	}
	return float64(rep) / float64(len(reqs))
}
