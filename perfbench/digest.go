package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"nalix"
	"nalix/internal/server"
	"nalix/internal/xmldb"
)

// digestDir holds the committed answer digests, one file per corpus
// tier, relative to the checkout root the benchmark runs from.
const digestDir = "perfbench/digests"

// digests maps a request key to its committed answer digest.
type digests map[string]string

func digestPath(tier string) string { return filepath.Join(digestDir, tier+".json") }

func loadDigests(tier string) (digests, error) {
	b, err := os.ReadFile(digestPath(tier))
	if err != nil {
		return nil, fmt.Errorf("reading committed digests: %w", err)
	}
	var d digests
	if err := json.Unmarshal(b, &d); err != nil {
		return nil, fmt.Errorf("parsing %s: %w", digestPath(tier), err)
	}
	return d, nil
}

// gate checks served answers against the committed digests. It also
// keeps the first digest served for every key, which the traced
// decomposition must reproduce.
type gate struct {
	want digests
	mu   sync.Mutex
	got  map[string]string
}

func newGate(want digests) *gate { return &gate{want: want, got: map[string]string{}} }

// check reports whether o is a correct answer to r: status 200 and the
// committed digest. A feedback rejection is a correct answer when the
// committed digest says so.
func (g *gate) check(r request, o outcome) bool {
	if o.status != 200 {
		return false
	}
	g.mu.Lock()
	if _, ok := g.got[r.Key]; !ok {
		g.got[r.Key] = o.digest
	}
	g.mu.Unlock()
	want, ok := g.want[r.Key]
	return ok && want == o.digest
}

// served returns the first digest served for a key.
func (g *gate) served(key string) (string, bool) {
	g.mu.Lock()
	defer g.mu.Unlock()
	d, ok := g.got[key]
	return d, ok
}

// engineDigest answers r on a plain engine and digests the answer the
// way the server would present it.
func engineDigest(eng *nalix.Engine, r request) (string, bool, error) {
	switch r.Endpoint {
	case "ask":
		ans, err := eng.Ask("", r.Text)
		if err != nil {
			return "", false, err
		}
		return digestOf(ans.Accepted, server.FirstErrorCode(ans.Feedback), ans.Results), ans.Accepted, nil
	case "keyword":
		hits, err := eng.KeywordSearch("", r.Text)
		if err != nil {
			return "", false, err
		}
		return digestOf(true, "", hits), true, nil
	case "query":
		ans, err := eng.Query(r.Text)
		if err != nil {
			return "", false, err
		}
		return digestOf(true, "", ans.Results), true, nil
	}
	return "", false, fmt.Errorf("unknown endpoint %q", r.Endpoint)
}

// tierUniverse lists every request any seed of the tier's workloads
// can send, including the traced run's probes.
func tierUniverse(tier string, doc *xmldb.Document) []request {
	var out []request
	if tier == "73k" {
		asks, keywords, queries := hotSet()
		out = append(append(append(out, asks...), keywords...), queries...)
	}
	tmpls := append(append([]template(nil), freshTemplates...), probeTemplates...)
	return append(out, universe(vocabFrom(doc), tmpls)...)
}

// record digests the whole universe of a tier on an uncached engine
// and writes the committed file. An Invalid template that a constant
// lets through, or an accepted template that a constant gets rejected,
// is an error: the workload's accepted/rejected split must not depend
// on the seed.
func record(tier string, scale int) error {
	doc := corpus(scale)
	eng := nalix.New()
	eng.LoadDocument(doc)
	rejected := map[string]bool{}
	for _, t := range append(append([]template(nil), freshTemplates...), probeTemplates...) {
		rejected[t.Endpoint+":"+t.ID] = t.Rejected
	}
	out := digests{}
	for _, r := range tierUniverse(tier, doc) {
		d, accepted, err := engineDigest(eng, r)
		if err != nil {
			return fmt.Errorf("%s: %w", r.Key, err)
		}
		if rej, ok := rejected[r.Shape]; ok && rej == accepted {
			return fmt.Errorf("%s: accepted=%v, template says rejected=%v", r.Key, accepted, rej)
		}
		out[r.Key] = d
	}
	b, err := json.MarshalIndent(out, "", " ") // keys sorted
	if err != nil {
		return err
	}
	if err := os.MkdirAll(digestDir, 0o755); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "recorded %d digests for tier %s\n", len(out), tier)
	return os.WriteFile(digestPath(tier), append(b, '\n'), 0o644)
}
