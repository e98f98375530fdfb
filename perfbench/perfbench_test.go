package main

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"nalix"
	"nalix/internal/cache"
	"nalix/internal/server"
)

func TestTailPercentileLeavesTenBeyond(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{20000, 99.9}, // rank 19980, 20 beyond
		{3300, 99},    // p99.9 would leave 3
		{1000, 99},    // rank 990, 10 beyond
		{750, 90},     // p99 leaves 7
		{100, 90},
		{20, 50},
		{5, 50},
	} {
		if got := tailPercentile(c.n, 10); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
}

func TestHarrellDavisQuantile(t *testing.T) {
	flat := []float64{7, 7, 7, 7, 7}
	if got := hdQuantile(flat, 0.9); math.Abs(got-7) > 1e-9 {
		t.Errorf("quantile of a constant sample = %v, want 7", got)
	}
	// 1..1000: the true p-quantile of the uniform grid is about 1000p.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	for _, p := range []float64{0.5, 0.9, 0.99} {
		if got, want := hdQuantile(xs, p), p*1001; math.Abs(got-want) > 0.5 {
			t.Errorf("hdQuantile(1..1000, %v) = %v, want %v", p, got, want)
		}
	}
	if got := regIncBeta(0.3, 2, 5); math.Abs(got-0.579825) > 1e-6 { // I_0.3(2,5)
		t.Errorf("regIncBeta(0.3, 2, 5) = %v, want 0.579825", got)
	}
	xs[995] = math.Inf(1) // a failure among the weighted tail samples
	sort.Float64s(xs)
	if got := hdQuantile(xs, 0.99); !math.IsInf(got, 1) {
		t.Errorf("p99 with a failure beyond it = %v, want +Inf", got)
	}
	if got := hdQuantile(xs, 0.5); math.IsInf(got, 0) {
		t.Errorf("p50 = %v: a failure far from the median must not carry weight", got)
	}
}

func TestFailuresCountAsInfiniteLatency(t *testing.T) {
	p := pass{results: make([]result, 20)}
	for i := range p.results {
		p.results[i] = result{latency: time.Duration(i+1) * time.Millisecond}
	}
	p.results[3].failed = true // 4 ms, but failed
	lats := p.latencies()
	if !math.IsInf(lats[len(lats)-1], 1) {
		t.Fatalf("slowest latency = %v, want +Inf for the failed request", lats[len(lats)-1])
	}
	if got := percentile(lats, 50); got != 11 {
		t.Errorf("p50 = %v ms, want 11 (the failure moved the median up one rank)", got)
	}
	if got := percentile(lats, 100); !math.IsInf(got, 1) {
		t.Errorf("p100 = %v, want +Inf", got)
	}
}

// encodeResponse renders an answer exactly as the server's writeJSON.
func encodeResponse(t *testing.T, ans *nalix.Answer, question string) []byte {
	t.Helper()
	resp := server.FromAnswer("ask", "", question, ans)
	resp.RequestID = "abc-000001"
	resp.Cache = "hit"
	var b bytes.Buffer
	if err := json.NewEncoder(&b).Encode(resp); err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

func TestDigestOfServedBodyMatchesAnswer(t *testing.T) {
	ans := &nalix.Answer{
		Accepted: true,
		Results:  []string{`<title>a "quoted" ],[ <b>&amp;</b></title>`, `<year>1994</year>`, `\`},
		Values:   []string{"x"},
	}
	body := encodeResponse(t, ans, `Find "results":[ and "accepted":false`)
	got, accepted, err := digestResponse(body)
	if err != nil {
		t.Fatal(err)
	}
	if want := digestOf(true, "", ans.Results); got != want || !accepted {
		t.Fatalf("served digest %s accepted=%v, want %s accepted=true", got, accepted, want)
	}

	rej := &nalix.Answer{Feedback: []nalix.Feedback{{IsError: true, Code: "unknown-term", Message: "m"}}}
	got, accepted, err = digestResponse(encodeResponse(t, rej, "q"))
	if err != nil {
		t.Fatal(err)
	}
	if want := digestOf(false, "unknown-term", nil); got != want || accepted {
		t.Fatalf("rejection digest %s accepted=%v, want %s accepted=false", got, accepted, want)
	}
}

func TestGateDetectsMismatch(t *testing.T) {
	right := digestOf(true, "", []string{"<t>a</t>"})
	wrongOrder := digestOf(true, "", []string{"<t>b</t>", "<t>a</t>"})
	g := newGate(digests{"ask|k": right})
	r := request{Endpoint: "ask", Key: "ask|k"}
	for _, c := range []struct {
		name string
		o    outcome
		ok   bool
	}{
		{"match", outcome{status: 200, digest: right}, true},
		{"different results", outcome{status: 200, digest: wrongOrder}, false},
		{"rejected instead", outcome{status: 200, digest: digestOf(false, "no-command", nil)}, false},
		{"non-200", outcome{status: 422}, false},
	} {
		if got := g.check(r, c.o); got != c.ok {
			t.Errorf("%s: check = %v, want %v", c.name, got, c.ok)
		}
	}
	if g.check(request{Endpoint: "ask", Key: "ask|unknown"}, outcome{status: 200, digest: right}) {
		t.Error("a question without a committed digest passed the gate")
	}
	if first, _ := g.served("ask|k"); first != right {
		t.Errorf("first served digest = %s, want %s", first, right)
	}
}

func testVocab() vocab {
	return vocab{
		Publishers:   []string{"Addison-Wesley", "Springer", "MIT Press"},
		Journals:     []string{"ACM TODS", "VLDB Journal"},
		Affiliations: []string{"CITI", "INRIA"},
		Years:        []string{"1990", "1991", "1992", "1993", "1994", "1995", "1996", "1997", "1998", "1999"},
		Names:        []string{"Dan", "Suciu", "Gray", "Widom", "Jim", "Mary", "Serge", "Peter", "Alon", "Laura", "Rakesh", "Susan"},
		Words:        []string{"Mining", "Streams", "Warehousing", "Integration", "Retrieval", "Matching", "Services", "Indexing", "Maintenance", "Survey", "Tutorial", "Practice"},
	}
}

func TestTrafficIsDeterministicPerSeed(t *testing.T) {
	for _, w := range workloads {
		a, err := makeTraffic(w, 7, 24, testVocab(), true)
		if err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		b, err := makeTraffic(w, 7, 24, testVocab(), true)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two draws of seed 7 differ", w.name)
		}
		untraced, err := makeTraffic(w, 7, 24, testVocab(), false)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.timed, untraced.timed) || !reflect.DeepEqual(a.at, untraced.at) || !reflect.DeepEqual(a.warm, untraced.warm) {
			t.Errorf("%s: the traced run times other requests than the untraced run", w.name)
		}
		c, err := makeTraffic(w, 8, 24, testVocab(), true)
		if err != nil {
			t.Fatal(err)
		}
		if reflect.DeepEqual(a.timed, c.timed) {
			t.Errorf("%s: seeds 7 and 8 sent the same requests", w.name)
		}
	}
}

func TestFreshQuestionsArePairwiseDistinct(t *testing.T) {
	w := workloads[1] // fresh-1M
	tr, err := makeTraffic(w, 3, 24, testVocab(), true)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, r := range append(append(append([]request(nil), tr.warm...), tr.timed...), tr.probes...) {
		k := r.Endpoint + "|" + cache.CanonicalQuery(r.Text)
		if seen[k] {
			t.Fatalf("fresh question repeats: %q", r.Text)
		}
		seen[k] = true
	}
	if got := repeatShare(tr.timed); got != 0 {
		t.Errorf("fresh repeat share = %v, want 0", got)
	}
}

func TestStudyReplayMix(t *testing.T) {
	reqs := studyReplay(rand.New(rand.NewSource(1)), 2000, true)
	count := map[string]int{}
	for _, r := range reqs {
		count[r.Endpoint]++
	}
	if count["ask"] != 1800 || count["keyword"] != 100 || count["query"] != 100 {
		t.Errorf("mix = %v, want 1800 ask, 100 keyword, 100 query", count)
	}
	asks, _, _ := hotSet()
	byKey := map[string]string{}
	for _, a := range asks {
		byKey[a.Key] = a.Text
	}
	for _, r := range reqs {
		if r.Endpoint == "ask" && cache.CanonicalQuery(r.Text) != cache.CanonicalQuery(byKey[r.Key]) {
			t.Fatalf("variant %q is not the phrasing %q up to canonicalization", r.Text, byKey[r.Key])
		}
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "request", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},   // overlaps a: counted once
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120},  // only 90-100 is inside
		{ID: 5, Parent: 3, Name: "b.1", Start: 25, End: 35}, // grandchild: b's, not request's
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 50, 2: 20, 3: 20, 4: 30, 5: 10} {
		if self[id] != want {
			t.Errorf("self time of span %d = %v, want %v", id, self[id], want)
		}
	}
}

func TestArrivalsArePoissonAtRate(t *testing.T) {
	at := arrivals(rand.New(rand.NewSource(1)), 5000, 100)
	mean := at[len(at)-1].Seconds() / float64(len(at))
	if math.Abs(mean-0.01) > 0.001 {
		t.Errorf("mean gap %.4fs, want about 0.01s at 100/s", mean)
	}
	for i := 1; i < len(at); i++ {
		if at[i] < at[i-1] {
			t.Fatal("arrival offsets are not ascending")
		}
	}
}
