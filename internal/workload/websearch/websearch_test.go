package websearch

import (
	"math"
	"reflect"
	"sort"
	"testing"
	"testing/quick"

	"warehousesim/internal/stats"
	"warehousesim/internal/workload"
)

func smallConfig() Config {
	return Config{
		NumDocs: 500, VocabSize: 800, MeanDocLen: 60,
		CorpusZipfS: 1.0, QueryZipfS: 0.9, CachedTermFraction: 0.25, Seed: 7,
	}
}

func TestConfigValidate(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatalf("default config invalid: %v", err)
	}
	bad := DefaultConfig()
	bad.NumDocs = 0
	if err := bad.Validate(); err == nil {
		t.Error("zero docs accepted")
	}
	bad = DefaultConfig()
	bad.CachedTermFraction = 1.5
	if err := bad.Validate(); err == nil {
		t.Error("cached fraction > 1 accepted")
	}
}

func TestBuildDeterministic(t *testing.T) {
	a, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	for tm := 0; tm < a.Vocab(); tm++ {
		if a.PostingLen(tm) != b.PostingLen(tm) {
			t.Fatalf("term %d posting lengths differ", tm)
		}
	}
}

func TestIndexStatistics(t *testing.T) {
	ix, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Zipf corpus: popular terms should have much longer posting lists.
	if ix.PostingLen(0) <= ix.PostingLen(ix.Vocab()-1) {
		t.Errorf("term 0 postings (%d) not longer than rarest (%d)",
			ix.PostingLen(0), ix.PostingLen(ix.Vocab()-1))
	}
	// Every posting list length is bounded by the corpus size.
	for tm := 0; tm < ix.Vocab(); tm++ {
		if ix.PostingLen(tm) > ix.Docs() {
			t.Fatalf("term %d has %d postings > %d docs", tm, ix.PostingLen(tm), ix.Docs())
		}
	}
	// Cached terms are the popular prefix.
	if !ix.Cached(0) {
		t.Error("hottest term not cached")
	}
	if ix.Cached(ix.Vocab() - 1) {
		t.Error("rarest term cached")
	}
}

func TestSearchReturnsRankedResults(t *testing.T) {
	ix, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(3)
	for i := 0; i < 50; i++ {
		q := ix.NewQuery(r)
		hits, st := ix.Search(q, 10)
		if len(hits) > 10 {
			t.Fatalf("more than k hits: %d", len(hits))
		}
		for j := 1; j < len(hits); j++ {
			if hits[j].Score > hits[j-1].Score {
				t.Fatalf("hits not score-ordered: %v", hits)
			}
		}
		if st.PostingsScored == 0 && len(hits) > 0 {
			t.Fatal("hits without scored postings")
		}
		if st.ColdTerms > len(q.Terms) {
			t.Fatalf("cold terms %d > query terms %d", st.ColdTerms, len(q.Terms))
		}
	}
}

func TestSearchEmptyQuery(t *testing.T) {
	ix, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	hits, st := ix.Search(Query{}, 10)
	if hits != nil || st.PostingsScored != 0 {
		t.Error("empty query produced work")
	}
	if hits, _ := ix.Search(Query{Terms: []int{0}}, 0); hits != nil {
		t.Error("k=0 returned hits")
	}
}

func TestSearchOutOfRangeTermIgnored(t *testing.T) {
	ix, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	_, st := ix.Search(Query{Terms: []int{-1, ix.Vocab() + 5}}, 10)
	if st.PostingsScored != 0 {
		t.Error("out-of-range terms scored postings")
	}
}

func TestTopKIsActuallyTopK(t *testing.T) {
	ix, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	q := Query{Terms: []int{0, 1}}
	top3, _ := ix.Search(q, 3)
	all, _ := ix.Search(q, ix.Docs())
	if len(top3) != 3 {
		t.Fatalf("expected 3 hits, got %d", len(top3))
	}
	for i := 0; i < 3; i++ {
		if math.Abs(top3[i].Score-all[i].Score) > 1e-12 {
			t.Fatalf("top-3 disagrees with full ranking at %d", i)
		}
	}
}

func TestQueryKeywordCounts(t *testing.T) {
	ix, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(5)
	counts := map[int]int{}
	for i := 0; i < 5000; i++ {
		q := ix.NewQuery(r)
		counts[len(q.Terms)]++
		seen := map[int]bool{}
		for _, tm := range q.Terms {
			if seen[tm] {
				t.Fatal("duplicate keyword in query")
			}
			seen[tm] = true
		}
	}
	for n := 1; n <= 4; n++ {
		if counts[n] == 0 {
			t.Errorf("no queries with %d keywords", n)
		}
	}
	if counts[0] > 0 || counts[5] > 0 {
		t.Errorf("keyword counts out of range: %v", counts)
	}
}

func TestEngineSampleMeansMatchProfile(t *testing.T) {
	prof := workload.WebsearchProfile()
	e, err := New(smallConfig(), prof)
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(11)
	var cpu, diskB, net stats.Summary
	for i := 0; i < 4000; i++ {
		req := e.Sample(r)
		cpu.Add(req.CPURefSec)
		diskB.Add(req.DiskReadBytes)
		net.Add(req.NetBytes)
		if req.CPURefSec < 0 || req.DiskReadBytes < 0 {
			t.Fatal("negative demand")
		}
	}
	if m := cpu.Mean(); math.Abs(m-prof.CPURefSec)/prof.CPURefSec > 0.15 {
		t.Errorf("CPU mean %g vs profile %g", m, prof.CPURefSec)
	}
	if m := diskB.Mean(); math.Abs(m-prof.DiskReadBytes)/prof.DiskReadBytes > 0.25 {
		t.Errorf("disk bytes mean %g vs profile %g", m, prof.DiskReadBytes)
	}
	if m := net.Mean(); math.Abs(m-prof.NetBytes)/prof.NetBytes > 0.25 {
		t.Errorf("net mean %g vs profile %g", m, prof.NetBytes)
	}
}

func TestTracePagesWithinFootprint(t *testing.T) {
	e, err := New(smallConfig(), workload.WebsearchProfile())
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(13)
	reads, writes := 0, 0
	for i := 0; i < 200; i++ {
		e.TracePages(r, func(page int64, write bool) {
			if page < 0 || page >= e.totalPages {
				t.Fatalf("page %d outside footprint %d", page, e.totalPages)
			}
			if write {
				writes++
			} else {
				reads++
			}
		})
	}
	if reads == 0 || writes == 0 {
		t.Errorf("trace lacks reads (%d) or writes (%d)", reads, writes)
	}
}

func TestTraceLocality(t *testing.T) {
	// Zipf query popularity must concentrate accesses on hot pages.
	e, err := New(smallConfig(), workload.WebsearchProfile())
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(17)
	counts := map[int64]int{}
	total := 0
	for i := 0; i < 2000; i++ {
		e.TracePages(r, func(page int64, write bool) {
			if !write {
				counts[page]++
				total++
			}
		})
	}
	distinct := len(counts)
	if distinct == 0 {
		t.Fatal("no read accesses traced")
	}
	// Top 10% of pages should carry well over 10% of accesses.
	freqs := make([]int, 0, distinct)
	for _, c := range counts {
		freqs = append(freqs, c)
	}
	// simple selection: count accesses above-median frequency
	hot := 0
	for _, c := range freqs {
		if c >= 10 {
			hot += c
		}
	}
	if float64(hot)/float64(total) < 0.2 {
		t.Errorf("trace shows no locality: hot fraction %.2f", float64(hot)/float64(total))
	}
}

// Property: search work statistics are internally consistent for random
// queries.
func TestQuickSearchStatsConsistent(t *testing.T) {
	ix, err := Build(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	f := func(seed uint64) bool {
		r := stats.NewRNG(seed)
		q := ix.NewQuery(r)
		hits, st := ix.Search(q, 5)
		if st.ColdBytes < 0 || st.PostingsScored < 0 {
			return false
		}
		if st.ColdTerms == 0 && st.ColdBytes != 0 {
			return false
		}
		return len(hits) <= 5
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// referenceTopK scores q into a map, fully sorts every candidate by
// score (ties to the lower doc id) and keeps the first k: the result
// Search's heap must reproduce.
func referenceTopK(ix *Index, q Query, k int) []ScoredDoc {
	n := float64(ix.cfg.NumDocs)
	acc := map[int32]float64{}
	for _, t := range q.Terms {
		if t < 0 || t >= len(ix.postings) || len(ix.postings[t]) == 0 {
			continue
		}
		df := float64(len(ix.postings[t]))
		idf := math.Log(1 + (n-df+0.5)/(df+0.5))
		for _, p := range ix.postings[t] {
			tf := float64(p.TF)
			dl := float64(ix.docLen[p.Doc])
			acc[p.Doc] += idf * tf * (bm25K1 + 1) / (tf + bm25K1*(1-bm25B+bm25B*dl/ix.avgDL))
		}
	}
	all := make([]ScoredDoc, 0, len(acc))
	for d, s := range acc {
		all = append(all, ScoredDoc{Doc: d, Score: s})
	}
	sort.Slice(all, func(i, j int) bool {
		if all[i].Score != all[j].Score {
			return all[i].Score > all[j].Score
		}
		return all[i].Doc < all[j].Doc
	})
	if len(all) > k {
		all = all[:k]
	}
	return all
}

// Hits must be a pure function of the query: tied scores at the k-th
// slot go to the lower doc id, so repeating a query, or comparing with a
// full sort, gives the same list.
func TestSearchTopKDeterministic(t *testing.T) {
	ix, err := Build(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	r := stats.NewRNG(3)
	for i := 0; i < 500; i++ {
		q := ix.NewQuery(r)
		want := referenceTopK(ix, q, 10)
		first, st1 := ix.Search(q, 10)
		again, st2 := ix.Search(q, 10)
		if !reflect.DeepEqual(first, want) || !reflect.DeepEqual(again, want) {
			t.Fatalf("query %d %v: hits %v then %v, full-sort reference %v", i, q.Terms, first, again, want)
		}
		if st1 != st2 {
			t.Fatalf("query %d: stats %+v then %+v", i, st1, st2)
		}
	}
}
