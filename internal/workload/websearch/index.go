// Package websearch implements the unstructured-data benchmark of the
// suite (Table 1): an in-memory inverted-index search engine standing in
// for the paper's Nutch/Tomcat/Apache stack.
//
// A synthetic corpus is generated with Zipf-distributed term frequencies
// and indexed into posting lists. Queries draw keywords from a Zipf
// distribution over the vocabulary (after Xie & O'Hallaron, as in the
// paper) with real-world keyword-count patterns, and are executed with
// BM25 scoring over the posting lists. As in the paper's setup, only a
// fraction of index terms (25% by default) is cached in memory; queries
// touching cold terms incur disk reads for their posting lists.
package websearch

import (
	"container/heap"
	"fmt"
	"math"
	"sort"
	"sync"

	"warehousesim/internal/stats"
)

// Posting is one (document, term-frequency) entry of a posting list.
type Posting struct {
	Doc int32
	TF  uint16
}

// Config sizes the synthetic corpus and index.
type Config struct {
	// NumDocs is the corpus size (the paper indexes 1.3M documents; the
	// default engine scales this down for simulation speed, as the paper
	// itself did for its COTSon runs).
	NumDocs int
	// VocabSize is the number of distinct terms.
	VocabSize int
	// MeanDocLen is the mean document length in tokens.
	MeanDocLen int
	// CorpusZipfS shapes term frequency in documents.
	CorpusZipfS float64
	// QueryZipfS shapes keyword popularity in queries.
	QueryZipfS float64
	// CachedTermFraction is the fraction of index terms whose posting
	// lists are memory-resident ("25% of index terms cached in memory",
	// Table 1).
	CachedTermFraction float64
	// Seed drives corpus generation.
	Seed uint64
}

// DefaultConfig returns a corpus sized for fast simulation while keeping
// realistic index statistics.
func DefaultConfig() Config {
	return Config{
		NumDocs:            20000,
		VocabSize:          20000,
		MeanDocLen:         200,
		CorpusZipfS:        1.0,
		QueryZipfS:         0.9,
		CachedTermFraction: 0.25,
		Seed:               1,
	}
}

// Validate reports nonsensical configurations.
func (c Config) Validate() error {
	switch {
	case c.NumDocs <= 0 || c.VocabSize <= 0 || c.MeanDocLen <= 0:
		return fmt.Errorf("websearch: non-positive corpus dimensions %+v", c)
	case c.CorpusZipfS <= 0 || c.QueryZipfS <= 0:
		return fmt.Errorf("websearch: non-positive zipf shapes")
	case c.CachedTermFraction < 0 || c.CachedTermFraction > 1:
		return fmt.Errorf("websearch: cached fraction %g outside [0,1]", c.CachedTermFraction)
	}
	return nil
}

// Index is an immutable in-memory inverted index over the synthetic
// corpus.
type Index struct {
	cfg      Config
	postings [][]Posting
	// compressed[t] is term t's delta/varint-encoded posting list — the
	// on-disk representation cold reads actually move.
	compressed [][]byte
	docLen     []int32
	avgDL      float64
	// cached[t] reports whether term t's posting list is memory-resident.
	cached []bool
	// queryZipf drives keyword selection.
	queryZipf *stats.Zipf
	// kwCount draws the number of keywords per query.
	kwCount *stats.Empirical
	// scratch pools the *searchScratch accumulators Search borrows, so
	// concurrent searches of one index each get their own.
	scratch sync.Pool
}

// searchScratch is one search's dense score accumulator: acc[d] is
// document d's running BM25 score and touched lists the documents with a
// non-zero score, in first-scored order. Search leaves acc all zero and
// touched empty when it returns the scratch to the pool.
type searchScratch struct {
	acc     []float64
	touched []int32
}

// Build generates the corpus and indexes it. Deterministic for a given
// Config (including Seed).
func Build(cfg Config) (*Index, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	rng := stats.NewRNG(cfg.Seed)
	corpusZipf, err := stats.NewZipf(cfg.VocabSize, cfg.CorpusZipfS)
	if err != nil {
		return nil, err
	}
	queryZipf, err := stats.NewZipf(cfg.VocabSize, cfg.QueryZipfS)
	if err != nil {
		return nil, err
	}
	// Keyword-count mix follows observed real-world query patterns
	// (1-4 keywords dominate; cf. the paper's citation of [40]).
	kwCount, err := stats.NewEmpirical(
		[]float64{1, 2, 3, 4},
		[]float64{0.30, 0.38, 0.22, 0.10},
	)
	if err != nil {
		return nil, err
	}

	ix := &Index{
		cfg:       cfg,
		postings:  make([][]Posting, cfg.VocabSize),
		docLen:    make([]int32, cfg.NumDocs),
		cached:    make([]bool, cfg.VocabSize),
		queryZipf: queryZipf,
		kwCount:   kwCount,
	}

	// Generate documents and accumulate term frequencies in a dense
	// per-term counter; touched lists the terms of the current document
	// in first-occurrence order, so resetting costs only what was used.
	// Documents are generated in increasing id, so every posting list
	// comes out doc-ordered, as merging needs.
	tf := make([]uint16, cfg.VocabSize)
	var touched []int32
	totalLen := 0.0
	for d := 0; d < cfg.NumDocs; d++ {
		length := 1 + int(float64(cfg.MeanDocLen)*rng.ExpFloat64())
		if length > 8*cfg.MeanDocLen {
			length = 8 * cfg.MeanDocLen
		}
		ix.docLen[d] = int32(length)
		totalLen += float64(length)
		for i := 0; i < length; i++ {
			t := int32(corpusZipf.Rank(rng))
			if tf[t] == 0 {
				touched = append(touched, t)
			}
			if tf[t] < math.MaxUint16 {
				tf[t]++
			}
		}
		for _, t := range touched {
			ix.postings[t] = append(ix.postings[t], Posting{Doc: int32(d), TF: tf[t]})
			tf[t] = 0
		}
		touched = touched[:0]
	}
	ix.avgDL = totalLen / float64(cfg.NumDocs)

	// Compressed on-disk form of every posting list.
	ix.compressed = make([][]byte, cfg.VocabSize)
	for t, pl := range ix.postings {
		ix.compressed[t] = CompressPostings(pl)
	}

	// The hottest terms are cached (the paper caches 25% of index terms;
	// hot terms dominate query traffic under Zipf popularity).
	hot := int(cfg.CachedTermFraction * float64(cfg.VocabSize))
	for t := 0; t < hot; t++ {
		ix.cached[t] = true
	}
	return ix, nil
}

// Docs returns the corpus size.
func (ix *Index) Docs() int { return ix.cfg.NumDocs }

// Vocab returns the vocabulary size.
func (ix *Index) Vocab() int { return ix.cfg.VocabSize }

// PostingLen returns the posting-list length of term t.
func (ix *Index) PostingLen(t int) int { return len(ix.postings[t]) }

// Cached reports whether term t's posting list is memory-resident.
func (ix *Index) Cached(t int) bool { return ix.cached[t] }

// PostingBytes returns the on-disk size of term t's posting list
// (6 bytes per posting: doc id + tf, delta-encoded storage would be
// smaller but the constant factor is irrelevant to the model).
func (ix *Index) PostingBytes(t int) int { return 6 * len(ix.postings[t]) }

// Query is a keyword query.
type Query struct {
	Terms []int
}

// NewQuery draws a query: the keyword count from the empirical mix and
// each keyword from the query-popularity Zipf.
func (ix *Index) NewQuery(r *stats.RNG) Query {
	n := int(ix.kwCount.Sample(r))
	terms := make([]int, 0, n)
	for len(terms) < n {
		t := ix.queryZipf.Rank(r)
		// Avoid duplicate keywords within one query.
		dup := false
		for _, u := range terms {
			if u == t {
				dup = true
				break
			}
		}
		if !dup {
			terms = append(terms, t)
		}
	}
	return Query{Terms: terms}
}

// ScoredDoc is one ranked search hit.
type ScoredDoc struct {
	Doc   int32
	Score float64
}

// SearchStats records the work a query performed — the quantities the
// workload generator maps to resource demands.
type SearchStats struct {
	// PostingsScored is the number of postings BM25-scored.
	PostingsScored int
	// ColdTerms is the number of query terms whose posting lists were
	// not memory-resident.
	ColdTerms int
	// ColdBytes is the posting-list bytes read from disk.
	ColdBytes int
	// ResponseBytes approximates the result-page size returned to the
	// client.
	ResponseBytes int
}

// BM25 parameters (standard values).
const (
	bm25K1 = 1.2
	bm25B  = 0.75
)

// hitHeap is a min-heap of the current top-k, worst hit at the root.
type hitHeap []ScoredDoc

func (h hitHeap) Len() int           { return len(h) }
func (h hitHeap) Less(i, j int) bool { return ranksBelow(h[i], h[j]) }
func (h hitHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *hitHeap) Push(x any)        { *h = append(*h, x.(ScoredDoc)) }
func (h *hitHeap) Pop() any          { old := *h; n := len(old); v := old[n-1]; *h = old[:n-1]; return v }

// ranksBelow reports whether a ranks below b in the result order:
// a lower score, or an equal score and a larger document id. It is a
// total order on distinct documents, so the top-k is a pure function of
// the scores.
func ranksBelow(a, b ScoredDoc) bool {
	if a.Score != b.Score {
		return a.Score < b.Score
	}
	return a.Doc > b.Doc
}

// Search executes the query with term-at-a-time BM25 scoring and returns
// the top-k documents, best first (ties broken by lower document id),
// plus the work statistics.
func (ix *Index) Search(q Query, k int) ([]ScoredDoc, SearchStats) {
	var st SearchStats
	if len(q.Terms) == 0 || k <= 0 {
		return nil, st
	}
	sc, _ := ix.scratch.Get().(*searchScratch)
	if sc == nil {
		sc = &searchScratch{acc: make([]float64, ix.cfg.NumDocs)}
	}
	acc, touched := sc.acc, sc.touched[:0]
	n := float64(ix.cfg.NumDocs)
	for _, t := range q.Terms {
		if t < 0 || t >= len(ix.postings) {
			continue
		}
		pl := ix.postings[t]
		if len(pl) == 0 {
			continue
		}
		if !ix.cached[t] {
			st.ColdTerms++
			st.ColdBytes += ix.CompressedPostingBytes(t)
		}
		df := float64(len(pl))
		idf := math.Log(1 + (n-df+0.5)/(df+0.5))
		for _, p := range pl {
			tf := float64(p.TF)
			dl := float64(ix.docLen[p.Doc])
			score := idf * tf * (bm25K1 + 1) / (tf + bm25K1*(1-bm25B+bm25B*dl/ix.avgDL))
			// Every BM25 term score is positive (idf > 0 as df <= N,
			// tf >= 1), so a zero accumulator means an unscored doc.
			if acc[p.Doc] == 0 {
				touched = append(touched, p.Doc)
			}
			acc[p.Doc] += score
			st.PostingsScored++
		}
	}

	h := make(hitHeap, 0, k)
	for _, doc := range touched {
		hit := ScoredDoc{Doc: doc, Score: acc[doc]}
		acc[doc] = 0
		switch {
		case len(h) < k:
			h = append(h, hit)
			if len(h) == k {
				heap.Init(&h)
			}
		case ranksBelow(h[0], hit):
			h[0] = hit
			heap.Fix(&h, 0)
		}
	}
	hits := []ScoredDoc(h)
	sort.Slice(hits, func(i, j int) bool { return ranksBelow(hits[j], hits[i]) })
	sc.touched = touched[:0]
	ix.scratch.Put(sc)
	// ~300 bytes of snippet+metadata per hit plus page chrome.
	st.ResponseBytes = 2048 + 300*len(hits)
	return hits, st
}
