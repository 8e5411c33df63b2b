package mapreduce

import (
	"fmt"
	"strconv"
	"strings"

	"warehousesim/internal/stats"
)

// WordCountMapper tokenizes records and emits (word, 1) — the paper's
// mapreduce-wc job.
type WordCountMapper struct{}

// Map implements Mapper.
func (WordCountMapper) Map(record string, emit func(key, value string)) {
	for _, w := range strings.Fields(record) {
		emit(w, "1")
	}
}

// SumReducer adds integer values per key (word count's reducer and
// combiner).
type SumReducer struct{}

// Reduce implements Reducer.
func (SumReducer) Reduce(key string, values []string, emit func(key, value string)) {
	sum := 0
	for _, v := range values {
		n, err := strconv.Atoi(v)
		if err != nil {
			// Malformed intermediate data is a programming error in this
			// closed system; count it as 1 to stay total.
			n = 1
		}
		sum += n
	}
	emit(key, strconv.Itoa(sum))
}

// CorpusConfig sizes the synthetic text corpus for word count.
type CorpusConfig struct {
	// TotalBytes of text to generate (the paper's job counts words over
	// a 5 GB corpus; default engines scale down).
	TotalBytes int64
	// Vocabulary is the distinct word count.
	Vocabulary int
	// ZipfS shapes word frequency.
	ZipfS float64
	// WordsPerLine controls record length.
	WordsPerLine int
	// Seed drives generation.
	Seed uint64
}

// DefaultCorpusConfig returns a corpus sized for fast tests.
func DefaultCorpusConfig() CorpusConfig {
	return CorpusConfig{
		TotalBytes:   8 << 20,
		Vocabulary:   20000,
		ZipfS:        1.0,
		WordsPerLine: 12,
		Seed:         1,
	}
}

// Validate reports nonsensical configurations.
func (c CorpusConfig) Validate() error {
	switch {
	case c.TotalBytes <= 0:
		return fmt.Errorf("mapreduce: corpus bytes must be positive")
	case c.Vocabulary <= 0:
		return fmt.Errorf("mapreduce: vocabulary must be positive")
	case c.ZipfS <= 0:
		return fmt.Errorf("mapreduce: zipf shape must be positive")
	case c.WordsPerLine <= 0:
		return fmt.Errorf("mapreduce: words per line must be positive")
	}
	return nil
}

// GenerateCorpus writes a synthetic Zipf-worded text file into the DFS.
func GenerateCorpus(d *DFS, name string, cfg CorpusConfig) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	z, err := stats.NewZipf(cfg.Vocabulary, cfg.ZipfS)
	if err != nil {
		return err
	}
	words := vocabulary(cfg.Vocabulary)
	r := stats.NewRNG(cfg.Seed)
	buf := make([]byte, 0, cfg.TotalBytes+256)
	for int64(len(buf)) < cfg.TotalBytes {
		buf = appendLine(buf, words, z, r, cfg.WordsPerLine)
	}
	return d.Create(name, buf)
}

// appendLine appends one record of n Zipf-drawn words, space-separated
// and newline-terminated.
func appendLine(buf []byte, words []string, z *stats.Zipf, r *stats.RNG, n int) []byte {
	for w := 0; w < n; w++ {
		if w > 0 {
			buf = append(buf, ' ')
		}
		buf = append(buf, words[z.Rank(r)]...)
	}
	return append(buf, '\n')
}

// vocabulary renders ranks [0, n) once, so generation indexes a table
// instead of formatting a word per draw.
func vocabulary(n int) []string {
	words := make([]string, n)
	for i := range words {
		words[i] = wordOf(i)
	}
	return words
}

// wordOf renders rank i as a deterministic pseudo-word ("w" + base26).
func wordOf(i int) string {
	const letters = "abcdefghijklmnopqrstuvwxyz"
	if i == 0 {
		return "wa"
	}
	var buf [16]byte
	n := len(buf)
	for i > 0 {
		n--
		buf[n] = letters[i%26]
		i /= 26
	}
	return "w" + string(buf[n:])
}

// WordCountJob builds the paper's mapred-wc job over the given input.
func WordCountJob(input, output string) Job {
	return Job{
		Name:        "mapred-wc",
		Input:       input,
		Output:      output,
		Mapper:      WordCountMapper{},
		Reducer:     SumReducer{},
		Combiner:    SumReducer{},
		ReduceTasks: 16,
	}
}

// RunWrite executes the paper's mapred-wr job: tasks generate random
// words and populate the file system. Each task writes one chunk-sized
// file; the returned stats mirror JobResult's map tasks.
func RunWrite(d *DFS, prefix string, tasks int, bytesPerTask int, cfg CorpusConfig) ([]TaskStats, error) {
	if tasks <= 0 || bytesPerTask <= 0 {
		return nil, fmt.Errorf("mapreduce: write job needs positive tasks and sizes")
	}
	z, err := stats.NewZipf(cfg.Vocabulary, cfg.ZipfS)
	if err != nil {
		return nil, err
	}
	words := vocabulary(cfg.Vocabulary)
	r := stats.NewRNG(cfg.Seed)
	var out []TaskStats
	// One buffer serves every task: Create copies the bytes it stores.
	data := make([]byte, 0, bytesPerTask+256)
	for t := 0; t < tasks; t++ {
		data = data[:0]
		records := int64(0)
		for len(data) < bytesPerTask {
			data = appendLine(data, words, z, r, cfg.WordsPerLine)
			records++
		}
		name := fmt.Sprintf("%s-%05d", prefix, t)
		if err := d.Create(name, data); err != nil {
			return nil, err
		}
		out = append(out, TaskStats{
			Kind:        "write",
			Records:     records,
			OutputBytes: int64(len(data)) * int64(d.Config().Replication),
			Node:        -1,
		})
	}
	return out, nil
}
