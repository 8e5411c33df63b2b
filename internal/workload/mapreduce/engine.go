package mapreduce

import (
	"fmt"
	"hash/fnv"
	"slices"
	"strings"
)

// KV is one key/value pair.
type KV struct {
	Key, Value string
}

// Mapper transforms one input split record-by-record.
type Mapper interface {
	// Map processes one record and emits intermediate pairs.
	Map(record string, emit func(key, value string))
}

// Reducer folds all values of one key.
type Reducer interface {
	// Reduce processes one key group and emits output pairs.
	Reduce(key string, values []string, emit func(key, value string))
}

// Combiner optionally pre-aggregates map output before the shuffle
// (Hadoop's combiner); any Reducer can serve as one.
type Combiner = Reducer

// Job describes one MapReduce execution.
type Job struct {
	Name        string
	Input       string // DFS file
	Output      string // DFS file to create
	Mapper      Mapper
	Reducer     Reducer
	Combiner    Combiner // optional
	ReduceTasks int
}

// TaskStats records the measured work of one task — the quantities the
// workload generator maps onto resource demands.
type TaskStats struct {
	// Kind is "map" or "reduce".
	Kind string
	// InputBytes read (chunk bytes for maps, shuffle bytes for reduces).
	InputBytes int64
	// Records processed.
	Records int64
	// OutputBytes emitted (shuffle bytes for maps, DFS bytes for reduces).
	OutputBytes int64
	// Node is the datanode the map input was served from (-1 for
	// reduces).
	Node int
}

// JobResult summarizes a completed job.
type JobResult struct {
	MapTasks    []TaskStats
	ReduceTasks []TaskStats
	// ShuffleBytes is the total intermediate data moved.
	ShuffleBytes int64
	// OutputBytes is the total job output written to the DFS.
	OutputBytes int64
}

// TotalTasks returns the task count.
func (r JobResult) TotalTasks() int { return len(r.MapTasks) + len(r.ReduceTasks) }

// Validate reports structural job errors.
func (j Job) Validate() error {
	switch {
	case j.Input == "" || j.Output == "":
		return fmt.Errorf("mapreduce: job %q needs input and output", j.Name)
	case j.Mapper == nil || j.Reducer == nil:
		return fmt.Errorf("mapreduce: job %q needs mapper and reducer", j.Name)
	case j.ReduceTasks <= 0:
		return fmt.Errorf("mapreduce: job %q needs reduce tasks > 0", j.Name)
	}
	return nil
}

// Run executes the job to completion: one map task per input chunk,
// hash partitioning into ReduceTasks buckets, per-partition sort, and
// the reduce phase writing the output file. Execution is sequential and
// deterministic; the surrounding performance simulation models the
// parallelism (DESIGN.md §2).
func Run(d *DFS, job Job) (JobResult, error) {
	if err := job.Validate(); err != nil {
		return JobResult{}, err
	}
	nChunks, err := d.FileChunks(job.Input)
	if err != nil {
		return JobResult{}, err
	}
	if d.Exists(job.Output) {
		return JobResult{}, fmt.Errorf("mapreduce: output %q exists", job.Output)
	}

	var res JobResult
	partitions := make([][]KV, job.ReduceTasks)

	// Map phase: one task per chunk. Records are attributed to the chunk
	// where they START (Hadoop's TextInputFormat semantics: a reader
	// skips the partial first line of its split and reads past the split
	// end to finish its last record), so records crossing chunk
	// boundaries are processed exactly once.
	chunkRecords, err := recordsByChunk(d, job.Input)
	if err != nil {
		return JobResult{}, err
	}
	for c := 0; c < nChunks; c++ {
		data, node, err := d.ReadChunk(job.Input, c)
		if err != nil {
			return JobResult{}, err
		}
		st := TaskStats{Kind: "map", InputBytes: int64(len(data)), Node: node}

		var mapOut []KV
		emit := func(k, v string) { mapOut = append(mapOut, KV{k, v}) }
		for _, record := range chunkRecords[c] {
			st.Records++
			job.Mapper.Map(record, emit)
		}
		if job.Combiner != nil {
			mapOut = combine(mapOut, job.Combiner)
		}
		for _, kv := range mapOut {
			p := partitionOf(kv.Key, job.ReduceTasks)
			partitions[p] = append(partitions[p], kv)
			bytes := int64(len(kv.Key) + len(kv.Value) + 2)
			st.OutputBytes += bytes
			res.ShuffleBytes += bytes
		}
		res.MapTasks = append(res.MapTasks, st)
	}

	// Reduce phase.
	var output []byte
	for p := 0; p < job.ReduceTasks; p++ {
		st := TaskStats{Kind: "reduce", Node: -1}
		for _, kv := range partitions[p] {
			st.InputBytes += int64(len(kv.Key) + len(kv.Value) + 2)
		}
		emit := func(k, v string) {
			line := k + "\t" + v + "\n"
			output = append(output, line...)
			st.OutputBytes += int64(len(line))
		}
		groupByKey(partitions[p], func(key string, values []string) {
			st.Records++
			job.Reducer.Reduce(key, values, emit)
		})
		res.OutputBytes += st.OutputBytes
		res.ReduceTasks = append(res.ReduceTasks, st)
	}

	if err := d.Create(job.Output, output); err != nil {
		return JobResult{}, err
	}
	return res, nil
}

// combine groups map output by key and runs the combiner per group.
func combine(in []KV, c Combiner) []KV {
	var out []KV
	emit := func(k, v string) { out = append(out, KV{k, v}) }
	groupByKey(in, func(key string, values []string) { c.Reduce(key, values, emit) })
	return out
}

// groupByKey calls fn once per distinct key of pairs, in ascending key
// order, with that key's values in emission order: the groups a stable
// sort by key followed by a scan for runs of equal keys would deliver.
// It hashes pairs into groups and sorts only the distinct keys, so the
// cost is one map lookup per pair plus a sort of the key set, which for
// word count is far smaller than the pair list.
func groupByKey(pairs []KV, fn func(key string, values []string)) {
	ids := make([]int32, len(pairs))
	index := make(map[string]int32)
	var keys []string
	var counts []int
	for i, kv := range pairs {
		g, ok := index[kv.Key]
		if !ok {
			g = int32(len(keys))
			index[kv.Key] = g
			keys = append(keys, kv.Key)
			counts = append(counts, 0)
		}
		ids[i] = g
		counts[g]++
	}
	order := make([]int32, len(keys))
	for g := range order {
		order[g] = int32(g)
	}
	slices.SortFunc(order, func(a, b int32) int { return strings.Compare(keys[a], keys[b]) })

	// Lay the groups out back to back in key order; next[g] is where
	// group g's next value goes.
	next := make([]int, len(keys))
	off := 0
	for _, g := range order {
		next[g] = off
		off += counts[g]
	}
	values := make([]string, len(pairs))
	for i, kv := range pairs {
		values[next[ids[i]]] = kv.Value
		next[ids[i]]++
	}
	off = 0
	for _, g := range order {
		end := off + counts[g]
		fn(keys[g], values[off:end:end])
		off = end
	}
}

// partitionOf hashes a key into a reduce bucket (Hadoop's default
// HashPartitioner).
func partitionOf(key string, n int) int {
	h := fnv.New32a()
	h.Write([]byte(key))
	return int(h.Sum32() % uint32(n))
}

// recordsByChunk splits the file into newline-delimited records and
// attributes each record to the chunk containing its first byte,
// mirroring TextInputFormat's split handling.
func recordsByChunk(d *DFS, name string) ([][]string, error) {
	data, err := d.ReadAll(name)
	if err != nil {
		return nil, err
	}
	nChunks, err := d.FileChunks(name)
	if err != nil {
		return nil, err
	}
	chunkBytes := d.Config().ChunkBytes
	out := make([][]string, nChunks)
	start := 0
	addRecord := func(lo, hi int) {
		if hi <= lo {
			return
		}
		c := lo / chunkBytes
		if c >= nChunks {
			c = nChunks - 1
		}
		out[c] = append(out[c], string(data[lo:hi]))
	}
	for i, b := range data {
		if b == '\n' {
			addRecord(start, i)
			start = i + 1
		}
	}
	addRecord(start, len(data))
	return out, nil
}
