package mapreduce

import (
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"warehousesim/internal/stats"
	"warehousesim/internal/workload"
)

// positionMapper emits (word, "<record>.<position>") for every word, so
// each value names where it was emitted and any reordering shows.
type positionMapper struct{}

func (positionMapper) Map(record string, emit func(key, value string)) {
	fields := strings.Fields(record)
	for i, w := range fields[1:] {
		emit(w, fields[0]+"."+strconv.Itoa(i))
	}
}

// concatReducer joins a group's values in the order it receives them;
// as a combiner its output value is itself order-sensitive.
type concatReducer struct{}

func (concatReducer) Reduce(key string, values []string, emit func(key, value string)) {
	emit(key, "["+strings.Join(values, ",")+"]")
}

// stableGroups is the reference grouping: a stable sort by key, then one
// call per run of equal keys, each with a fresh values slice.
func stableGroups(pairs []KV, fn func(key string, values []string)) {
	pairs = append([]KV(nil), pairs...)
	sort.SliceStable(pairs, func(i, j int) bool { return pairs[i].Key < pairs[j].Key })
	for i := 0; i < len(pairs); {
		j := i
		var values []string
		for j < len(pairs) && pairs[j].Key == pairs[i].Key {
			values = append(values, pairs[j].Value)
			j++
		}
		fn(pairs[i].Key, values)
		i = j
	}
}

// referenceRun is Run with stableGroups in place of groupByKey, for
// both the combiner and the reduce phase.
func referenceRun(t *testing.T, d *DFS, job Job) (JobResult, []byte) {
	t.Helper()
	nChunks, err := d.FileChunks(job.Input)
	if err != nil {
		t.Fatal(err)
	}
	chunkRecords, err := recordsByChunk(d, job.Input)
	if err != nil {
		t.Fatal(err)
	}
	var res JobResult
	partitions := make([][]KV, job.ReduceTasks)
	for c := 0; c < nChunks; c++ {
		data, node, err := d.ReadChunk(job.Input, c)
		if err != nil {
			t.Fatal(err)
		}
		st := TaskStats{Kind: "map", InputBytes: int64(len(data)), Node: node}
		var mapOut []KV
		emit := func(k, v string) { mapOut = append(mapOut, KV{k, v}) }
		for _, record := range chunkRecords[c] {
			st.Records++
			job.Mapper.Map(record, emit)
		}
		if job.Combiner != nil {
			var combined []KV
			cemit := func(k, v string) { combined = append(combined, KV{k, v}) }
			stableGroups(mapOut, func(k string, vs []string) { job.Combiner.Reduce(k, vs, cemit) })
			mapOut = combined
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
		stableGroups(partitions[p], func(k string, vs []string) {
			st.Records++
			job.Reducer.Reduce(k, vs, emit)
		})
		res.OutputBytes += st.OutputBytes
		res.ReduceTasks = append(res.ReduceTasks, st)
	}
	return res, output
}

// Hash grouping must hand every reducer and combiner exactly what the
// stable sort did: the same groups, in key order, with values in
// emission order.
func TestGroupByKeyMatchesStableSort(t *testing.T) {
	r := stats.NewRNG(11)
	var b strings.Builder
	for rec := 0; rec < 400; rec++ {
		b.WriteString("r" + strconv.Itoa(rec))
		for w := 0; w < 1+r.Intn(12); w++ {
			b.WriteString(" " + wordOf(r.Intn(40)))
		}
		b.WriteByte('\n')
	}
	// Chunk reads draw their serving replica from the DFS's RNG, so each
	// run gets its own identically seeded DFS.
	load := func() *DFS {
		d, err := NewDFS(DFSConfig{Nodes: 4, Replication: 2, ChunkBytes: 512}, 5)
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Create("in", []byte(b.String())); err != nil {
			t.Fatal(err)
		}
		return d
	}
	for _, combiner := range []Combiner{nil, concatReducer{}} {
		job := Job{Name: "concat", Input: "in", Output: "out", Mapper: positionMapper{},
			Reducer: concatReducer{}, Combiner: combiner, ReduceTasks: 5}
		want, wantOut := referenceRun(t, load(), job)
		d := load()
		got, err := Run(d, job)
		if err != nil {
			t.Fatal(err)
		}
		gotOut, err := d.ReadAll("out")
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("combiner %v: result\n%+v\nwant\n%+v", combiner != nil, got, want)
		}
		if string(gotOut) != string(wantOut) {
			t.Errorf("combiner %v: output differs from the stable-sort reference", combiner != nil)
		}
	}
}

// The default mapred-wc and mapred-wr engines feed fig4b and validate;
// their measured task work is pinned so a generation or grouping change
// that moves a single record shows here.
func TestDefaultEngineTaskStatsPinned(t *testing.T) {
	type sums struct{ tasks, records, in, out int64 }
	sum := func(e *Engine) map[string]sums {
		m := map[string]sums{}
		for _, st := range e.Tasks() {
			s := m[st.Kind]
			s.tasks++
			s.records += st.Records
			s.in += st.InputBytes
			s.out += st.OutputBytes
			m[st.Kind] = s
		}
		return m
	}
	wc, err := NewWordCount(DefaultCorpusConfig(), workload.MapReduceWCProfile())
	if err != nil {
		t.Fatal(err)
	}
	wr, err := NewWrite(DefaultCorpusConfig(), 64, workload.MapReduceWRProfile())
	if err != nil {
		t.Fatal(err)
	}
	for name, c := range map[string]struct{ got, want map[string]sums }{
		"mapred-wc": {sum(wc), map[string]sums{
			"map":    {tasks: 3, records: 176178, in: 8388635, out: 307562},
			"reduce": {tasks: 16, records: 19999, in: 307562, out: 162322},
		}},
		"mapred-wr": {sum(wr), map[string]sums{
			"write": {tasks: 64, records: 5637957, in: 0, out: 805310730},
		}},
	} {
		if !reflect.DeepEqual(c.got, c.want) {
			t.Errorf("%s task sums %+v, want %+v", name, c.got, c.want)
		}
	}
}
