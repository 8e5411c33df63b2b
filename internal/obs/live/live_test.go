package live

import (
	"reflect"
	"runtime"
	"sync"
	"testing"
)

type item struct {
	Index int
	Name  string
}

func appendN(v *View[item], from, to int) {
	for i := from; i < to; i++ {
		v.Append(item{Index: i, Name: "w"})
	}
}

func TestLoadBeforeFirstAppend(t *testing.T) {
	var v View[item]
	if got := v.Load(); got != nil {
		t.Fatalf("Load of an empty view = %v, want nil", got)
	}
}

// A loaded view is never written by later appends, and a reader that
// appends to it gets its own array.
func TestLoadUnchangedByLaterAppends(t *testing.T) {
	var v View[item]
	appendN(&v, 0, 5)
	view := v.Load()
	if len(view) != 5 || cap(view) != len(view) {
		t.Fatalf("view len %d cap %d, want a full-slice view of 5", len(view), cap(view))
	}
	before := append([]item(nil), view...)
	appendN(&v, 5, 300)
	if !reflect.DeepEqual(view, before) {
		t.Fatalf("earlier view changed after more appends: %v, want %v", view, before)
	}
	grown := append(view, item{Index: -1})
	now := v.Load()
	if len(now) != 300 || now[len(view)].Index != len(view) || grown[len(view)].Index != -1 {
		t.Fatalf("append to a view reached the live list (live len %d)", len(now))
	}
}

// A reader polling Load while the owner appends must be race free (run
// under -race) and always see a consistent prefix.
func TestConcurrentReader(t *testing.T) {
	var v View[item]
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			for i, x := range v.Load() {
				if x.Index != i || x.Name != "w" {
					t.Errorf("reader saw slot %d as %+v", i, x)
					return
				}
			}
		}
	}()
	for i := 0; i < 2000; i += 50 {
		appendN(&v, i, i+50)
		runtime.Gosched()
	}
	close(done)
	wg.Wait()
	if n := len(v.Load()); n != 2000 {
		t.Fatalf("view holds %d items, want 2000", n)
	}
}

// Reset publishes a copy of its argument on a new array: views loaded
// before it, and the argument itself, are untouched by what follows.
func TestResetStartsNewArray(t *testing.T) {
	var v View[item]
	appendN(&v, 0, 10)
	old := v.Load()
	before := append([]item(nil), old...)
	from := []item{{Index: 0, Name: "reset"}, {Index: 1, Name: "reset"}}
	v.Reset(from)
	if got := v.Load(); !reflect.DeepEqual(got, from) || cap(got) != len(got) {
		t.Fatalf("after Reset Load = %v (cap %d), want %v as a full slice", got, cap(got), from)
	}
	from[0].Name = "changed"
	appendN(&v, 2, 40)
	if !reflect.DeepEqual(old, before) {
		t.Fatal("a view loaded before Reset changed")
	}
	if got := v.Load(); got[0].Name != "reset" || len(got) != 40 {
		t.Fatalf("after Reset and appends Load = %d items starting %+v", len(got), got[0])
	}
}

// appendCost returns the allocations and heap bytes per Append to a
// view that already holds n items.
func appendCost(n int) (allocs, bytesPerAppend float64) {
	const appends = 2048
	var v View[item]
	appendN(&v, 0, n)
	next := n
	allocs = testing.AllocsPerRun(appends, func() {
		v.Append(item{Index: next})
		next++
	})
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < appends; i++ {
		v.Append(item{Index: next})
		next++
	}
	runtime.ReadMemStats(&m1)
	return allocs, float64(m1.TotalAlloc-m0.TotalAlloc) / appends
}

// An Append costs the same whatever the length of the list. Publishing
// a copy of the whole list would keep the allocation count flat but
// make the bytes per append grow with the length, so both are bounded.
func TestAppendCostIndependentOfLength(t *testing.T) {
	fewA, fewB := appendCost(16)
	manyA, manyB := appendCost(16384)
	t.Logf("per append: %.1f allocs / %.0f B at 16 items, %.1f allocs / %.0f B at 16384 items", fewA, fewB, manyA, manyB)
	if manyA > fewA+1 {
		t.Errorf("allocs per append grew from %.1f to %.1f", fewA, manyA)
	}
	if manyB > 4*fewB {
		t.Errorf("bytes per append grew from %.0f to %.0f", fewB, manyB)
	}
}
