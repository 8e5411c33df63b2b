package obs

// Merging support for partitioned recording: each enclosure of a rack
// (and each hot rack of a fleet) records into its own Sink, and after
// the run the parts are folded into one export sink. The fold is
// deterministic: parts are passed in an order fixed by the model
// (enclosure order, rack id order), so the merged export is
// byte-identical however the parts were produced.

// Merge folds o's observations into h. Both histograms share the
// package-wide fixed bucket layout, so merging is exact.
func (h *Hist) Merge(o *Hist) {
	if o == nil || o.count == 0 {
		return
	}
	hasPos := h.count > h.underflow
	oPos := o.count > o.underflow
	if oPos {
		if !hasPos {
			h.min, h.max = o.min, o.max
		} else {
			if o.min < h.min {
				h.min = o.min
			}
			if o.max > h.max {
				h.max = o.max
			}
		}
	}
	h.count += o.count
	h.sum += o.sum
	h.underflow += o.underflow
	for i := range h.buckets {
		h.buckets[i] += o.buckets[i]
	}
}

// MergeFrom folds parts into s, in argument order:
//
//   - counters add;
//   - histograms with the same name merge exactly;
//   - series points append in part order (partitioned models give each
//     part distinct series names, so this is a move, not an interleave);
//   - events k-way merge by time, ties broken by part order — each
//     part's events must be in nondecreasing time order (true for
//     anything recorded on a simulated clock);
//   - dropped-event counts add.
//
// The manifest is left untouched: the coordinator composes it.
//
// Merging a sink into itself panics: counters would double and the
// event merge would loop over a stream it is appending to.
func (s *Sink) MergeFrom(parts ...*Sink) {
	for _, p := range parts {
		if p == s {
			panic("obs: MergeFrom: sink passed as its own merge part")
		}
	}
	for _, p := range parts {
		for name, v := range p.counters {
			s.counters[name] += v
		}
		//whvet:allow maprange Hist.Merge is bucket-wise addition, so per-key merge order cannot reach the result; the local dst just caches the lazily created entry
		for name, h := range p.hists {
			dst := s.hists[name]
			if dst == nil {
				dst = &Hist{Name: name}
				s.hists[name] = dst
			}
			dst.Merge(h)
		}
		for _, name := range sortedKeys(p.series) {
			src := p.series[name]
			dst := s.series[name]
			if dst == nil {
				dst = &Series{Name: name}
				s.series[name] = dst
			}
			dst.Points = append(dst.Points, src.Points...)
		}
		s.dropped += p.dropped
	}
	// K-way time merge of event streams, stable on part order.
	evs := make([][]EventRecord, len(parts))
	total := 0
	for i, p := range parts {
		evs[i] = p.Events()
		total += len(evs[i])
	}
	idx := make([]int, len(parts))
	for n := 0; n < total; n++ {
		best := -1
		for i := range evs {
			if idx[i] >= len(evs[i]) {
				continue
			}
			if best < 0 || evs[i][idx[i]].T < evs[best][idx[best]].T {
				best = i
			}
		}
		e := evs[best][idx[best]]
		idx[best]++
		s.Event(e.Stream, e.T, e.Fields...)
	}
}
