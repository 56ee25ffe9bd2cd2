package experiment

// This file carries the mergeable form of the run-wide aggregate notes
// (the "mean ... across runs" lines under Figures 5.1–5.3). The rendered
// string is a dead end for sharding — %.1f has already destroyed the raw
// sum — so a declaration's aggregate note is a NoteAgg: the runner adds
// each workload's raw value in presentation order and renders the note
// from the sum (in presentation order, then factor*sum/(weight*
// contributions)), and when the run is a shard (Params.aggs non-nil) it
// exports the raw contributions alongside the partial table so
// MergeShardFiles can re-render the note over the full workload set
// byte-identically.

// NoteAgg is the serialized form of one aggregate note: the Sprintf format
// with a single float verb, the scale factor, the per-workload weight
// (runs per workload contributing to the mean), and the raw per-workload
// contributions in presentation order.
type NoteAgg struct {
	Key      string        `json:"key"`
	Format   string        `json:"format"`
	Factor   float64       `json:"factor"`
	Weight   int           `json:"weight"`
	Contribs []NoteContrib `json:"contribs"`
}

// NoteContrib is one workload's raw contribution to an aggregate note.
type NoteContrib struct {
	Workload string  `json:"workload"`
	Value    float64 `json:"value"`
}

// value computes the note's argument: factor * sum(contribs) / (weight *
// len(contribs)), summing in slice order. Callers must keep that order
// canonical (presentation order of the contributing workloads) so the
// float64 addition order — addition is not associative — matches the
// unsharded inline computation.
func (a NoteAgg) value() float64 {
	var sum float64
	for _, c := range a.Contribs {
		sum += c.Value
	}
	return a.Factor * sum / float64(a.Weight*len(a.Contribs))
}

// render appends the aggregate note to t.
func (a NoteAgg) render(t *Table) {
	t.AddNote(a.Format, a.value())
}
