package experiment

// aggNote declares a run-wide aggregate note (the "mean ... across runs"
// lines under Figures 5.1–5.3): contrib gives each workload's raw
// contribution, carried in its WorkloadRow so that a merged shard set
// renders the note from the same numbers as an unsharded run.
type aggNote struct {
	format  string  // a Sprintf format with a single float verb
	factor  float64 // the scale applied to the sum
	weight  int     // runs per workload contributing to the mean
	contrib func(r row) float64
}

// render appends the note over rows to t: factor * sum / (weight *
// len(rows)), summing in rows' order. Float64 addition is not
// associative, so rows must be in presentation order.
func (a *aggNote) render(t *Table, rows []WorkloadRow) {
	var sum float64
	for _, r := range rows {
		sum += r.Contrib
	}
	t.AddNote(a.format, a.factor*sum/float64(a.weight*len(rows)))
}
