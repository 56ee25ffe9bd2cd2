package experiment

import "valuepred/internal/predictor"

// vpSpec names a direct value predictor; mk builds a fresh one for a
// workload's feed.
type vpSpec struct {
	name string
	mk   func(f feed) predictor.Predictor
}

// classifiedStride is the paper's Section 3 and 5 predictor: an infinite
// stride table gated by 2-bit saturating counters.
var classifiedStride = vpSpec{"stride+2bc", func(feed) predictor.Predictor { return predictor.NewClassifiedStride() }}

// recording is one workload's outcome stream under one predictor, with the
// accuracy of the pass that recorded it.
type recording struct {
	outs *predictor.Outcomes
	acc  predictor.Accuracy
}

// record fetches the run's traces, as feeds does, and builds the run's
// outcome streams: one predictor pass per (workload, spec), declared as a
// plan grid under the experiment's id with the predictor's name as column
// and "outcomes" as variant. A direct predictor's outcomes depend on the
// trace alone (DESIGN.md §7), so every machine cell of the experiment
// replays its workload's stream instead of driving a predictor again. The
// streams live for this one run: one per seed and per shard, never shared
// across experiments or requests.
func (p Params) record(id string, specs ...vpSpec) (map[string]feed, *gridResults, error) {
	feeds, err := p.feeds()
	if err != nil {
		return nil, nil, err
	}
	g := p.newGrid(id)
	for _, name := range p.workloads() {
		f := feeds[name]
		for _, s := range specs {
			g.cell(name, s.name, "outcomes", func() (any, error) {
				pred := predictor.Instrument(s.mk(f), p.Obs.Registry()) // unwrapped when Obs is nil
				outs, acc := predictor.RecordOutcomes(pred, f.source())
				return recording{outs: outs, acc: acc}, nil
			})
		}
	}
	outs, err := g.run()
	return feeds, outs, err
}

// outcomes returns the stream record built for workload under spec.
func (r *gridResults) outcomes(workload string, spec vpSpec) *predictor.Outcomes {
	return r.get(workload, spec.name, "outcomes").(recording).outs
}

// accuracy returns the accuracy of the pass that recorded workload's
// stream under spec.
func (r *gridResults) accuracy(workload string, spec vpSpec) predictor.Accuracy {
	return r.get(workload, spec.name, "outcomes").(recording).acc
}
