package trace_test

import (
	"slices"
	"testing"

	"valuepred/internal/trace"
	"valuepred/internal/workload"
)

// TestWorkloadsRoundTrip encodes the first 100k records of every workload
// in blocks of 8192, as internal/chunk does, and requires each block to
// decode to its records exactly with no exception record: the emulator's
// traces are all the format's rules describe.
func TestWorkloadsRoundTrip(t *testing.T) {
	const n, size = 100_000, 8192
	for _, name := range workload.Names() {
		src, err := workload.Open(name, 1, n)
		if err != nil {
			t.Fatal(err)
		}
		recs := trace.Collect(src, n)
		if len(recs) != n {
			t.Fatalf("%s: traced %d records, want %d", name, len(recs), n)
		}
		var enc trace.Encoder
		var data []byte
		bytes := 0
		for at := 0; at < n; at += size {
			blk := recs[at:min(at+size, n)]
			data = enc.AppendBlock(data[:0], blk)
			bytes += len(data)
			if exc, err := trace.Exceptions(data); err != nil || len(exc) != 0 {
				t.Errorf("%s: block at %d has exception records %v (err %v)", name, at, exc, err)
			}
			got, err := trace.DecodeBlock(nil, data, uint64(at), len(blk))
			if err != nil || !slices.Equal(got, blk) {
				t.Fatalf("%s: block at %d decoded to %d records (err %v), not its %d", name, at, len(got), err, len(blk))
			}
		}
		t.Logf("%s: %.2f B/record", name, float64(bytes)/n)
	}
}

// BenchmarkBlocks encodes and decodes the first 100k records of two
// workloads in blocks of 8192, as internal/chunk does, and reports the
// time per record of each direction and the bytes per record.
func BenchmarkBlocks(b *testing.B) {
	const n, size = 100_000, 8192
	for _, name := range []string{"gcc", "go"} {
		src, err := workload.Open(name, 1, n)
		if err != nil {
			b.Fatal(err)
		}
		recs := trace.Collect(src, n)
		var enc trace.Encoder
		var blocks [][]byte
		for at := 0; at < n; at += size {
			blocks = append(blocks, enc.AppendBlock(nil, recs[at:min(at+size, n)]))
		}
		b.Run(name+"/encode", func(b *testing.B) {
			var data []byte
			for range b.N {
				for at := 0; at < n; at += size {
					data = enc.AppendBlock(data[:0], recs[at:min(at+size, n)])
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/rec")
		})
		b.Run(name+"/decode", func(b *testing.B) {
			dst := make([]trace.Rec, 0, size)
			bytes := 0
			for range b.N {
				bytes = 0
				for i, data := range blocks {
					if dst, err = trace.DecodeBlock(dst[:0], data, uint64(i*size), size); err != nil {
						b.Fatal(err)
					}
					bytes += len(data)
				}
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*n), "ns/rec")
			b.ReportMetric(float64(bytes)/n, "B/rec")
		})
	}
}
