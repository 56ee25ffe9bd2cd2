package chunk

import (
	"bytes"
	"testing"

	"valuepred/internal/trace"
)

// encode writes recs as one self-contained block in the binary trace
// format, as Build does.
func encode(tb testing.TB, recs []trace.Rec) []byte {
	tb.Helper()
	var buf bytes.Buffer
	w := trace.NewWriter(&buf)
	for _, r := range recs {
		if err := w.Write(r); err != nil {
			tb.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// FuzzCursor feeds arbitrary bytes to the chunk decoder as the second
// block of a sequence, after a valid 5-record block, with an arbitrary
// record count. The cursor must never panic and must number the records
// it serves consecutively from 0. It serves the arbitrary block only when
// trace.NewReader decodes the same bytes cleanly to exactly that count,
// and then serves the Reader's records; otherwise Err reports it, and
// only then. The committed seed corpus is in testdata/fuzz/FuzzCursor.
func FuzzCursor(f *testing.F) {
	valid := encode(f, synth(20))
	f.Add(valid, uint16(20))
	f.Add(valid, uint16(21))
	f.Add(valid[:len(valid)/2], uint16(20))
	f.Fuzz(func(t *testing.T, data []byte, count uint16) {
		q, err := Build(trace.NewSliceSource(synth(5)), 0, 5)
		if err != nil {
			t.Fatal(err)
		}
		q.blocks = append(q.blocks, block{data: data, n: int(count)})
		q.n += int(count)
		q.nbytes += len(data)

		rd := trace.NewReader(bytes.NewReader(data))
		want := trace.Collect(rd, 0)
		// A zero count ends the cursor before the block, which it then
		// never decodes.
		wantErr := count > 0 && (rd.Err() != nil || len(want) != int(count))

		c := NewCursor(q, q.Len())
		var got []trace.Rec
		for v := c.View(7); len(v) > 0; v = c.View(7) {
			got = append(got, v...)
		}
		for i, r := range got {
			if r.Seq != uint64(i) {
				t.Fatalf("record %d has Seq %d", i, r.Seq)
			}
		}
		if (c.Err() != nil) != wantErr {
			t.Fatalf("cursor err = %v; Reader err = %v, %d records for a count of %d", c.Err(), rd.Err(), len(want), count)
		}
		if wantErr || count == 0 {
			if len(got) != 5 {
				t.Fatalf("served %d records past a bad block, want only the 5 before it", len(got))
			}
			return
		}
		if len(got) != 5+len(want) {
			t.Fatalf("served %d records, want 5 + %d", len(got), len(want))
		}
		for i, r := range want {
			r.Seq += 5
			if got[5+i] != r {
				t.Fatalf("record %d: %+v, Reader %+v", 5+i, got[5+i], r)
			}
		}
	})
}
