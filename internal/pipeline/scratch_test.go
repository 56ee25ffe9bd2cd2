package pipeline

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"unsafe"

	"valuepred/internal/btb"
	"valuepred/internal/fetch"
	"valuepred/internal/trace"
	"valuepred/internal/workload"
)

// TestScratchResetLeavesNoState pins the pool-reset contract of scratch.go
// without going through sync.Pool, so it is deterministic and runs under
// -race too. A scratch whose every retained buffer is dirtied to full
// capacity with non-zero values must, after the reset getScratch runs, be
// indistinguishable from a freshly reset one; a zeroed buffer tail is only
// capacity and counts for nothing. The dirtying walks the struct by
// reflection, so a field added later is dirtied, and must be reset, too.
func TestScratchResetLeavesNoState(t *testing.T) {
	for _, window := range []int{1, 40, 100} {
		var fresh, s scratch
		fresh.reset(window)
		s.reset(window) // size the store table as a run at this window has
		dirty(t, reflect.ValueOf(&s).Elem())
		s.reset(window)
		if path := diff(reflect.ValueOf(&fresh).Elem(), reflect.ValueOf(&s).Elem(), "scratch"); path != "" {
			t.Errorf("window %d: %s keeps state from the previous run across the reset", window, path)
		}
	}
}

// TestScratchIsNotUsedAfterPut runs machines on goroutines that share
// nothing but the scratch pool and yield after every run, so the next run
// on the same P is usually another goroutine's and draws the scratch just
// put back, before its last user can put it again. Under -race a run that
// touches its scratch after putScratch then races with that run, and
// nothing else orders the two for the detector to miss it. Without -race
// it checks that concurrent runs agree.
func TestScratchIsNotUsedAfterPut(t *testing.T) {
	recs := workload.MustTrace("compress95", 1, 2_000)
	cfg := DefaultConfig()
	runs := []func() (Result, error){
		func() (Result, error) { return Run(fetch.NewSequential(recs, btb.NewPerfect(), 1), cfg) },
		func() (Result, error) { return RunPerfectFetch(trace.NewSliceSource(recs), cfg) },
	}
	want := make([]Result, len(runs))
	for i, run := range runs {
		var err error
		if want[i], err = run(); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 25 {
				for i, run := range runs {
					if got, err := run(); err != nil || got != want[i] {
						t.Errorf("concurrent run %d: %+v, %v; want %+v", i, got, err, want[i])
						return
					}
					runtime.Gosched()
				}
			}
		}()
	}
	wg.Wait()
}

// settable returns v, a possibly unexported field, as a settable value.
func settable(v reflect.Value) reflect.Value {
	return reflect.NewAt(v.Type(), unsafe.Pointer(v.UnsafeAddr())).Elem()
}

// dirty fills v with non-zero values: every slice is extended to its full
// capacity (given three elements if it has none) and every element, field
// and scalar is dirtied. A kind it cannot dirty fails the test, so a new
// field cannot slip past it.
func dirty(t *testing.T, v reflect.Value) {
	t.Helper()
	v = settable(v)
	switch v.Kind() {
	case reflect.Struct:
		for i := range v.NumField() {
			dirty(t, v.Field(i))
		}
	case reflect.Array:
		for i := range v.Len() {
			dirty(t, v.Index(i))
		}
	case reflect.Slice:
		if v.Cap() == 0 {
			v.Set(reflect.MakeSlice(v.Type(), 3, 3))
		}
		v.SetLen(v.Cap())
		for i := range v.Len() {
			dirty(t, v.Index(i))
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		v.SetInt(0x5a)
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		v.SetUint(0x5a)
	case reflect.Bool:
		v.SetBool(true)
	default:
		t.Fatalf("dirty: cannot dirty a %s; teach it to", v.Type())
	}
}

// diff returns the path of the first place where a and b differ, or "".
// Slices are compared element by element over the longer length, a missing
// element reading as the zero value, so capacity never counts.
func diff(a, b reflect.Value, path string) string {
	switch a.Kind() {
	case reflect.Struct:
		for i := range a.NumField() {
			if p := diff(a.Field(i), b.Field(i), path+"."+a.Type().Field(i).Name); p != "" {
				return p
			}
		}
	case reflect.Array:
		for i := range a.Len() {
			if p := diff(a.Index(i), b.Index(i), fmt.Sprintf("%s[%d]", path, i)); p != "" {
				return p
			}
		}
	case reflect.Slice:
		zero := reflect.Zero(a.Type().Elem())
		at := func(s reflect.Value, i int) reflect.Value {
			if i < s.Len() {
				return s.Index(i)
			}
			return zero
		}
		for i := range max(a.Len(), b.Len()) {
			if p := diff(at(a, i), at(b, i), fmt.Sprintf("%s[%d]", path, i)); p != "" {
				return p
			}
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		if a.Int() != b.Int() {
			return path
		}
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		if a.Uint() != b.Uint() {
			return path
		}
	case reflect.Bool:
		if a.Bool() != b.Bool() {
			return path
		}
	default:
		panic("diff: unsupported kind " + a.Kind().String())
	}
	return ""
}
