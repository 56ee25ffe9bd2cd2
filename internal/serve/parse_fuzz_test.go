package serve

import (
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"testing"

	"valuepred/internal/workload"
)

// FuzzParseRunRequest feeds raw query strings to parseRunRequest, the
// trust boundary of GET /v1/experiments/{id} and POST /v1/jobs. It must
// accept or answer 400 bad_params, never panic. An accepted request keeps
// its trace length and seed count within the configured maxima, names only
// known workloads and none twice, and its canonical key is a fixed point:
// encoded back into a query and parsed again, it has the same key. The
// seed corpus in testdata/fuzz holds the TestBadParams and
// TestCanonicalization queries and a repeated workload.
func FuzzParseRunRequest(f *testing.F) {
	cfg := Config{MaxTraceLen: DefaultMaxTraceLen, MaxSeeds: DefaultMaxSeeds}
	parse := func(raw string) (runRequest, *apiError) {
		return parseRunRequest(&http.Request{URL: &url.URL{RawQuery: raw}}, cfg)
	}
	f.Fuzz(func(t *testing.T, raw string) {
		rr, apiErr := parse(raw)
		if apiErr != nil {
			if apiErr.status != http.StatusBadRequest || apiErr.Code != "bad_params" {
				t.Fatalf("%q: rejected with %d %s", raw, apiErr.status, apiErr)
			}
			return
		}
		if rr.TraceLen < 1 || rr.TraceLen > cfg.MaxTraceLen || rr.Seeds < 1 || rr.Seeds > cfg.MaxSeeds {
			t.Fatalf("%q: accepted out-of-range request %+v", raw, rr)
		}
		seen := map[string]bool{}
		for _, name := range rr.Workloads {
			if _, ok := workload.Get(name); !ok || seen[name] {
				t.Fatalf("%q: accepted workloads %q", raw, rr.Workloads)
			}
			seen[name] = true
		}
		q := url.Values{}
		q.Set("seed", strconv.FormatInt(rr.Seed, 10))
		q.Set("tracelen", strconv.Itoa(rr.TraceLen))
		q.Set("seeds", strconv.Itoa(rr.Seeds))
		q.Set("workloads", strings.Join(rr.Workloads, ","))
		q.Set("format", rr.Format)
		again, apiErr := parse(q.Encode())
		if apiErr != nil {
			t.Fatalf("%q: its canonical form %q is rejected: %v", raw, q.Encode(), apiErr)
		}
		if again.key("f") != rr.key("f") {
			t.Fatalf("%q: key %q, but its canonical form %q has key %q", raw, rr.key("f"), q.Encode(), again.key("f"))
		}
	})
}
