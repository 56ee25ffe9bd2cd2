package serve

import (
	"fmt"
	"net/http"
	"strings"
	"testing"

	"valuepred/internal/plan"
	"valuepred/internal/tracestore"
)

// TestShardedRepliesMergeByteIdentically is the serving half of the
// DESIGN.md §14 contract: two replicas running -shard 1/2 and -shard 2/2
// serve format=shard artifacts whose merge (here via POST /v1/merge on an
// unsharded replica) renders byte-identically to the unsharded table.
func TestShardedRepliesMergeByteIdentically(t *testing.T) {
	if testing.Short() {
		t.Skip("simulates fig5.1 over three workloads three times")
	}
	// One trace store for all three replicas, like replicas sharing a host.
	store := tracestore.New(0)
	_, ts0 := newTestServer(t, Config{Store: store})
	_, ts1 := newTestServer(t, Config{Store: store, Shard: plan.Shard{Index: 1, Of: 2}})
	_, ts2 := newTestServer(t, Config{Store: store, Shard: plan.Shard{Index: 2, Of: 2}})

	const query = "?tracelen=3000&workloads=compress95,li,go"
	status, _, want := get(t, ts0, "/v1/experiments/fig5.1"+query)
	if status != http.StatusOK {
		t.Fatalf("unsharded: status %d, body %s", status, want)
	}

	status1, hdr1, art1 := get(t, ts1, "/v1/experiments/fig5.1"+query+"&format=shard")
	if status1 != http.StatusOK || hdr1.Get("X-Cache") != "miss" {
		t.Fatalf("shard 1 artifact: status %d, X-Cache %q, body %s", status1, hdr1.Get("X-Cache"), art1)
	}
	status2, _, art2 := get(t, ts2, "/v1/experiments/fig5.1"+query+"&format=shard")
	if status2 != http.StatusOK {
		t.Fatalf("shard 2 artifact: status %d, body %s", status2, art2)
	}

	// Settled artifact jobs are reused: a repeat fetch is a hit, no re-run.
	if _, hdr, _ := get(t, ts1, "/v1/experiments/fig5.1"+query+"&format=shard"); hdr.Get("X-Cache") != "hit" {
		t.Errorf("repeat artifact fetch: X-Cache = %q, want hit", hdr.Get("X-Cache"))
	}

	body := "[" + strings.TrimSpace(art1) + "," + strings.TrimSpace(art2) + "]"
	status, _, merged := post(t, ts0, "/v1/merge", body)
	if status != http.StatusOK {
		t.Fatalf("merge: status %d, body %s", status, merged)
	}
	if merged != want {
		t.Errorf("merged render differs from the unsharded table:\nmerged:\n%s\nunsharded:\n%s", merged, want)
	}
}

// TestShardedReplicaServesPartialTable checks a sharded replica's normal
// formats: the table is restricted to the workloads the shard owns, and a
// shard owning none of the requested workloads says so instead of serving
// an empty table.
func TestShardedReplicaServesPartialTable(t *testing.T) {
	_, ts := newTestServer(t, Config{Shard: plan.Shard{Index: 2, Of: 2}})
	// Of compress95,li,go the 2/2 shard owns only li (row index 1).
	status, _, body := get(t, ts, "/v1/experiments/table3.1?tracelen=3000&workloads=compress95,li,go")
	if status != http.StatusOK {
		t.Fatalf("partial table: status %d, body %s", status, body)
	}
	if !strings.Contains(body, "li") || strings.Contains(body, "compress95") {
		t.Errorf("partial table should contain li and not compress95:\n%s", body)
	}
	// A single-workload request this shard does not own fails loudly.
	status, _, body = get(t, ts, "/v1/experiments/table3.1?tracelen=3000&workloads=compress95")
	if status != http.StatusBadRequest || errorCode(t, body) != "empty_shard" {
		t.Errorf("unowned request: status = %d, body = %s (want 400 empty_shard)", status, body)
	}
}

// TestShardFormatRequiresShardedServer pins the gate: an unsharded server
// rejects format=shard with a pointer at the -shard flag.
func TestShardFormatRequiresShardedServer(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	status, _, body := get(t, ts, "/v1/experiments/fig5.1"+tinyQuery+"&format=shard")
	if status != http.StatusBadRequest || errorCode(t, body) != "bad_params" {
		t.Errorf("format=shard unsharded: status = %d, body = %s", status, body)
	}
}

// TestMergeEndpointRejectsBadSets covers the merge endpoint's error
// surface: a non-JSON body, an incomplete shard set, and the two bodies
// that used to panic the merge (a null shard file, an experiment with no
// seed runs) and so answered 500 instead of 400.
func TestMergeEndpointRejectsBadSets(t *testing.T) {
	_, ts := newTestServer(t, Config{Shard: plan.Shard{Index: 1, Of: 2}})
	_, ts0 := newTestServer(t, Config{})

	status, _, body := post(t, ts0, "/v1/merge", "not json")
	if status != http.StatusBadRequest || errorCode(t, body) != "bad_params" {
		t.Errorf("garbage body: status = %d, body = %s", status, body)
	}

	status, _, artifact := get(t, ts, "/v1/experiments/table3.2"+tinyQuery+"&format=shard")
	if status != http.StatusOK {
		t.Fatalf("artifact: status %d, body %s", status, artifact)
	}
	status, _, body = post(t, ts0, "/v1/merge", "["+strings.TrimSpace(artifact)+"]")
	if status != http.StatusBadRequest || errorCode(t, body) != "bad_merge" {
		t.Errorf("incomplete set: status = %d, body = %s", status, body)
	}

	noRuns := func(i int) string {
		return fmt.Sprintf(`{"version":1,"shard":{"index":%d,"of":2},`+
			`"params":{"seed":1,"trace_len":100,"seeds":1,"workloads":["go","li"]},`+
			`"experiments":[{"experiment":"fig3.1","assigned":[%q],"runs":[]}]}`, i, []string{"go", "li"}[i-1])
	}
	for _, c := range []struct{ name, body string }{
		{"null shard file", "[" + strings.TrimSpace(artifact) + ",null]"},
		{"no seed runs", "[" + noRuns(1) + "," + noRuns(2) + "]"},
		{"lone null", "[null]"},
		{"no experiments", `[{"version":1,"shard":{"index":1,"of":1}}]`},
	} {
		status, _, body = post(t, ts0, "/v1/merge", c.body)
		if status != http.StatusBadRequest || errorCode(t, body) != "bad_merge" {
			t.Errorf("%s: status = %d, body = %s", c.name, status, body)
		}
	}
}
