package httpapi

import (
	"net/http"
	"strconv"
	"testing"
)

// TestSnapshotHeaderAdvancesOnMutation pins the per-response snapshot
// identity: every response carries X-ATIS-Snapshot, and a traffic
// mutation publishes a new world, so the header value strictly
// increases across the write.
func TestSnapshotHeaderAdvancesOnMutation(t *testing.T) {
	ts := newTestServer(t)

	resp := getJSON(t, ts.URL+"/v1/route?from=0&to=5", nil)
	before, err := strconv.ParseUint(resp.Header.Get("X-ATIS-Snapshot"), 10, 64)
	if err != nil {
		t.Fatalf("X-ATIS-Snapshot %q: %v", resp.Header.Get("X-ATIS-Snapshot"), err)
	}

	if resp := postJSON(t, ts.URL+"/v1/traffic", `{"x":16,"y":16,"radius":5,"factor":4}`, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("traffic: %d", resp.StatusCode)
	}

	resp = getJSON(t, ts.URL+"/v1/route?from=0&to=5", nil)
	after, err := strconv.ParseUint(resp.Header.Get("X-ATIS-Snapshot"), 10, 64)
	if err != nil {
		t.Fatalf("X-ATIS-Snapshot %q: %v", resp.Header.Get("X-ATIS-Snapshot"), err)
	}
	if after <= before {
		t.Fatalf("snapshot header did not advance across a mutation: %d → %d", before, after)
	}
}

// TestSnapshotEndpoint checks GET /v1/snapshot returns the published
// identity with the same generation the response header carries, plus
// the CH readiness block.
func TestSnapshotEndpoint(t *testing.T) {
	ts := newTestServer(t)

	var body struct {
		Version        uint64         `json:"version"`
		Generation     uint64         `json:"generation"`
		PublishedAt    string         `json:"publishedAt"`
		CostGeneration uint64         `json:"costGeneration"`
		CH             map[string]any `json:"ch"`
	}
	resp := getJSON(t, ts.URL+"/v1/snapshot", &body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/snapshot: %d", resp.StatusCode)
	}
	if body.Generation == 0 {
		t.Error("snapshot generation is 0; the seed snapshot publishes at 1")
	}
	if body.PublishedAt == "" {
		t.Error("snapshot publishedAt missing")
	}
	if body.CH == nil {
		t.Error("snapshot ch block missing")
	} else if _, ok := body.CH["ready"]; !ok {
		t.Errorf("snapshot ch block lacks ready: %v", body.CH)
	}
	hdr := resp.Header.Get("X-ATIS-Snapshot")
	if hdr != strconv.FormatUint(body.Generation, 10) {
		t.Errorf("X-ATIS-Snapshot %q disagrees with body generation %d", hdr, body.Generation)
	}

	// The same identity block appears in /v1/stats, under "snapshot".
	var stats struct {
		CostGeneration uint64 `json:"costGeneration"`
		Snapshot       struct {
			Generation  uint64 `json:"generation"`
			PublishedAt string `json:"publishedAt"`
		} `json:"snapshot"`
	}
	getJSON(t, ts.URL+"/v1/stats", &stats)
	if stats.Snapshot.Generation == 0 || stats.Snapshot.PublishedAt == "" {
		t.Errorf("stats snapshot block incomplete: %+v", stats.Snapshot)
	}

	// "version" reports the cost generation, in both places, through a
	// traffic batch and a reset.
	checkVersion := func(stage string, wantGen uint64) {
		t.Helper()
		var snap struct {
			Version        uint64 `json:"version"`
			CostGeneration uint64 `json:"costGeneration"`
		}
		getJSON(t, ts.URL+"/v1/snapshot", &snap)
		var st struct {
			CostGeneration uint64 `json:"costGeneration"`
			Snapshot       struct {
				Version uint64 `json:"version"`
			} `json:"snapshot"`
		}
		getJSON(t, ts.URL+"/v1/stats", &st)
		if snap.CostGeneration != wantGen || st.CostGeneration != wantGen {
			t.Errorf("%s: costGeneration snapshot=%d stats=%d, want %d", stage, snap.CostGeneration, st.CostGeneration, wantGen)
		}
		if snap.Version != snap.CostGeneration || st.Snapshot.Version != st.CostGeneration {
			t.Errorf("%s: version snapshot=%d stats=%d, want costGeneration %d", stage, snap.Version, st.Snapshot.Version, wantGen)
		}
	}
	checkVersion("fresh", 0)
	var rt RouteResponse
	getJSON(t, ts.URL+"/v1/route?from=0&to=5&algo=dijkstra", &rt)
	if len(rt.Nodes) < 2 {
		t.Fatalf("route 0→5 has no edge to re-price: %v", rt.Nodes)
	}
	batch := `{"changes":[{"from":"` + strconv.Itoa(int(rt.Nodes[0])) + `","to":"` + strconv.Itoa(int(rt.Nodes[1])) + `","factor":2}]}`
	if resp := postJSON(t, ts.URL+"/v1/traffic/batch", batch, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("traffic batch: %d", resp.StatusCode)
	}
	checkVersion("after batch", 1)
	if resp := postJSON(t, ts.URL+"/v1/traffic/reset", "", nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("traffic reset: %d", resp.StatusCode)
	}
	checkVersion("after reset", 2)

	// /v1/snapshot is new with /v1 — no unversioned alias exists.
	if resp := getJSON(t, ts.URL+"/snapshot", nil); resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /snapshot (no legacy alias expected): %d", resp.StatusCode)
	}
}

// TestLegacyAliasDeprecationHeaders pins the consolidation satellite:
// every unversioned alias is served through one deprecation funnel that
// stamps Deprecation, a successor Link, and the RFC 8594 Sunset date,
// while the /v1 path stays clean.
func TestLegacyAliasDeprecationHeaders(t *testing.T) {
	ts := newTestServer(t)

	legacy := getJSON(t, ts.URL+"/route?from=0&to=5", nil)
	if legacy.StatusCode != http.StatusOK {
		t.Fatalf("GET /route: %d", legacy.StatusCode)
	}
	if got := legacy.Header.Get("Deprecation"); got != "true" {
		t.Errorf("legacy Deprecation = %q, want \"true\"", got)
	}
	if got := legacy.Header.Get("Link"); got != `</v1/route>; rel="successor-version"` {
		t.Errorf("legacy Link = %q", got)
	}
	if got := legacy.Header.Get("Sunset"); got != legacySunset {
		t.Errorf("legacy Sunset = %q, want %q", got, legacySunset)
	}

	// Wrong-method requests on a legacy path go through the same funnel.
	wrongMethod := postJSON(t, ts.URL+"/route", "{}", nil)
	if wrongMethod.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /route: %d", wrongMethod.StatusCode)
	}
	if wrongMethod.Header.Get("Deprecation") != "true" || wrongMethod.Header.Get("Sunset") == "" {
		t.Error("legacy 405 path skipped the deprecation funnel")
	}

	v1 := getJSON(t, ts.URL+"/v1/route?from=0&to=5", nil)
	if v1.StatusCode != http.StatusOK {
		t.Fatalf("GET /v1/route: %d", v1.StatusCode)
	}
	for _, h := range []string{"Deprecation", "Link", "Sunset"} {
		if got := v1.Header.Get(h); got != "" {
			t.Errorf("/v1 path unexpectedly carries %s: %q", h, got)
		}
	}
}
